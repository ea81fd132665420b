package fuzz

import (
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
)

// DropLargestGap is a fault-injection oracle wrapper: it hides the
// largest gap box (ties broken by first position) from both
// GapsContaining and AllGaps, simulating an engine that loses one piece
// of knowledge — the geometric analogue of skipping a resolution. Runs
// over the faulty oracle report the points only that box covered as
// extra output tuples, which the differential checker must catch in
// every mode and the shrinker must reduce to a minimal repro. Used by
// the self-tests of this package and cmd/fuzz's -fault flag; never by
// real checks.
func DropLargestGap(o core.Oracle) core.Oracle {
	f := &faultyOracle{inner: o}
	all := o.AllGaps()
	if len(all) == 0 {
		return o // nothing to hide
	}
	depths := o.Depths()
	best := 0
	for i, b := range all {
		if b.LogVolume(depths) > all[best].LogVolume(depths) {
			best = i
		}
	}
	f.dropped = all[best].Key()
	f.gaps = make([]dyadic.Box, 0, len(all)-1)
	for i, b := range all {
		if i != best {
			f.gaps = append(f.gaps, b)
		}
	}
	return f
}

type faultyOracle struct {
	inner   core.Oracle
	dropped string // Box.Key of the hidden gap box
	gaps    []dyadic.Box
	out     []dyadic.Box // filtered GapsContaining buffer, reused
}

func (f *faultyOracle) Dims() int             { return f.inner.Dims() }
func (f *faultyOracle) Depths() []uint8       { return f.inner.Depths() }
func (f *faultyOracle) AllGaps() []dyadic.Box { return f.gaps }

func (f *faultyOracle) GapsContaining(point []uint64) []dyadic.Box {
	f.out = f.out[:0]
	for _, b := range f.inner.GapsContaining(point) {
		if b.Key() != f.dropped {
			f.out = append(f.out, b)
		}
	}
	return f.out
}

// Fault is one way a hostile oracle bends its answer to a probe. The
// engine must never panic under any of them: a Stray answer must end the
// run with an oracle contract violation, Repeat and Scribble must change
// nothing, and Drop — knowledge withheld — may change the answer but not
// crash the run.
type Fault uint8

const (
	Honest   Fault = iota // the inner answer as is
	Stray                 // the inner answer plus a gap box of B that does not contain the point
	Repeat                // every gap box of the inner answer twice
	Scribble              // the inner answer, and the probe point cleared
	Drop                  // the inner answer without its first gap box
	numFaults
)

// HostileOracle bends the answer to its i-th probe by the i-th of its
// faults, cycling. AllGaps is the inner oracle's.
type HostileOracle struct {
	inner  core.Oracle
	faults []Fault
	probes int
	out    []dyadic.Box // bent GapsContaining buffer, reused
	// Strayed and Dropped record that a Stray or a Drop changed an answer.
	Strayed, Dropped bool
}

// NewHostileOracle wraps o. No faults means Honest.
func NewHostileOracle(o core.Oracle, faults ...Fault) *HostileOracle {
	if len(faults) == 0 {
		faults = []Fault{Honest}
	}
	return &HostileOracle{inner: o, faults: faults}
}

// StrayGap, RepeatGaps and ScribblePoint bend every probe by one fault;
// they fit Checker.WrapOracle.
func StrayGap(o core.Oracle) core.Oracle      { return NewHostileOracle(o, Stray) }
func RepeatGaps(o core.Oracle) core.Oracle    { return NewHostileOracle(o, Repeat) }
func ScribblePoint(o core.Oracle) core.Oracle { return NewHostileOracle(o, Scribble) }

func (h *HostileOracle) Dims() int             { return h.inner.Dims() }
func (h *HostileOracle) Depths() []uint8       { return h.inner.Depths() }
func (h *HostileOracle) AllGaps() []dyadic.Box { return h.inner.AllGaps() }

func (h *HostileOracle) GapsContaining(point []uint64) []dyadic.Box {
	fault := h.faults[h.probes%len(h.faults)]
	h.probes++
	gaps := h.inner.GapsContaining(point)
	switch fault {
	case Stray:
		for _, g := range h.inner.AllGaps() {
			if !g.ContainsPoint(point, h.Depths()) {
				h.Strayed = true
				h.out = append(append(h.out[:0], gaps...), g)
				return h.out
			}
		}
	case Repeat:
		h.out = append(append(h.out[:0], gaps...), gaps...)
		return h.out
	case Scribble:
		clear(point)
	case Drop:
		if len(gaps) > 0 {
			h.Dropped = true
			return gaps[1:]
		}
	}
	return gaps
}
