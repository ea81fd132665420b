package core

import (
	"context"
	"fmt"

	"tetrisjoin/internal/dyadic"
)

// Mode selects the knowledge-base initialization strategy of Algorithm 2,
// which determines the runtime guarantee Tetris achieves (Sections
// 4.3–4.5 of the paper).
type Mode int

const (
	// Reloaded starts with an empty knowledge base and loads gap boxes
	// lazily from the oracle; it achieves the certificate-based
	// ("beyond worst-case") bounds: Õ(|C|+Z) for treewidth 1 (Thm 4.7),
	// Õ(|C|^{w+1}+Z) for treewidth w (Thm 4.9), Õ(|C|^{n-1}+Z) in
	// general (Thm E.11). This is the default.
	Reloaded Mode = iota
	// Preloaded copies the entire gap box set into the knowledge base
	// up front; with a suitable SAO it achieves the worst-case optimal
	// bounds: Õ(N+AGM) (Thm D.2), Õ(N+Z) for α-acyclic queries
	// (Thm D.8) and Õ(N^fhtw + Z) in general (Thm 4.6).
	Preloaded
	// PreloadedLB is Tetris-Preloaded-LB (Algorithm 3): the input is
	// lifted to 2n-2 dimensions through the Balance map before running,
	// achieving Õ(|B|^{n/2} + Z) (Theorem F.7). Like Preloaded it never
	// probes the oracle: every lifted gap box is in the knowledge base, so
	// an uncovered lifted unit point decodes to an output. A run needs
	// Options.Space.
	PreloadedLB
	// ReloadedLB is Tetris-Reloaded-LB: the lazy variant of the above,
	// achieving Õ(|C|^{n/2} + Z) (Theorem F.9). Partitions are rebuilt
	// whenever the number of loaded boxes doubles (the paper's periodic
	// re-adjustment). Like PreloadedLB it needs Options.Space.
	ReloadedLB
)

// modeNames are the user-facing mode names, indexed by Mode.
var modeNames = [...]string{
	Reloaded:    "reloaded",
	Preloaded:   "preloaded",
	PreloadedLB: "preloaded-lb",
	ReloadedLB:  "reloaded-lb",
}

// ParseMode maps the user-facing mode names ("reloaded", "preloaded",
// "reloaded-lb", "preloaded-lb"; "" means the Reloaded default) onto
// modes — the inverse of Mode.Name, shared by the CLI, the server
// protocol and the durable catalog's records.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return Reloaded, nil
	}
	for m, name := range modeNames {
		if s == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q", s)
}

// known reports whether m is one of the four modes.
func (m Mode) known() bool { return m >= 0 && int(m) < len(modeNames) }

// Name is the spelling ParseMode reads back. An unknown mode has a name
// that does not parse.
func (m Mode) Name() string {
	if !m.known() {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// String implements fmt.Stringer: "tetris-" + Name.
func (m Mode) String() string {
	if !m.known() {
		return m.Name()
	}
	return "tetris-" + m.Name()
}

// Plain reports whether the run works in the oracle's own space
// (Preloaded, Reloaded) rather than the Balance-lifted one. It is the one
// place that decides plain vs lifted: only a plain run can be restricted
// to a subbox (RunBox), sharded (RunShards) or handed a prepared base. A
// lifted run covers an output t with its class box Balance(⟨t⟩), which
// spans sibling fragments of the lifted space, so every fragment the
// class meets would report t again.
func (m Mode) Plain() bool { return m == Preloaded || m == Reloaded }

// Unlifted is the plain mode with m's knowledge-base initialization.
func (m Mode) Unlifted() Mode {
	switch m {
	case PreloadedLB:
		return Preloaded
	case ReloadedLB:
		return Reloaded
	}
	return m
}

// errNotPlain is the refusal of the entry points that need a plain mode.
func errNotPlain(entry string, m Mode) error {
	return fmt.Errorf("core: %s supports only the plain Preloaded/Reloaded modes, not %v", entry, m)
}

// checkSpace holds Options.Space to the LB modes: an LB run needs it, a
// plain run refuses it.
func (o Options) checkSpace() error {
	switch {
	case o.Mode.Plain() && o.Space != nil:
		return fmt.Errorf("core: %v works in the oracle's own space; Options.Space is for the LB modes", o.Mode)
	case !o.Mode.Plain() && o.Space == nil:
		return fmt.Errorf("core: %v needs Options.Space, the Balance lift (internal/lb)", o.Mode)
	}
	return nil
}

// Space is the working space an LB run settles its unit boxes in (a plain
// run has none); the oracle, the gap-box checks and the reported tuples
// stay in base space. internal/lb's Balance lift implements it.
type Space interface {
	Depths() []uint8
	// Decode writes the base tuple of the unit box b into point.
	Decode(b dyadic.Box, point []uint64)
	// Image is the working-space box of the base gap box g.
	Image(g dyadic.Box) dyadic.Box
	// Cover is the box settling the output t: every point decoding to t.
	// t is the pass's buffer.
	Cover(t []uint64) dyadic.Box
	// Load records a gap just loaded (the oracle's scratch) and reports
	// whether a Rebuild is due.
	Load(g dyadic.Box) bool
	// Rebuild re-derives the space from the gaps loaded so far and refills
	// the emptied knowledge base through add: their images and the covers
	// of the outputs reported so far.
	Rebuild(add func(dyadic.Box)) error
}

// Options configures a Tetris run.
type Options struct {
	// Mode selects the knowledge-base initialization (default Reloaded).
	Mode Mode
	// SAO is the splitting attribute order: a permutation of dimension
	// indices. The skeleton splits target boxes along the first thick
	// dimension in this order. Nil means the natural order 0..n-1.
	// The LB modes ignore it when they lift (n >= 3), imposing the
	// Balance order of Appendix F.5; below three dimensions they run
	// their plain variant, in this order.
	SAO []int
	// NoCache disables line 19 of Algorithm 1 (caching of resolvents),
	// restricting the algorithm to Tree Ordered Geometric Resolution
	// (Section 5.1). Used to reproduce Theorems 5.1 and 5.2. It is about
	// the binary resolution steps themselves, so such a run bisects the
	// last SAO dimension like the others instead of walking it as lines
	// (Stats.Lines stays 0), and does not apply the plain modes' storage
	// rule (see Stats.KnowledgeBase).
	NoCache bool
	// MaxResolutions aborts the run with an error after this many
	// resolutions (0 = unlimited), in the middle of a line if that is
	// where the count is reached. A safety valve for adversarial
	// experiments.
	MaxResolutions int64
	// MaxOutput stops after reporting this many output tuples
	// (0 = unlimited).
	MaxOutput int
	// Budget, when non-nil, replaces MaxResolutions/MaxOutput with a
	// quota shared across several runs: the sharded executor hands the
	// same Budget to every shard so the limits cap the combined work.
	// When nil, the Max* fields above apply to this run alone.
	Budget *Budget
	// Base, when non-nil, is a prebuilt shared knowledge base
	// (BuildPreloadedBase) consulted read-only during the run; it must
	// have been built for this run's SAO. Under Preloaded it is the base
	// the run would build for itself, with the same work reported:
	// prepared plans build it once for all their executions. Under
	// Reloaded it is prior knowledge — boxes the caller certifies to
	// contain no output of THIS run's box cover problem — and the run
	// still loads lazily from the oracle on top of it. The LB modes
	// ignore it.
	Base *PreparedBase
	// Space builds the working space of an LB run from the base depths
	// and, under PreloadedLB, the validated gap set, which it keeps. The
	// LB modes need it, the plain ones refuse it; internal/lb's New is it.
	Space func(mode Mode, depths []uint8, gaps []dyadic.Box) (Space, error)
	// Context, when non-nil, cancels the run cooperatively: it is checked
	// at every settled unit box (output report or gap load) and every 1024
	// skeleton calls (frames probed and line positions alike), and the run
	// returns the context's error. The sharded executor uses it to stop
	// sibling shards after a failure or an early stop.
	Context context.Context
	// OnOutput, if non-nil, is invoked for every output tuple as it is
	// found. Returning false stops the enumeration early. The slice is
	// reused; callers must copy it to retain it.
	OnOutput func(tuple []uint64) bool
	// onResolve, if non-nil, observes every geometric resolution: the two
	// witnesses, their resolvent, and the dimension resolved on (in the
	// run's working space — the lifted space for LB modes). Only tests set
	// it; like NoCache it makes the run bisect, so every resolution is a
	// binary step the observer sees. Sharded runs call it from every
	// worker concurrently. It must not retain the boxes without copying.
	onResolve func(w1, w2, resolvent dyadic.Box, dim int)
}

// Stats reports the work performed by a Tetris run. Resolution counts are
// the paper's primary complexity measure (Lemma 4.5: total runtime is
// Õ(#resolutions)).
type Stats struct {
	// Resolutions is the total number of geometric resolutions performed.
	Resolutions int64
	// SkeletonCalls counts recursive TetrisSkeleton invocations, and the
	// positions probed along lines.
	SkeletonCalls int64
	// Splits counts Split-First-Thick-Dimension operations; a line counts
	// as one.
	Splits int64
	// Lines counts frames thick only in the last SAO dimension that were
	// settled by one left-to-right walk instead of being bisected. A line
	// over k covers charges Resolutions k-1 (the ordered resolutions that
	// combine them), SkeletonCalls one per position probed and CoverHits
	// one per stored cover used. Zero under NoCache, which counts binary
	// steps and keeps them.
	Lines int64
	// CoverHits counts successful knowledge-base containment lookups
	// (line 1 of Algorithm 1).
	CoverHits int64
	// OracleCalls counts probes of the gap box oracle (line 4 of
	// Algorithm 2): one per settled unit box under Reloaded and
	// ReloadedLB, none under Preloaded and PreloadedLB.
	OracleCalls int64
	// BoxesLoaded counts the distinct gap boxes taken from the oracle:
	// the whole gap set under Preloaded, however many roots; the lazy
	// loads under Reloaded, the implicit certificate size witness (Lemma
	// E.1: O(|C|) up to Õ(1) factors).
	BoxesLoaded int64
	// Outputs is the number of output tuples reported.
	Outputs int64
	// Rebuilds counts partition rebuilds in ReloadedLB mode.
	Rebuilds int64
	// IndexBuilds counts database indexes constructed on behalf of the
	// run. The core engine never builds indexes itself; the join layer
	// charges plan-preparation builds to the execution that triggered
	// them, so a one-shot Execute reports the indexes it had to build
	// while an execution of an already-prepared plan reports 0 — the
	// measurable witness that the catalog amortizes index construction.
	IndexBuilds int64
	// KnowledgeBase is the number of boxes the run keeps in its knowledge
	// base at the end (under Preloaded, Covers and Count: its base plus
	// what it learned), not the number it derived: in the plain modes a
	// resolvent, a line's witness or an output's cover is kept only when it
	// is larger than the frame it was found for, since no later probe can
	// hit one that is not (NoCache and the LB modes keep them all).
	KnowledgeBase int
	// Steals counts fragments the work-stealing executor split off
	// running workers' regions (0 for sequential runs and for sharded
	// runs with one worker, which nobody asks to donate).
	Steals int64
	// ParallelWorkers is the number of worker goroutines the sharded
	// executor launched for the run (0 for sequential runs).
	ParallelWorkers int64
	// MaxWorkerResolutions is the resolution count of the run's busiest
	// worker. MaxWorkerResolutions / (Resolutions / ParallelWorkers) is
	// the max/mean balance share: 1.0 is a perfectly balanced run,
	// ParallelWorkers means one worker did everything.
	MaxWorkerResolutions int64
}

// Merge accumulates the counters of another run into s. The sharded
// executor uses it to combine per-shard statistics: every field is a sum
// (KnowledgeBase becomes the total number of boxes held across shard
// knowledge bases), except the executor-shape fields ParallelWorkers and
// MaxWorkerResolutions, which take the maximum — summing them across
// the runs a caller accumulates (e.g. maintenance passes) would turn a
// per-run balance diagnostic into a meaningless total.
func (s *Stats) Merge(other Stats) {
	s.Resolutions += other.Resolutions
	s.SkeletonCalls += other.SkeletonCalls
	s.Splits += other.Splits
	s.Lines += other.Lines
	s.CoverHits += other.CoverHits
	s.OracleCalls += other.OracleCalls
	s.BoxesLoaded += other.BoxesLoaded
	s.Outputs += other.Outputs
	s.Rebuilds += other.Rebuilds
	s.IndexBuilds += other.IndexBuilds
	s.KnowledgeBase += other.KnowledgeBase
	s.Steals += other.Steals
	s.ParallelWorkers = max(s.ParallelWorkers, other.ParallelWorkers)
	s.MaxWorkerResolutions = max(s.MaxWorkerResolutions, other.MaxWorkerResolutions)
}

// Result is the outcome of a Tetris run: the output tuples of the box
// cover problem (in dimension order) and the work statistics.
type Result struct {
	Tuples [][]uint64
	Stats  Stats
}

// effectiveBudget resolves the budget a run should draw from: an
// explicitly shared one, or a private budget carrying the run's own
// Max* limits, or nil when the run is unlimited.
func effectiveBudget(opts Options) *Budget {
	if opts.Budget != nil {
		return opts.Budget
	}
	return NewBudget(opts.MaxResolutions, opts.MaxOutput)
}

// checkContext reports the context's error when opts carries a cancelled
// context, and nil otherwise.
func checkContext(opts Options) error {
	if opts.Context == nil {
		return nil
	}
	select {
	case <-opts.Context.Done():
		return opts.Context.Err()
	default:
		return nil
	}
}
