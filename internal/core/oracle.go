package core

import (
	"fmt"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// Oracle provides access to the gap box set B of a box cover problem
// (Definition 3.4). It models the paper's assumption (Section 3.4) that
// pre-built database indices can return, in Õ(1) time, the gap boxes
// containing a given tuple. Implementations are provided by package index
// (B-tree, trie, dyadic-tree and KD-tree indices) and, for raw box sets,
// by BoxOracle below.
type Oracle interface {
	// Dims returns the dimensionality n of the output space.
	Dims() int
	// Depths returns the per-dimension bit depths of the output space.
	Depths() []uint8
	// GapsContaining returns the gap boxes of B that contain the given
	// point. An empty result certifies that the point is an output tuple.
	// The answer may repeat a box; the engine counts distinct ones. A box
	// that does not contain the point breaks the contract and ends the run
	// with an error. The point is the oracle's to overwrite.
	// Implementations may reuse the returned slice and box storage: the
	// result is only valid until the next GapsContaining call, and
	// callers retaining boxes across calls must Clone them.
	GapsContaining(point []uint64) []dyadic.Box
	// AllGaps enumerates the complete gap box set B, each box once (the
	// engine charges every listed box to BoxesLoaded). It is used by the
	// Preloaded variants and may be expensive for lazy indices. Unlike
	// GapsContaining, the result is caller-owned and stays valid.
	AllGaps() []dyadic.Box
}

// BoxOracle is an Oracle over an explicitly materialized box set, backed
// by a multilevel dyadic tree for Õ(1) containment queries. It is the
// natural oracle for BCP instances given directly as boxes (certificates,
// Klee's measure inputs, generated hard instances).
type BoxOracle struct {
	depths []uint8
	tree   *boxtree.Tree
	boxes  []dyadic.Box

	point dyadic.Box   // probe box buffer, reused per GapsContaining call
	out   []dyadic.Box // result buffer, reused per GapsContaining call
}

// NewBoxOracle builds an oracle over the given boxes. Every box must be
// valid for the given depths.
func NewBoxOracle(depths []uint8, boxes []dyadic.Box) (*BoxOracle, error) {
	if len(depths) == 0 {
		return nil, fmt.Errorf("core: oracle needs at least one dimension")
	}
	for _, d := range depths {
		if d == 0 || d > dyadic.MaxDepth {
			return nil, fmt.Errorf("core: invalid dimension depth %d", d)
		}
	}
	t := boxtree.New(len(depths))
	kept := make([]dyadic.Box, 0, len(boxes))
	for _, b := range boxes {
		if err := b.Check(depths); err != nil {
			return nil, fmt.Errorf("core: invalid gap box %v: %w", b, err)
		}
		if t.Insert(b) {
			kept = append(kept, b)
		}
	}
	return &BoxOracle{
		depths: depths,
		tree:   t,
		boxes:  kept,
		point:  make(dyadic.Box, len(depths)),
	}, nil
}

// MustBoxOracle is NewBoxOracle that panics on error; for tests and
// fixtures.
func MustBoxOracle(depths []uint8, boxes []dyadic.Box) *BoxOracle {
	o, err := NewBoxOracle(depths, boxes)
	if err != nil {
		panic(err)
	}
	return o
}

// Clone returns an independent prober over the same box set: the
// immutable containment tree and box slice are shared, the probe scratch
// is fresh. Use one clone per worker goroutine (e.g. as RunShards'
// oracle factory).
func (o *BoxOracle) Clone() *BoxOracle {
	return &BoxOracle{
		depths: o.depths,
		tree:   o.tree,
		boxes:  o.boxes,
		point:  make(dyadic.Box, len(o.depths)),
	}
}

// Dims implements Oracle.
func (o *BoxOracle) Dims() int { return len(o.depths) }

// Depths implements Oracle.
func (o *BoxOracle) Depths() []uint8 { return o.depths }

// GapsContaining implements Oracle. The result is valid until the next
// call.
func (o *BoxOracle) GapsContaining(point []uint64) []dyadic.Box {
	if len(point) != len(o.depths) {
		panic(fmt.Sprintf("core: probe point has %d values, oracle has %d dimensions", len(point), len(o.depths)))
	}
	for i, v := range point {
		o.point[i] = dyadic.Unit(v, o.depths[i])
	}
	o.out = o.tree.SupersetsAppend(o.out[:0], o.point)
	return o.out
}

// AllGaps implements Oracle.
func (o *BoxOracle) AllGaps() []dyadic.Box { return o.boxes }

// Len returns the number of distinct boxes in the oracle.
func (o *BoxOracle) Len() int { return len(o.boxes) }
