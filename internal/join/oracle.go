package join

import (
	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/index"
)

// atomBinding pairs an index with the mapping from relation attribute
// positions to query variable positions.
type atomBinding struct {
	ix     index.Index
	relPos []int // relation position i holds query variable relPos[i]
}

// Oracle is the query-wide gap box oracle: the union over atoms of the
// per-relation index gaps, extended with λ wildcards to the query's full
// attribute set (the set B(Q) of Section 3.4).
//
// An Oracle is a per-worker prober: the indices it probes are immutable
// and shared (between oracles of the same Plan and with every other
// reader), while the oracle owns the mutable probe state — one index
// cursor per atom plus projection/extension scratch. Use one oracle per
// goroutine; Plan.NewOracle mints them cheaply.
//
// GapsContaining is the oracle's hot path — it runs once per probe of the
// outer Tetris loop — so it reuses that per-oracle scratch and performs
// zero steady-state allocations. Its results are valid only until the
// next GapsContaining call on the same oracle; the core engine consumes
// them immediately, and callers that retain boxes (e.g. the LB rebuild
// set) must Clone them. An answer may repeat a box (several atoms, or an
// index's members, can contribute it); the engine's knowledge-base insert
// counts it once. AllGaps lists each box once, in fresh caller-owned
// storage.
type Oracle struct {
	depths   []uint8
	bindings []atomBinding
	cursors  []index.Cursor

	proj []uint64          // projected probe point, reused
	ext  []dyadic.Interval // arena for extended gap boxes, reused
	out  []dyadic.Box      // result slice, reused
}

// NewOracle assembles a standalone oracle for a query with the given
// per-atom indices (parallel to q.Atoms(); each entry must be non-nil).
// Queries executed repeatedly or in parallel should prepare a Plan and
// use Plan.NewOracle instead, whose plan keeps one gap base for them all.
func NewOracle(q *Query, indices []index.Index) *Oracle {
	bindings := make([]atomBinding, 0, len(q.atoms))
	maxArity := 0
	for ai, a := range q.atoms {
		relPos := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			relPos[i] = q.varPos[v]
		}
		if len(relPos) > maxArity {
			maxArity = len(relPos)
		}
		bindings = append(bindings, atomBinding{ix: indices[ai], relPos: relPos})
	}
	return newOracle(q.Depths(), bindings, maxArity)
}

// newOracle builds the per-worker prober.
func newOracle(depths []uint8, bindings []atomBinding, maxArity int) *Oracle {
	o := &Oracle{
		depths:   depths,
		bindings: bindings,
		cursors:  make([]index.Cursor, len(bindings)),
		proj:     make([]uint64, maxArity),
	}
	for i, b := range bindings {
		o.cursors[i] = b.ix.NewCursor()
	}
	return o
}

// Dims implements core.Oracle.
func (o *Oracle) Dims() int { return len(o.depths) }

// Depths implements core.Oracle.
func (o *Oracle) Depths() []uint8 { return o.depths }

// extendInto lifts a relation-space box into the n-dimensional query-space
// slot out (which must be zeroed to λ outside the binding's positions).
func (b atomBinding) extendInto(out dyadic.Box, rb dyadic.Box) {
	for i, pos := range b.relPos {
		out[pos] = rb[i]
	}
}

// GapsContaining implements core.Oracle: each atom's index is probed with
// the projected point; its gap boxes, extended to query space, all
// contain the probe point. The result is empty exactly when the point's
// projection is a tuple of every relation — i.e. the point is an output
// tuple. A box that several atoms contribute is repeated. The returned
// boxes are valid until the next call.
func (o *Oracle) GapsContaining(point []uint64) []dyadic.Box {
	n := len(o.depths)
	o.ext = o.ext[:0]
	o.out = o.out[:0]
	for bi, b := range o.bindings {
		proj := o.proj[:len(b.relPos)]
		for i, pos := range b.relPos {
			proj[i] = point[pos]
		}
		for _, g := range o.cursors[bi].GapsAt(proj) {
			mark := len(o.ext)
			o.ext = dyadic.AppendLambdas(o.ext, n)
			eb := dyadic.Box(o.ext[mark : mark+n])
			b.extendInto(eb, g)
			o.out = append(o.out, eb)
		}
	}
	return o.out
}

// AllGaps implements core.Oracle: the full set B(Q) of gap boxes from
// every index, extended to query space and deduplicated, so each box
// appears once. The set is freshly computed, caller-owned and valid
// indefinitely.
func (o *Oracle) AllGaps() []dyadic.Box {
	return allGaps(len(o.depths), o.bindings)
}

// allGaps enumerates B(Q) for n-dimensional bindings. The boxes are carved
// from a fresh arena (so the whole set costs O(log) allocations) and only
// read afterwards.
func allGaps(n int, bindings []atomBinding) []dyadic.Box {
	var out []dyadic.Box
	var arena []dyadic.Interval
	seen := boxtree.New(n)
	for _, b := range bindings {
		for _, g := range b.ix.AllGaps() {
			mark := len(arena)
			arena = dyadic.AppendLambdas(arena, n)
			eb := dyadic.Box(arena[mark : mark+n])
			b.extendInto(eb, g)
			if seen.Insert(eb) {
				out = append(out, eb)
			} else {
				arena = arena[:mark]
			}
		}
	}
	return out
}
