// Delta index builds: composing the immutable index of a relation
// version v with a small structure over the tuples that changed, so the
// index for version v+1 costs O(k) construction instead of O(N).
//
// The two directions compose differently because gap certificates move
// in opposite directions under mutation:
//
//   - Deletion only grows the empty space: every gap box of v is still a
//     gap box of v \ D, and the k deleted tuples become point gaps. The
//     layered index is therefore a plain gap-set union — the existing
//     Union type over the prior index (rebased onto the new snapshot)
//     and a Tombstones index holding the point boxes of D.
//
//   - Insertion shrinks the empty space: a gap box of v may contain an
//     inserted tuple, so the prior gaps are NOT valid for v ∪ A. What is
//     valid is every pairwise intersection: comp(v ∪ A) = comp(v) ∩
//     comp(A), and the intersection of two dyadic boxes is itself a
//     dyadic box (per dimension the intervals are nested or disjoint).
//     The Appended type realizes this intersection product lazily at
//     probe time — both member probes return boxes containing the probe
//     point, so every pairwise meet is non-empty and contains it.
//
// Either composition preserves the oracle contract exactly: GapsAt is
// empty iff the probe point is a tuple of the NEW version, and AllGaps
// unions to precisely the complement of the new version. Layers chain
// (an appended-over-deleted-over-appended index is fine); Set.Derive
// caps the chain depth and falls back to a full rebuild past it, since
// probe cost grows with the number of layers.
package index

import (
	"fmt"
	"sort"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/relation"
)

// Tombstones is a gap generator whose gap set is the point boxes of
// tuples deleted from the relation: the delete half of a layered index.
// Every tombstone tuple must be absent from the relation (the catalog
// guarantees this by recording effective deltas only).
type Tombstones struct {
	rel     *relation.Relation
	deleted []relation.Tuple // sorted, deduplicated
}

// NewTombstones builds the tombstone layer over the new snapshot. The
// deleted tuples are copied (headers only) and sorted.
func NewTombstones(rel *relation.Relation, deleted []relation.Tuple) *Tombstones {
	ts := make([]relation.Tuple, len(deleted))
	copy(ts, deleted)
	sort.Slice(ts, func(i, j int) bool { return relation.Compare(ts[i], ts[j]) < 0 })
	return &Tombstones{rel: rel, deleted: ts}
}

// Relation implements Index.
func (t *Tombstones) Relation() *relation.Relation { return t.rel }

// Kind implements Index.
func (t *Tombstones) Kind() string { return fmt.Sprintf("tombstones(%d)", len(t.deleted)) }

// AllGaps implements Index: one unit box per deleted tuple.
func (t *Tombstones) AllGaps() []dyadic.Box {
	depths := t.rel.Depths()
	out := make([]dyadic.Box, len(t.deleted))
	for i, tup := range t.deleted {
		out[i] = dyadic.Point(tup, depths)
	}
	return out
}

// tombstoneCursor owns the probe scratch: a single reused unit box.
type tombstoneCursor struct {
	t   *Tombstones
	box dyadic.Box
	out []dyadic.Box
}

// NewCursor implements Index.
func (t *Tombstones) NewCursor() Cursor {
	return &tombstoneCursor{t: t, box: make(dyadic.Box, t.rel.Arity()), out: make([]dyadic.Box, 0, 1)}
}

// GapsAt implements Cursor: the point's own unit box when it is a
// tombstone, nothing otherwise.
func (c *tombstoneCursor) GapsAt(point []uint64) []dyadic.Box {
	checkPoint(c.t.rel, point)
	i := sort.Search(len(c.t.deleted), func(i int) bool {
		return relation.Compare(c.t.deleted[i], point) >= 0
	})
	if i >= len(c.t.deleted) || relation.Compare(c.t.deleted[i], point) != 0 {
		return nil
	}
	depths := c.t.rel.Depths()
	for d := range c.box {
		c.box[d] = dyadic.Unit(point[d], depths[d])
	}
	c.out = c.out[:0]
	return append(c.out, c.box)
}

// rebased re-parents an index onto a different relation snapshot, so it
// can be a member of a layered composite whose Relation() must report
// the new version. On its own a rebased index violates the GapsAt
// emptiness contract (it still describes the old tuple set); it is only
// sound inside NewDeleted/NewAppended, which restore the contract for
// the composite. Hence unexported construction.
type rebased struct {
	Index
	rel *relation.Relation
}

func (r rebased) Relation() *relation.Relation { return r.rel }

// Kind implements Index, making the rebase visible in diagnostics.
func (r rebased) Kind() string { return "rebase(" + r.Index.Kind() + ")" }

// NewDeleted layers deletions over a prior version's index: rel must be
// the new snapshot (prior minus deleted), base an index over the prior
// version, and deleted the effective tuples removed — each present in
// the prior version and absent from rel. The result is a plain Union of
// gap generators: the prior gaps (still valid — deletion only grows the
// empty space) plus one point gap per deleted tuple.
func NewDeleted(rel *relation.Relation, base Index, deleted []relation.Tuple) (Index, error) {
	if base.Relation().Arity() != rel.Arity() {
		return nil, fmt.Errorf("index: deleted layer arity mismatch: base %d, relation %s has %d",
			base.Relation().Arity(), rel.Name(), rel.Arity())
	}
	for _, t := range deleted {
		if rel.Contains(t...) {
			return nil, fmt.Errorf("index: tombstone %v is still a tuple of %s", t, rel.Name())
		}
	}
	return NewUnion(rebased{Index: base, rel: rel}, NewTombstones(rel, deleted))
}

// Appended layers insertions over a prior version's index: the gap set
// of rel = prior ∪ inserted is the pairwise intersection of the prior
// index's gaps with the gaps of a small index over just the inserted
// tuples.
type Appended struct {
	rel   *relation.Relation
	base  Index // over the prior version
	delta Index // over the inserted-tuples relation
}

// NewAppended builds the insert layer. rel must be the new snapshot,
// base an index over the prior version, delta an index over a relation
// holding exactly the inserted tuples (same schema); the inserted
// tuples must be disjoint from the prior version.
func NewAppended(rel *relation.Relation, base, delta Index) (*Appended, error) {
	if base.Relation().Arity() != rel.Arity() || delta.Relation().Arity() != rel.Arity() {
		return nil, fmt.Errorf("index: appended layer arity mismatch over %s", rel.Name())
	}
	return &Appended{rel: rel, base: base, delta: delta}, nil
}

// Relation implements Index.
func (a *Appended) Relation() *relation.Relation { return a.rel }

// Kind implements Index.
func (a *Appended) Kind() string {
	return "append(" + a.base.Kind() + "+" + a.delta.Kind() + ")"
}

// AllGaps implements Index: every non-empty pairwise meet of the two
// members' gap sets, deduplicated. Their union is comp(prior) ∩
// comp(inserted) = comp(rel), exactly.
func (a *Appended) AllGaps() []dyadic.Box {
	baseGaps := a.base.AllGaps()
	deltaGaps := a.delta.AllGaps()
	seen := boxtree.New(a.rel.Arity())
	var out []dyadic.Box
	for _, g := range baseGaps {
		for _, h := range deltaGaps {
			m, ok := g.Meet(h)
			if !ok {
				continue
			}
			if seen.Insert(m) {
				out = append(out, m)
			}
		}
	}
	return out
}

// appendedCursor intersects the two member probes. Both members return
// boxes containing the probe point, so per dimension the intervals are
// nested and every pairwise meet is non-empty and contains the point.
type appendedCursor struct {
	a          *Appended
	base       Cursor
	delta      Cursor
	arena      []dyadic.Interval // storage for result boxes, reused
	out        []dyadic.Box
	deltaBoxes []dyadic.Box // copy of the delta probe (its scratch dies on reuse)
}

// NewCursor implements Index.
func (a *Appended) NewCursor() Cursor {
	return &appendedCursor{
		a:     a,
		base:  a.base.NewCursor(),
		delta: a.delta.NewCursor(),
	}
}

// GapsAt implements Cursor: every pairwise meet, repeats included (two
// pairs can meet in the same box). Results are valid until the next call.
func (c *appendedCursor) GapsAt(point []uint64) []dyadic.Box {
	n := c.a.rel.Arity()
	c.out = c.out[:0]
	c.arena = c.arena[:0]
	// Probe the delta side first and copy its boxes into the arena: the
	// base probe below may share cursor scratch transitively (chained
	// layers probe the same underlying indexes), so the two result sets
	// must not alias.
	dg := c.delta.GapsAt(point)
	if len(dg) == 0 {
		return nil // point is an inserted tuple of rel
	}
	c.deltaBoxes = c.deltaBoxes[:0]
	for _, h := range dg {
		mark := len(c.arena)
		c.arena = append(c.arena, h...)
		c.deltaBoxes = append(c.deltaBoxes, dyadic.Box(c.arena[mark:mark+n]))
	}
	bg := c.base.GapsAt(point)
	if len(bg) == 0 {
		return nil // point is a prior tuple of rel
	}
	for _, g := range bg {
		for _, h := range c.deltaBoxes {
			mark := len(c.arena)
			c.arena = append(c.arena, g...)
			m := dyadic.Box(c.arena[mark : mark+n])
			for d := range m {
				// Both intervals contain the probe value: the meet is the
				// deeper (longer-prefix) of the two.
				if h[d].Contains(m[d]) {
					continue
				}
				m[d] = h[d]
			}
			c.out = append(c.out, m)
		}
	}
	return c.out
}

// LayerDepth reports how many delta layers an index stacks over its
// innermost full build: 0 for a directly built index, 1 + depth(base)
// for a layered one. Set.Derive uses it to cap chains.
func LayerDepth(ix Index) int {
	switch v := ix.(type) {
	case *Appended:
		return 1 + LayerDepth(v.base)
	case rebased:
		return LayerDepth(v.Index)
	case *Union:
		// A deleted layer is Union(rebase(base), tombstones); a plain
		// user-assembled Union of direct indexes reports 0.
		depth := 0
		for _, m := range v.indices {
			if d := LayerDepth(m); d > depth {
				depth = d
			}
		}
		if _, isLayer := v.indices[0].(rebased); isLayer {
			return 1 + depth
		}
		return depth
	default:
		return 0
	}
}
