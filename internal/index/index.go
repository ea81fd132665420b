// Package index implements the database indices of the Tetris paper as
// gap box generators. The paper's central abstraction (Section 3.2,
// Appendix B) is that every index over a relation R is a collection B(R)
// of dyadic gap boxes — regions of R's attribute space certified to
// contain no tuple — together with an Õ(1)-time oracle returning the
// maximal gap boxes containing a probe point.
//
// Four index families are provided:
//
//   - Sorted: a B-tree/trie in a chosen attribute order; its gaps are the
//     GAO-consistent boxes of Definition 3.11 (Figures 1b, 3a, 12).
//   - Dyadic: a dyadic tree (quadtree-like) subdivision; its gaps are the
//     large multidimensional boxes of Figure 3b that B-trees cannot
//     produce (Example B.8).
//   - KDTree: median-split cells whose empty space is decomposed into
//     dyadic boxes ("multidimensional index structures like KD-trees").
//   - Union: several indices over the same relation pooled together
//     (Section B.2: multiple indices per relation).
//
// # Concurrency model
//
// An Index is immutable once built: every method on it only reads the
// structure, so one index can be shared by any number of goroutines.
// The probe scratch that makes GapsAt allocation-free lives in a Cursor,
// obtained per worker via NewCursor: cursors over the same index are
// independent, and each cursor must be confined to one goroutine at a
// time. AllGaps allocates fresh storage per call and is likewise safe to
// call concurrently.
package index

import (
	"fmt"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/relation"
)

// Index is a gap box generator over a relation's own attribute space.
// Boxes and probe points use the relation's schema order. Indices are
// immutable after construction and safe for concurrent use; per-worker
// probe state lives in Cursors.
type Index interface {
	// Relation returns the indexed relation.
	Relation() *relation.Relation
	// Kind describes the index family and parameters, e.g. "btree(B,A)".
	Kind() string
	// NewCursor returns a fresh prober over the index. Each cursor owns
	// its probe scratch: use one cursor per worker goroutine.
	NewCursor() Cursor
	// AllGaps enumerates the index's complete gap box set; their union is
	// exactly the complement of the relation within its attribute space.
	// The result is caller-owned, stays valid, and the call is safe to
	// make concurrently (it only reads the index).
	AllGaps() []dyadic.Box
}

// Cursor probes an index for the gap boxes around a point. A cursor owns
// the mutable scratch of the probe path (the index itself stays
// read-only), so cursors over a shared index may run in parallel while a
// single cursor must not be used from two goroutines at once.
type Cursor interface {
	// GapsAt returns maximal dyadic gap boxes containing the probe point.
	// The result is empty exactly when the point is a tuple of the
	// relation (no gap can contain it). It may repeat a box: the engine's
	// knowledge-base insert absorbs repeats, so layered indices do not pay
	// to remove them. The returned slice and box storage are cursor
	// scratch: the result is valid only until the next GapsAt call on the
	// same cursor.
	GapsAt(point []uint64) []dyadic.Box
}

// Union pools several indices over the same relation; its gap set is the
// union of theirs. This realizes the paper's multiple-indices-per-
// relation setting, under which box certificates can be far smaller than
// under any single index (Proposition B.6).
type Union struct {
	rel     *relation.Relation
	indices []Index
}

// NewUnion combines indices over a common relation.
func NewUnion(indices ...Index) (*Union, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("index: Union needs at least one index")
	}
	rel := indices[0].Relation()
	for _, ix := range indices[1:] {
		if ix.Relation() != rel {
			return nil, fmt.Errorf("index: Union indices cover different relations")
		}
	}
	return &Union{rel: rel, indices: indices}, nil
}

// Relation implements Index.
func (u *Union) Relation() *relation.Relation { return u.rel }

// Kind implements Index.
func (u *Union) Kind() string {
	s := "union("
	for i, ix := range u.indices {
		if i > 0 {
			s += ","
		}
		s += ix.Kind()
	}
	return s + ")"
}

// unionCursor concatenates the member cursors' probe results. A box that
// several members contribute is repeated, as GapsAt allows.
type unionCursor struct {
	cursors []Cursor
	out     []dyadic.Box // result buffer, reused
}

// NewCursor implements Index.
func (u *Union) NewCursor() Cursor {
	c := &unionCursor{cursors: make([]Cursor, len(u.indices))}
	for i, ix := range u.indices {
		c.cursors[i] = ix.NewCursor()
	}
	return c
}

// GapsAt implements Cursor. The result (whose boxes may alias member
// cursor scratch) is valid until the next call.
func (c *unionCursor) GapsAt(point []uint64) []dyadic.Box {
	c.out = c.out[:0]
	for _, cur := range c.cursors {
		c.out = append(c.out, cur.GapsAt(point)...)
	}
	return c.out
}

// AllGaps implements Index.
func (u *Union) AllGaps() []dyadic.Box {
	var out []dyadic.Box
	seen := boxtree.New(u.rel.Arity())
	for _, ix := range u.indices {
		for _, b := range ix.AllGaps() {
			if seen.Insert(b) {
				out = append(out, b)
			}
		}
	}
	return out
}

func checkPoint(rel *relation.Relation, point []uint64) {
	if len(point) != rel.Arity() {
		panic(fmt.Sprintf("index: probe point arity %d, relation %s has %d", len(point), rel.Name(), rel.Arity()))
	}
	for i, v := range point {
		d := rel.Depths()[i]
		if d < 64 && v >= 1<<d {
			panic(fmt.Sprintf("index: probe value %d out of domain of %s attribute %d", v, rel.Name(), i))
		}
	}
}
