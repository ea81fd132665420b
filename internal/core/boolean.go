package core

import (
	"fmt"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// CoverReport is the outcome of a Boolean box cover query
// (Definition 3.5).
type CoverReport struct {
	// Covered is true when the union of the boxes is the whole space.
	Covered bool
	// Witness is, when Covered, a box containing the whole space that is
	// covered by the input union; when not Covered, a unit box (point)
	// not covered by any input box.
	Witness dyadic.Box
	// Stats reports the work performed.
	Stats Stats
}

// Covers solves the Boolean box cover problem: does the union of boxes
// cover the entire output space ⟨λ,…,λ⟩? This is TetrisSkeleton invoked
// once with the boxes preloaded into its base; it also solves Klee's measure
// problem over the Boolean semiring (Corollary F.8).
func Covers(depths []uint8, boxes []dyadic.Box, opts Options) (*CoverReport, error) {
	return CoversTarget(depths, boxes, dyadic.Universe(len(depths)), opts)
}

// CoversTarget reports whether the union of boxes covers the given target
// box: (*PreparedBase).Covers over a base built from the boxes.
func CoversTarget(depths []uint8, boxes []dyadic.Box, target dyadic.Box, opts Options) (*CoverReport, error) {
	base, err := newBase(depths, boxes, opts, boxtree.New)
	if err != nil {
		return nil, err
	}
	return base.Covers(target, opts)
}

// Covers reports whether the union of the base's boxes covers the given
// target box: the general Boolean sub-problem solved by TetrisSkeleton,
// invoked once on the target. opts applies as to Count. The witness
// aliases the base's tree or the run's own, so neither goes back to a pool.
func (b *PreparedBase) Covers(target dyadic.Box, opts Options) (*CoverReport, error) {
	if err := target.Check(b.depths); err != nil {
		return nil, fmt.Errorf("core: invalid target box %v: %w", target, err)
	}
	rep := &CoverReport{}
	sk := b.skeleton(opts, &rep.Stats)
	v, w, err := sk.root(target)
	if err != nil {
		return nil, err
	}
	rep.Covered = v
	rep.Witness = w
	rep.Stats.KnowledgeBase = sk.kb.Len() + sk.base.Len()
	return rep, nil
}
