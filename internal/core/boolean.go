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
// box: the general Boolean sub-problem solved by TetrisSkeleton, invoked
// once on the target. The witness aliases the run's trees or arena, so
// none of them goes back to a pool.
func CoversTarget(depths []uint8, boxes []dyadic.Box, target dyadic.Box, opts Options) (*CoverReport, error) {
	rep := &CoverReport{}
	sk, err := preloadedSkeleton(depths, boxes, opts, &rep.Stats, boxtree.New)
	if err != nil {
		return nil, err
	}
	if err := target.Check(depths); err != nil {
		return nil, fmt.Errorf("core: invalid target box %v: %w", target, err)
	}
	v, w, err := sk.root(target)
	if err != nil {
		return nil, err
	}
	rep.Covered = v
	rep.Witness = w
	rep.Stats.KnowledgeBase = sk.kb.Len() + sk.base.Len()
	return rep, nil
}

// preloadedSkeleton is the skeleton of one root call over the given space
// with every box in its read-only base, a tree newTree makes: the Boolean
// and counting variants.
func preloadedSkeleton(depths []uint8, boxes []dyadic.Box, opts Options, stats *Stats, newTree func(int) *boxtree.Tree) (*skeleton, error) {
	n := len(depths)
	if err := checkDepths(depths); err != nil {
		return nil, err
	}
	sao, err := checkSAO(opts.SAO, n)
	if err != nil {
		return nil, err
	}
	base := newTree(n)
	base.SetOrder(sao)
	for _, b := range boxes {
		if err := b.Check(depths); err != nil {
			return nil, fmt.Errorf("core: invalid box %v: %w", b, err)
		}
		base.InsertSubsuming(b)
	}
	sk := newSkeleton(n, depths, sao, opts, stats)
	sk.base = base
	return sk, nil
}
