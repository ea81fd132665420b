// Package core implements the Tetris join algorithm of the paper "Joins
// via Geometric Resolutions: Worst-case and Beyond" (PODS 2015): the
// recursive TetrisSkeleton (Algorithm 1), the outer Tetris loop
// (Algorithm 2) in its Preloaded and Reloaded instantiations, and the
// load-balanced variants of Section 4.5 (Algorithms 3 and 5), whose
// Balance lift (internal/lb) a run takes through Options.Space.
//
// The package operates on the abstract box cover problem (BCP,
// Definition 3.4): given oracle access to a set B of dyadic gap boxes,
// list every point of the output space not covered by any box of B.
// Database joins reduce to BCP by Proposition 3.6; package join performs
// that reduction.
package core

import (
	"fmt"

	"tetrisjoin/internal/dyadic"
)

// Resolve performs a general geometric resolution (Section 4.1) of two
// dyadic boxes. The boxes must satisfy the resolution precondition: there
// is a position ℓ where the components are siblings x0 and x1, and every
// other pair of components is comparable. The resolvent takes the common
// prefix x at position ℓ and the componentwise intersection elsewhere.
//
// Geometrically: w1 and w2 are adjacent halves in dimension ℓ, and the
// resolvent is the largest box covered by their union.
func Resolve(w1, w2 dyadic.Box) (dyadic.Box, error) {
	if len(w1) != len(w2) {
		return nil, fmt.Errorf("core: resolving boxes of different dimensions %d and %d", len(w1), len(w2))
	}
	pivot := -1
	for i := range w1 {
		a, b := w1[i], w2[i]
		if a.Comparable(b) {
			continue
		}
		// Not comparable: the only permitted configuration is siblings.
		if a.Len == b.Len && a.Len > 0 && a.Bits^b.Bits == 1 {
			if pivot != -1 {
				return nil, fmt.Errorf("core: boxes differ incomparably in dimensions %d and %d", pivot, i)
			}
			pivot = i
			continue
		}
		return nil, fmt.Errorf("core: dimension %d components %s and %s are neither comparable nor siblings", i, a, b)
	}
	if pivot == -1 {
		return nil, fmt.Errorf("core: no sibling dimension to resolve on (%s vs %s)", w1, w2)
	}
	out := make(dyadic.Box, len(w1))
	for i := range w1 {
		if i == pivot {
			out[i] = w1[i].Parent()
			continue
		}
		m, _ := w1[i].Meet(w2[i])
		out[i] = m
	}
	return out, nil
}

// IsOrderedResolution reports whether resolving w1 and w2 on dimension
// pivot is an ordered geometric resolution with respect to the splitting
// attribute order sao (Definition 4.3): both boxes are λ on every
// attribute after the pivot in SAO order.
func IsOrderedResolution(w1, w2 dyadic.Box, pivot int, sao []int) bool {
	seen := false
	for _, dim := range sao {
		if dim == pivot {
			seen = true
			continue
		}
		if seen && (!w1[dim].IsLambda() || !w2[dim].IsLambda()) {
			return false
		}
	}
	return seen
}

// resolveOrdered is the resolution step of TetrisSkeleton. The witnesses
// satisfy the invariant of Lemma C.1: w1[dim] and w2[dim] are exactly the
// two halves x0, x1 of the split component, every other pair of
// components is comparable, and components after dim in SAO order are λ.
// It panics if the invariant is violated, since that indicates a bug in
// the skeleton rather than bad input.
func resolveOrdered(w1, w2 dyadic.Box, dim int) dyadic.Box {
	out := make(dyadic.Box, len(w1))
	resolveOrderedInto(out, w1, w2, dim)
	return out
}

// resolveOrderedInto is resolveOrdered writing into caller-provided
// storage (the skeleton's scratch arena). out must not alias w1 or w2.
func resolveOrderedInto(out, w1, w2 dyadic.Box, dim int) {
	for i := range w1 {
		if i == dim {
			if w1[i].Len != w2[i].Len || w1[i].Len == 0 || w1[i].Bits^w2[i].Bits != 1 {
				panic(fmt.Sprintf("core: resolveOrdered pivot components %s, %s are not siblings", w1[i], w2[i]))
			}
			out[i] = w1[i].Parent()
			continue
		}
		m, ok := w1[i].Meet(w2[i])
		if !ok {
			panic(fmt.Sprintf("core: resolveOrdered components %s, %s at dim %d are incomparable", w1[i], w2[i], i))
		}
		out[i] = m
	}
}
