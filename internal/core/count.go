package core

import (
	"math/big"

	"tetrisjoin/internal/dyadic"
)

// CountReport is the outcome of a counting run.
type CountReport struct {
	// Uncovered is the exact number of points not covered by any box.
	Uncovered *big.Int
	// Stats reports the work performed: the skeleton's splits, cover
	// hits and resolutions, with Outputs the uncovered unit boxes reached
	// one by one (the rest were counted a whole frame at a time).
	Stats Stats
}

// CountUncovered returns the exact number of points of the space not
// covered by any of the boxes — without enumerating them. This is the
// counting variant of TetrisSkeleton that Section 4.2.4 alludes to ("it
// is for #SAT"): one pass of the skeleton over the preloaded boxes that
// counts each uncovered unit box as 1 and each frame no stored box meets
// as its whole volume, then hands either up as its own witness. So a
// sub-space with 2^50 uncovered points costs one probe rather than 2^50
// outputs, and the pass resolves and caches like any other: a frame
// inside a cached resolvent holds nothing left to count. Counts are
// exact big integers.
//
// Every frame is bisected (no line walk). SAO, NoCache, MaxResolutions,
// Budget and Context apply as to any run; nothing else in opts does.
//
// Combined with package sat this is a #SAT counter; as SpaceSize −
// CountUncovered it solves the counting version of Klee's measure problem
// in any dimension.
func CountUncovered(depths []uint8, boxes []dyadic.Box, opts Options) (*CountReport, error) {
	base, err := newBase(depths, boxes, opts, getTree)
	if err != nil {
		return nil, err
	}
	defer putTree(base.tree)
	return base.Count(opts)
}

// Count is CountUncovered over the base's boxes, in the SAO the base was
// built in (opts.SAO is not read). It only reads the base, so any number
// of counts, covers and runs may probe one base at once.
func (b *PreparedBase) Count(opts Options) (*CountReport, error) {
	rep := &CountReport{Uncovered: new(big.Int)}
	sk := b.skeleton(opts, &rep.Stats)
	// No witness leaves the run, so its tree goes back to the pool.
	defer putTree(sk.kb)
	sk.walk = nil
	one, volume := big.NewInt(1), new(big.Int)
	sk.settleUnit = func(b dyadic.Box) (dyadic.Box, error) {
		rep.Stats.Outputs++
		rep.Uncovered.Add(rep.Uncovered, one)
		return b, nil
	}
	// Every kb box is a resolvent, inside the union of the base's boxes,
	// so the base alone tells whether a frame meets a stored box.
	sk.settleFrame = func(f dyadic.Box) bool {
		if sk.base.IntersectsAny(f) {
			return false
		}
		rep.Uncovered.Add(rep.Uncovered, volume.Lsh(one, uint(f.LogVolume(b.depths))))
		return true
	}
	if _, _, err := sk.root(dyadic.Universe(len(b.depths))); err != nil {
		return nil, err
	}
	rep.Stats.KnowledgeBase = sk.kb.Len() + sk.base.Len()
	return rep, nil
}
