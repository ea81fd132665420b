package core

import (
	"fmt"
	"slices"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// PreparedBase is a read-only knowledge base holding a gap set B, inserted
// once with subsumption: the one place a Preloaded run, a count and a
// cover keep their input. The skeleton never writes to it (what a run
// learns goes to its private tree), so one base serves any number of runs,
// counts and covers at once. A Preloaded run handed none builds its own
// (runBase); a prepared plan builds one once and hands it to every
// execution, count and cover.
type PreparedBase struct {
	tree   *boxtree.Tree
	depths []uint8
	loaded int64 // gap boxes inserted (the BoxesLoaded charge)
}

// BuildPreloadedBase loads the oracle's full gap set into a fresh shared
// base. One build option matters: SAO is the level order of the base's
// tree, which must be the SAO of every run the base is handed to (the
// skeleton walks both its trees in that order). Everything else is
// ignored.
func BuildPreloadedBase(o Oracle, opts Options) (*PreparedBase, error) {
	return newBase(o.Depths(), o.AllGaps(), opts, boxtree.New)
}

// newBase is a base over the given boxes in a tree newTree makes, levelled
// in opts.SAO.
func newBase(depths []uint8, boxes []dyadic.Box, opts Options, newTree func(int) *boxtree.Tree) (*PreparedBase, error) {
	if err := checkDepths(depths); err != nil {
		return nil, err
	}
	sao, err := checkSAO(opts.SAO, len(depths))
	if err != nil {
		return nil, err
	}
	return buildBase(depths, sao, boxes, newTree(len(depths)))
}

// buildBase is the one builder of a base: it checks each box and inserts
// it into the empty tree, levelled in the SAO. An oracle's AllGaps lists
// each box once, so the boxes are the distinct gaps loaded.
func buildBase(depths []uint8, sao []int, boxes []dyadic.Box, tree *boxtree.Tree) (*PreparedBase, error) {
	if err := checkGaps(depths, boxes); err != nil {
		return nil, err
	}
	tree.SetOrder(sao)
	for _, b := range boxes {
		tree.InsertSubsuming(b)
	}
	return &PreparedBase{tree: tree, depths: depths, loaded: int64(len(boxes))}, nil
}

// checkGaps refuses a gap set holding a box outside the space.
func checkGaps(depths []uint8, gaps []dyadic.Box) error {
	for _, b := range gaps {
		if err := b.Check(depths); err != nil {
			return fmt.Errorf("core: invalid gap box %v: %w", b, err)
		}
	}
	return nil
}

// runBase returns the base a plain run probes: Options.Base, or for a
// Preloaded run without one the oracle's gap set in a pooled tree, which
// release hands back. A base built for a different dimensionality or SAO
// (sao is the run's, checked) is a misuse, not a silent fallback.
func (o Options) runBase(or Oracle, sao []int) (*PreparedBase, error) {
	switch n := or.Dims(); {
	case o.Base != nil:
		if d := o.Base.tree.Dims(); d != n {
			return nil, fmt.Errorf("core: prepared base has %d dimensions, run has %d", d, n)
		}
		if order := o.Base.tree.Order(); !slices.Equal(order, sao) {
			return nil, fmt.Errorf("core: prepared base was built for SAO %v, run has SAO %v", order, sao)
		}
		return o.Base, nil
	case o.Mode == Preloaded:
		return buildBase(or.Depths(), sao, or.AllGaps(), getTree(n))
	}
	return nil, nil
}

// skeleton is the skeleton of one root call over the base's space, in the
// SAO the base was built in, with the base as its read-only input: the
// Boolean and counting variants.
func (b *PreparedBase) skeleton(opts Options, stats *Stats) *skeleton {
	sk := newSkeleton(len(b.depths), b.depths, b.tree.Order(), opts, stats)
	sk.base = b.tree
	return sk
}

// release pools the tree of a base that runBase built for this run alone.
func (o Options) release(b *PreparedBase) {
	if b != nil && b != o.Base {
		putTree(b.tree)
	}
}

// charge adds a Preloaded run's base to its stats once, however many
// fragments probed it: the distinct gap boxes loaded and the boxes held. A
// Reloaded run's base is prior knowledge paid for by whoever built it.
func (b *PreparedBase) charge(mode Mode, s *Stats) {
	if b != nil && mode == Preloaded {
		s.BoxesLoaded += b.loaded
		s.KnowledgeBase += b.tree.Len()
	}
}
