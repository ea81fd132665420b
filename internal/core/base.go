package core

import (
	"fmt"
	"slices"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// PreparedBase is a read-only knowledge base holding the oracle's full
// gap set B, inserted once with subsumption: the one place a Preloaded run
// keeps its input. The skeleton never writes to it (what a run learns goes
// to its private tree), so one base serves any number of runs at once. A
// Preloaded run handed none builds its own (runBase); a prepared plan
// builds one once and hands it to every execution.
type PreparedBase struct {
	tree   *boxtree.Tree
	loaded int64 // distinct gap boxes inserted (the BoxesLoaded charge)
}

// BuildPreloadedBase loads the oracle's full gap set into a fresh shared
// base. One build option matters: SAO is the level order of the base's
// tree, which must be the SAO of every run the base is handed to (the
// skeleton walks both its trees in that order). Everything else is
// ignored.
func BuildPreloadedBase(o Oracle, opts Options) (*PreparedBase, error) {
	n, err := validateOracle(o)
	if err != nil {
		return nil, err
	}
	sao, err := checkSAO(opts.SAO, n)
	if err != nil {
		return nil, err
	}
	return buildBase(o, sao, boxtree.New(n))
}

// buildBase loads the oracle's gap set into the empty tree, levelled in
// the SAO.
func buildBase(o Oracle, sao []int, tree *boxtree.Tree) (*PreparedBase, error) {
	tree.SetOrder(sao)
	loaded, err := loadGapSet(o, func(b dyadic.Box) { tree.InsertSubsuming(b) })
	if err != nil {
		return nil, err
	}
	return &PreparedBase{tree: tree, loaded: loaded}, nil
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
		return buildBase(or, sao, getTree(n))
	}
	return nil, nil
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
