package core

import (
	"fmt"
	"slices"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// PreparedBase is a prebuilt shared knowledge base for Preloaded runs:
// the oracle's full gap set inserted once, with subsumption, into a
// read-only boxtree. The skeleton never writes to it — learned resolvents
// go to per-run private trees — so one PreparedBase can serve any number of sequential or sharded
// executions concurrently. Prepared plans build it on first Preloaded
// execution and reuse it afterwards, removing the gap-set re-insertion
// from the repeated-execution hot path; RunShards has always shared an
// equivalent base across the shards of a single run, this type extends
// that sharing across runs.
type PreparedBase struct {
	tree   *boxtree.Tree
	loaded int64 // distinct gap boxes inserted (the BoxesLoaded charge)
	n      int
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
	tree := boxtree.New(n)
	tree.SetOrder(sao)
	loaded, err := loadGapSet(o, nil, func(b dyadic.Box) { tree.InsertSubsuming(b) })
	if err != nil {
		return nil, err
	}
	return &PreparedBase{tree: tree, loaded: loaded, n: n}, nil
}

// Len returns the number of boxes the base currently holds (after
// subsumption).
func (b *PreparedBase) Len() int { return b.tree.Len() }

// preparedBase resolves the shared base a plain run should use: nil
// unless the options carry one and the mode is plain Preloaded or
// Reloaded. Under Preloaded the base stands in for the full gap-set
// load; under Reloaded it is prior knowledge — boxes already known to
// contain no output — consulted read-only while the run still loads
// lazily from the oracle. A base built for a different dimensionality or
// SAO (sao is the run's, checked) is a misuse, not a silent fallback.
func (o Options) preparedBase(n int, sao []int) (*boxtree.Tree, int64, error) {
	if o.Base == nil || !o.Mode.Plain() {
		return nil, 0, nil
	}
	if o.Base.n != n {
		return nil, 0, fmt.Errorf("core: prepared base has %d dimensions, run has %d", o.Base.n, n)
	}
	if order := o.Base.tree.Order(); !slices.Equal(order, sao) {
		return nil, 0, fmt.Errorf("core: prepared base was built for SAO %v, run has SAO %v", order, sao)
	}
	return o.Base.tree, o.Base.loaded, nil
}
