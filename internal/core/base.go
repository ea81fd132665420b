package core

import (
	"fmt"
	"slices"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// PreparedBase is a prebuilt shared knowledge base for Preloaded runs:
// the oracle's full gap set inserted once (with subsumption unless the
// build options disabled it) into a read-only boxtree. The skeleton
// never writes to it — learned resolvents go to per-run private trees —
// so one PreparedBase can serve any number of sequential or sharded
// executions concurrently. Prepared plans build it on first Preloaded
// execution and reuse it afterwards, removing the gap-set re-insertion
// from the repeated-execution hot path; RunShards has always shared an
// equivalent base across the shards of a single run, this type extends
// that sharing across runs.
type PreparedBase struct {
	tree    *boxtree.Tree
	loaded  int64 // distinct gap boxes inserted (the BoxesLoaded charge)
	n       int
	subsume bool // built with subsumption (the default)
}

// BuildPreloadedBase loads the oracle's full gap set into a fresh shared
// base. Two build options matter: SAO is the level order of the base's
// tree, which must be the SAO of every run the base is handed to (the
// skeleton walks both its trees in that order), and DisableSubsume selects
// plain insertion. Everything else is ignored.
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
	insert := func(b dyadic.Box) { insertBox(tree, b, !opts.DisableSubsume, false) }
	loaded, err := loadGapSet(o, nil, boxtree.New(n), insert)
	if err != nil {
		return nil, err
	}
	return &PreparedBase{tree: tree, loaded: loaded, n: n, subsume: !opts.DisableSubsume}, nil
}

// Loaded returns the number of distinct gap boxes the base was built
// from (what a fresh Preloaded run would report as BoxesLoaded).
func (b *PreparedBase) Loaded() int64 { return b.loaded }

// Len returns the number of boxes the base currently holds (after
// subsumption).
func (b *PreparedBase) Len() int { return b.tree.Len() }

// preparedBase resolves the shared base a plain run should use: nil
// unless the options carry one and the mode is plain Preloaded or
// Reloaded. Under Preloaded the base stands in for the full gap-set
// load; under Reloaded it is prior knowledge — boxes already known to
// contain no output — consulted read-only while the run still loads
// lazily from the oracle. A base built under a different subsumption
// setting, dimensionality or SAO (sao is the run's, checked) is a misuse,
// not a silent fallback.
func (o Options) preparedBase(n int, sao []int) (*boxtree.Tree, int64, error) {
	if o.Base == nil || !o.Mode.Plain() {
		return nil, 0, nil
	}
	if o.Base.n != n {
		return nil, 0, fmt.Errorf("core: prepared base has %d dimensions, run has %d", o.Base.n, n)
	}
	if o.Base.subsume == o.DisableSubsume {
		return nil, 0, fmt.Errorf("core: prepared base subsumption setting does not match the run's (base subsume=%v, DisableSubsume=%v)", o.Base.subsume, o.DisableSubsume)
	}
	if order := o.Base.tree.Order(); !slices.Equal(order, sao) {
		return nil, 0, fmt.Errorf("core: prepared base was built for SAO %v, run has SAO %v", order, sao)
	}
	return o.Base.tree, o.Base.loaded, nil
}
