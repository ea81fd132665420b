package join

import (
	"sync"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/relation"
)

// IndexSource supplies the per-atom indexes a plan probes. IndexFor
// returns an index over rel matching the given spec — for the B-tree
// family, one whose gap boxes suit the spec's attribute order (the
// GAO-consistency requirement); the dyadic and k-d families are
// order-free — and reports whether the call had to construct a new
// index: the charge behind Stats.IndexBuilds.
//
// Two implementations exist: the self-contained builder used by NewPlan
// (fresh indexes per plan, deduplicated within the plan so self-joins
// sharing a spec share one index) and the catalog's registry-backed
// source, which reuses indexes across queries and relation versions so
// prepared executions build nothing at all.
type IndexSource interface {
	IndexFor(rel *relation.Relation, spec index.Spec) (ix index.Index, built bool, err error)
}

// builderKey identifies one (relation instance, spec) index within a
// self-contained plan preparation.
type builderKey struct {
	rel  *relation.Relation
	spec string
}

// indexBuilder is the self-contained IndexSource: it builds one index
// per distinct (relation, spec) pair and caches it for the duration of
// one preparation, so a query referencing the same relation with the
// same needed spec twice — a self-join under an SAO that ranks both
// atoms' variables alike — builds one index, not two.
type indexBuilder struct {
	cache map[builderKey]index.Index
}

// NewIndexBuilder returns the default self-contained index source.
func NewIndexBuilder() IndexSource {
	return &indexBuilder{cache: map[builderKey]index.Index{}}
}

func (b *indexBuilder) IndexFor(rel *relation.Relation, spec index.Spec) (index.Index, bool, error) {
	key := builderKey{rel: rel, spec: spec.Key()}
	if ix, ok := b.cache[key]; ok {
		return ix, false, nil
	}
	ix, err := spec.Build(rel)
	if err != nil {
		return nil, false, err
	}
	b.cache[key] = ix
	return ix, true, nil
}

// Plan is the prepared, immutable form of a query: the splitting
// attribute order has been chosen, per-atom indices built (or validated)
// and the variable bindings resolved. A Plan is safe to share between
// goroutines and to execute many times — Oracles instantiated from it are
// cheap per-worker probers over the shared index structures, which is
// what lets one prepared query serve many concurrent executions without
// rebuilding its indices.
type Plan struct {
	q        *Query
	decision *Decision
	sao      []int
	saoVars  []string
	indices  []index.Index
	bindings []atomBinding
	maxArity int
	builds   int64 // indexes constructed during preparation

	// The shared Preloaded knowledge base — the gap set B(Q) inserted into
	// a read-only boxtree, the only form in which the plan keeps it — is
	// built at most once, by the first SharedBase execution, count or
	// cover, and reused by every later one.
	baseOnce sync.Once
	base     *core.PreparedBase
	baseErr  error
}

// NewPlan prepares a query for execution: SAO choice (opts.SAOVars or
// opts.Strategy), index build and binding resolution. The returned plan
// ignores the execution-time fields of opts (mode, limits, callbacks);
// those are supplied per Execute call. Indexes are built fresh, one per
// distinct (relation, attribute order) pair; long-lived callers that
// want index construction amortized across queries prepare through a
// catalog instead (PreparePlan with the catalog's IndexSource).
func NewPlan(q *Query, opts Options) (*Plan, error) {
	return PreparePlan(q, opts, NewIndexBuilder())
}

// PreparePlan is NewPlan with an explicit index source: the catalog-
// backed preparation path. No index is constructed beyond what the
// source decides to build; the plan records how many constructions the
// preparation caused (Plan.IndexBuilds), and executions of the returned
// plan never build — the hot path is free of index construction by
// construction.
func PreparePlan(q *Query, opts Options, src IndexSource) (*Plan, error) {
	d, err := Decide(q, opts)
	if err != nil {
		return nil, err
	}
	indices, builds, err := buildIndices(q, d, src)
	if err != nil {
		return nil, err
	}
	p := &Plan{q: q, decision: d, sao: d.sao, saoVars: d.SAOVars, indices: indices, builds: builds}
	for ai, a := range q.atoms {
		relPos := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			relPos[i] = q.varPos[v]
		}
		if len(relPos) > p.maxArity {
			p.maxArity = len(relPos)
		}
		p.bindings = append(p.bindings, atomBinding{ix: indices[ai], relPos: relPos})
	}
	return p, nil
}

// Query returns the planned query.
func (p *Plan) Query() *Query { return p.q }

// SAOVars returns the chosen splitting attribute order as variable names.
func (p *Plan) SAOVars() []string { return p.saoVars }

// SAO returns the chosen splitting attribute order as variable positions.
func (p *Plan) SAO() []int { return p.sao }

// Decision returns the planning decision the plan was prepared under.
func (p *Plan) Decision() *Decision { return p.decision }

// Indices returns the per-atom indices the plan probes. Atoms may share
// an entry (self-joins over one attribute order share one index).
func (p *Plan) Indices() []index.Index { return p.indices }

// IndexBuilds returns the number of indexes constructed while preparing
// this plan: 0 when every index came from a warm source (the catalog's
// registry), the distinct (relation, order) count when built fresh.
func (p *Plan) IndexBuilds() int64 { return p.builds }

// AllGaps returns the query's full gap box set B(Q), computed afresh on
// each call and owned by the caller. The plan keeps B(Q) only in its
// base (PreloadedBase).
func (p *Plan) AllGaps() []dyadic.Box {
	return allGaps(len(p.q.Depths()), p.bindings)
}

// PreloadedBase returns the plan's shared Preloaded knowledge base,
// built on first use from B(Q) and reused read-only by every later
// Preloaded execution, count and cover.
func (p *Plan) PreloadedBase() (*core.PreparedBase, error) {
	p.baseOnce.Do(func() {
		p.base, p.baseErr = core.BuildPreloadedBase(p.NewOracle(), core.Options{Mode: core.Preloaded, SAO: p.sao})
	})
	return p.base, p.baseErr
}

// NewOracle instantiates a per-worker oracle over the plan: fresh index
// cursors and probe scratch over the shared immutable indices. Each
// oracle must be confined to one goroutine at a time.
func (p *Plan) NewOracle() *Oracle {
	return newOracle(p.q.Depths(), p.bindings, p.maxArity)
}
