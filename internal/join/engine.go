package join

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sort"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/index"
)

// SAOStrategy selects how the splitting attribute order is derived from
// the query when not given explicitly.
type SAOStrategy int

const (
	// SAOAuto follows the paper's prescriptions for α-acyclic queries
	// (the reverse of a GYO elimination order, Theorem D.8) and hands
	// cyclic queries — where the paper leaves order selection open and
	// the data decides — to the statistics-driven planner
	// (internal/planner), which keeps the classical
	// minimum-induced-width elimination order unless relation statistics
	// argue for a better one.
	SAOAuto SAOStrategy = iota
	// SAONatural uses the variables' first-occurrence order.
	SAONatural
	// SAOPlanned invokes the statistics-driven planner unconditionally,
	// acyclic queries included.
	SAOPlanned
)

// Options configures query execution.
type Options struct {
	// Mode selects the Tetris variant (default core.Reloaded).
	Mode core.Mode
	// Space is forwarded to the core engine (core.Options.Space): the LB
	// modes need it, the plain ones refuse it.
	Space func(mode core.Mode, depths []uint8, gaps []dyadic.Box) (core.Space, error)
	// SAOVars, when non-empty, fixes the splitting attribute order by
	// variable name (a permutation of the query's variables).
	SAOVars []string
	// Strategy picks the automatic SAO derivation when SAOVars is empty.
	Strategy SAOStrategy
	// Decision, when non-nil, is a pre-resolved planning decision (from
	// Decide) used verbatim by plan preparation: no strategy dispatch,
	// no planner run. The catalog resolves decisions once per prepare
	// and hands them down through this field.
	Decision *Decision
	// Parallelism is the number of worker goroutines of the
	// work-stealing executor (core.RunShards) running the query. 0 means
	// runtime.GOMAXPROCS(0) — except when MaxOutput, MaxResolutions or
	// OnOutput is set, where 0 means sequential so that limits keep
	// machine-independent semantics and streaming keeps O(1) tuple memory
	// and prompt early stops. 1 selects the sequential engine. The LB
	// modes always run sequentially. Parallel execution is deterministic:
	// Result.Tuples come in fragment-key, SAO-lexicographic order, which
	// is exactly the sequential enumeration order — only runs with an
	// explicit Parallelism > 1 AND MaxOutput (or stopped early via
	// OnOutput) may differ from a sequential run in which tuples (never
	// in what order) they report.
	Parallelism int
	// Context, if non-nil, cancels execution cooperatively; the run
	// returns the context's error.
	Context context.Context
	// Budget, when non-nil, replaces MaxResolutions/MaxOutput with a
	// work quota shared across several executions: a serving session
	// hands the same budget to every query it runs so the limits cap the
	// session's combined work, not each call's. Forwarded to the core
	// engine (core.Options.Budget).
	Budget *core.Budget
	// SharedBase memoizes a Preloaded execution's base — the read-only
	// knowledge base holding the full gap set — on the plan
	// (Plan.PreloadedBase): the first such execution builds it and every
	// later one reuses it, the amortization that makes repeated
	// executions of one prepared plan cheap. Catalog-prepared executions
	// set it. Without it the engine loads the gap set into a pooled base
	// of the run's own; the run reports the same work either way.
	// Ignored outside Preloaded mode.
	SharedBase bool
	// NoCache, MaxResolutions, MaxOutput and OnOutput are forwarded to
	// the core engine; see core.Options. With Parallelism > 1,
	// MaxResolutions and MaxOutput act as budgets shared across shards.
	NoCache        bool
	MaxResolutions int64
	MaxOutput      int
	// OnOutput, if non-nil, streams output tuples as they become
	// available; returning false stops the enumeration. It is never
	// invoked concurrently: parallel runs serialize the callback through
	// the merging goroutine, delivering each shard's tuples in
	// deterministic shard-major order as the shard completes (tuples of a
	// shard are therefore buffered until the shard finishes). The tuple
	// slice is reused; callers must copy it to retain it.
	OnOutput func(tuple []uint64) bool
}

// Result is the outcome of a join: tuples over Vars (in Vars order), the
// SAO that was used, and the core work statistics.
type Result struct {
	Vars   []string
	SAO    []string
	Tuples [][]uint64
	Stats  core.Stats
}

// ChooseSAO returns the splitting attribute order (as variable positions)
// that Execute would use for the query under the given options. It is
// the order half of Decide; callers wanting the index families or the
// planner's reasoning use Decide directly.
func ChooseSAO(q *Query, opts Options) ([]int, error) {
	d, err := Decide(q, opts)
	if err != nil {
		return nil, err
	}
	return d.SAO(), nil
}

// SAOIndexOrder returns the attribute order (names of the atom's
// relation) a default index for the atom must use to stay consistent
// with the SAO: the relation's attributes sorted by the SAO rank of the
// variables they bind. This is the lookup key the catalog's registry
// resolves ad-hoc orders with.
func SAOIndexOrder(q *Query, a Atom, sao []int) []string {
	saoRank := make([]int, len(q.vars))
	for r, pos := range sao {
		saoRank[pos] = r
	}
	schema := a.Relation.Attrs()
	rank := make([]int, len(schema))
	perm := make([]int, len(schema))
	for i := range schema {
		rank[i] = saoRank[q.varPos[a.Vars[i]]]
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool { return rank[perm[x]] < rank[perm[y]] })
	attrs := make([]string, len(schema))
	for i, pos := range perm {
		attrs[i] = schema[pos]
	}
	return attrs
}

// buildIndices resolves one index per atom through the given source,
// following the decision's per-atom family choices, returning how many
// indexes the source had to construct.
func buildIndices(q *Query, d *Decision, src IndexSource) ([]index.Index, int64, error) {
	out := make([]index.Index, len(q.atoms))
	var builds int64
	for ai, a := range q.atoms {
		if len(a.Indexes) == 1 {
			out[ai] = a.Indexes[0]
			continue
		}
		if len(a.Indexes) > 1 {
			u, err := index.NewUnion(a.Indexes...)
			if err != nil {
				return nil, 0, err
			}
			out[ai] = u
			continue
		}
		ix, built, err := src.IndexFor(a.Relation, atomSpec(q, a, d, ai))
		if err != nil {
			return nil, 0, err
		}
		if built {
			builds++
		}
		out[ai] = ix
	}
	return out, builds, nil
}

// Count returns the exact number of output tuples of the query without
// materializing them, via the counting variant of Tetris (the #SAT-style skeleton
// over the preloaded gap box set). For queries whose
// output is enormous this is exponentially cheaper than Execute.
func Count(q *Query, opts Options) (*big.Int, core.Stats, error) {
	p, err := NewPlan(q, opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	count, stats, err := p.Count(opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	stats.IndexBuilds = p.builds
	return count, stats, nil
}

// Count runs the counting variant over the prepared plan's base
// (PreloadedBase), which the first count, cover or Preloaded execution
// builds; no index is built. opts.Context cancels the count
// cooperatively, its resolutions charge opts.Budget (or MaxResolutions)
// and opts.NoCache turns off its resolvent cache, as in any other run.
func (p *Plan) Count(opts Options) (*big.Int, core.Stats, error) {
	base, err := p.PreloadedBase()
	if err != nil {
		return nil, core.Stats{}, err
	}
	rep, err := base.Count(p.probeOptions(opts))
	if err != nil {
		return nil, core.Stats{}, err
	}
	return rep.Uncovered, rep.Stats, nil
}

// Covers runs the Boolean variant over the prepared plan's base: whether
// the query's gap set covers the whole space (empty join output), with a
// witness output tuple when it does not. opts applies as to Count.
func (p *Plan) Covers(opts Options) (*core.CoverReport, error) {
	base, err := p.PreloadedBase()
	if err != nil {
		return nil, err
	}
	return base.Covers(dyadic.Universe(len(p.q.Depths())), p.probeOptions(opts))
}

// probeOptions translates the options a count or cover honours.
func (p *Plan) probeOptions(opts Options) core.Options {
	return core.Options{
		NoCache:        opts.NoCache,
		MaxResolutions: opts.MaxResolutions,
		Budget:         opts.Budget,
		Context:        opts.Context,
	}
}

// Execute runs the join and returns its result. The reduction follows
// Proposition 3.6: the output of the BCP over the query's gap boxes is
// exactly the join output. For repeated executions of the same query,
// prepare once with NewPlan and call Plan.Execute.
func Execute(q *Query, opts Options) (*Result, error) {
	p, err := NewPlan(q, opts)
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(opts)
	if err != nil {
		return nil, err
	}
	// The one-shot path built the plan inside this call, so its index
	// constructions are charged to this execution. Prepared plans report
	// their build cost at preparation (Plan.IndexBuilds); their
	// executions report 0 here.
	res.Stats.IndexBuilds = p.builds
	return res, nil
}

// coreOptions translates execution options for the core engine.
func (p *Plan) coreOptions(opts Options) core.Options {
	return core.Options{
		Mode:           opts.Mode,
		Space:          opts.Space,
		SAO:            p.sao,
		NoCache:        opts.NoCache,
		MaxResolutions: opts.MaxResolutions,
		MaxOutput:      opts.MaxOutput,
		Budget:         opts.Budget,
		OnOutput:       opts.OnOutput,
		Context:        opts.Context,
	}
}

// Execute runs the prepared query. The plan itself is immutable: indices
// and SAO are reused across calls, and concurrent Execute calls on one
// plan are safe.
//
// With Parallelism > 1 (default runtime.GOMAXPROCS) a plain mode runs on
// the work-stealing executor (core.RunShards): disjoint dyadic fragments
// of the output space, each solved over a per-worker oracle; tuples and
// statistics merge deterministically in fragment order, reproducing the
// sequential enumeration order exactly. The LB modes always run
// sequentially (the Balance lift re-maps the whole space, so subbox
// fragments do not apply).
func (p *Plan) Execute(opts Options) (*Result, error) {
	// Planning-time fields are fixed at NewPlan: an explicit SAO that
	// contradicts the plan's is a misuse, not a silent no-op (Strategy
	// cannot be cross-checked — it already shaped p.sao — and is simply
	// ignored here).
	if len(opts.SAOVars) > 0 && !slices.Equal(opts.SAOVars, p.saoVars) {
		return nil, fmt.Errorf("join: Plan.Execute cannot change the SAO (plan has %v, options ask %v); prepare a new plan",
			p.saoVars, opts.SAOVars)
	}
	parallelism := opts.Parallelism
	if parallelism == 0 {
		if opts.MaxOutput > 0 || opts.MaxResolutions > 0 || opts.Budget != nil || opts.OnOutput != nil {
			// Work limits and streaming stay sequential by default so
			// their semantics are machine-independent: MaxOutput then
			// always returns the first K tuples in enumeration order
			// (parallel shards race for the shared quota and return a
			// run-dependent subset), MaxResolutions bounds the sequential
			// resolution count (sharding shifts totals by a core-count-
			// dependent factor, so a sequentially calibrated bound could
			// spuriously abort), and OnOutput keeps O(1) tuple memory and
			// prompt early stops (parallel shards buffer their tuples
			// until each completes, and a returned false only cancels the
			// still-running shards). Callers who want parallel budgets or
			// buffered parallel streaming set Parallelism explicitly.
			parallelism = 1
		} else {
			parallelism = runtime.GOMAXPROCS(0)
		}
	}
	if parallelism < 1 {
		return nil, fmt.Errorf("join: Parallelism must be >= 0, got %d", opts.Parallelism)
	}
	copts := p.coreOptions(opts)
	if opts.SharedBase && opts.Mode == core.Preloaded {
		base, err := p.PreloadedBase()
		if err != nil {
			return nil, err
		}
		copts.Base = base
	}
	var coreRes *core.Result
	var err error
	if opts.Mode.Plain() && parallelism > 1 {
		coreRes, err = core.RunShards(func() core.Oracle { return p.NewOracle() },
			copts, parallelism)
	} else {
		coreRes, err = core.Run(p.NewOracle(), copts)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Vars:   p.q.vars,
		SAO:    p.saoVars,
		Tuples: coreRes.Tuples,
		Stats:  coreRes.Stats,
	}, nil
}
