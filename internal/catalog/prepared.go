package catalog

import (
	"fmt"
	"math/big"
	"strings"
	"time"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/join"
)

// Prepared is a handle on a cached, executable plan: the product of
// ingest-time index work plus one preparation. Executions reuse the
// plan's indexes and (Preloaded executions, counts and covers) its one
// base of the gap set B(Q), so they perform zero index builds — which
// their Stats.IndexBuilds == 0 proves per run.
type Prepared struct {
	plan  *join.Plan
	mode  core.Mode
	space func(core.Mode, []uint8, []dyadic.Box) (core.Space, error) // an LB mode's working space

	builds   int64 // indexes constructed during this preparation
	cacheHit bool

	// The owning catalog and the version-free shape executions are
	// observed under (telemetry aggregates across versions).
	cat   *Catalog
	label string
}

// Plan returns the underlying immutable plan.
func (p *Prepared) Plan() *join.Plan { return p.plan }

// IndexBuilds returns the number of indexes this preparation had to
// construct: 0 on a plan-cache hit or when every needed order was
// already maintained, the distinct (relation, order) count otherwise.
func (p *Prepared) IndexBuilds() int64 { return p.builds }

// CacheHit reports whether the preparation was served from the plan
// cache.
func (p *Prepared) CacheHit() bool { return p.cacheHit }

// Mode returns the mode the statement runs in, which Execute always
// uses; prepare another statement to run a different mode (it shares the
// cached plan: plans are mode-free). An LB mode's working space
// (Options.Space) is fixed with it.
func (p *Prepared) Mode() core.Mode { return p.mode }

// Execute runs the prepared plan. Execution-time options (parallelism,
// limits, budget, callbacks) come from opts; the mode is fixed at
// preparation (opts.Mode and opts.Space are ignored — see Mode) and
// Preloaded executions share one base memoized on the plan, which the
// first of them builds. The reported
// Stats.IndexBuilds is always 0: prepared executions never construct
// indexes.
func (p *Prepared) Execute(opts join.Options) (*join.Result, error) {
	opts.Mode, opts.Space = p.mode, p.space
	opts.SharedBase = true
	start := time.Now()
	res, err := p.plan.Execute(opts)
	if err != nil {
		return nil, err
	}
	if p.cat != nil {
		p.cat.observeExec(p.label, "exec", start)
	}
	return res, nil
}

// Count runs the counting variant over the prepared plan.
func (p *Prepared) Count(opts join.Options) (*big.Int, core.Stats, error) {
	start := time.Now()
	n, stats, err := p.plan.Count(opts)
	if err == nil && p.cat != nil {
		p.cat.observeExec(p.label, "count", start)
	}
	return n, stats, err
}

// Covers runs the Boolean variant over the prepared plan: covered means
// the join output is empty; otherwise the report carries a witness
// output tuple.
func (p *Prepared) Covers(opts join.Options) (*core.CoverReport, error) {
	return p.plan.Covers(opts)
}

// shapeKey identifies the query shape over pinned relation versions:
// the part of a preparation's identity that is independent of how it
// was planned. Relations are identified by (ID, version) — stamps that
// no two distinct tuple-set states share — so an ingest of a new
// version changes the key and the stale plan simply stops being found.
// Atoms carrying explicit indexes pin them by instance identity: a plan
// built over caller-supplied index structures must never be served to a
// preparation that asked for different ones.
func shapeKey(q *join.Query) string {
	var sb strings.Builder
	for i, a := range q.Atoms() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s#%d@%d(%s)", a.Relation.Name(), a.Relation.ID(), a.Relation.Version(), strings.Join(a.Vars, ","))
		for _, ix := range a.Indexes {
			fmt.Fprintf(&sb, "!%p", ix)
		}
	}
	return sb.String()
}

// ShapeLabel is the version-free rendering of a query's shape —
// relation names and variable bindings only, e.g.
// "R(A,B),R(B,C),R(A,C)". Unlike shapeKey it is stable across relation
// versions, which makes it the right key for telemetry (a latency
// histogram must aggregate a shape's executions across appends, not
// fragment into one series per version) and the wrong key for plan
// caching (which shapeKey covers).
func ShapeLabel(q *join.Query) string {
	var sb strings.Builder
	for i, a := range q.Atoms() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s(%s)", a.Relation.Name(), strings.Join(a.Vars, ","))
	}
	return sb.String()
}

// planKey builds the cache identity of a preparation — the shape, the
// resolved SAO and, for planner-made decisions, a planned marker and the
// chosen index family per atom — with no mode: plans are mode-free. The
// shape pins every relation's (ID, version), and one version is one tuple
// set with one set of statistics, so the planner decides the same way
// every time the shape comes back; the marker keeps a planned decision
// apart from an unplanned one pinned to the same order.
func planKey(shape string, d *join.Decision) string {
	var sb strings.Builder
	sb.WriteString(shape)
	fmt.Fprintf(&sb, "|sao=%s", strings.Join(d.SAOVars, ","))
	if d.Planned {
		fmt.Fprintf(&sb, "|planned=%v", d.Families)
	}
	return sb.String()
}

// Prepare parses the query against the catalog's current relation
// versions and returns an executable prepared statement, served from
// the plan cache when an identical preparation (same shape, same
// relation versions, same SAO) is live, whatever its mode.
func (c *Catalog) Prepare(query string, opts join.Options) (*Prepared, error) {
	q, err := c.Parse(query)
	if err != nil {
		return nil, err
	}
	return c.PrepareQuery(q, opts)
}

// PrepareQuery prepares an already-assembled query. The query's
// relations are pinned by identity: they may be catalog-registered
// versions (the Parse path) or externally built instances, which get
// their own on-demand index registries. Callers must treat relations as
// immutable once planned. An LB mode needs opts.Space (internal/lb's
// New), which the statement keeps for its executions.
func (c *Catalog) PrepareQuery(q *join.Query, opts join.Options) (*Prepared, error) {
	if !opts.Mode.Plain() && opts.Space == nil {
		return nil, fmt.Errorf("catalog: %v needs Options.Space, the Balance lift (internal/lb)", opts.Mode)
	}
	d, err := join.Decide(q, opts)
	if err != nil {
		return nil, err
	}
	key := planKey(shapeKey(q), d)

	label := ShapeLabel(q)
	if plan, ok := c.plans.Get(key); ok {
		c.hits.Add(1)
		return &Prepared{plan: plan, mode: opts.Mode, space: opts.Space, cacheHit: true, cat: c, label: label}, nil
	}
	c.misses.Add(1)

	// Pin the decision we just resolved: PreparePlan would re-derive it
	// identically, but pinning skips the second planner run and keeps
	// the cache key and the plan definitionally in step.
	opts.Decision = d
	plan, err := join.PreparePlan(q, opts, source{c})
	if err != nil {
		return nil, err
	}
	c.plans.Put(key, plan)
	return &Prepared{plan: plan, mode: opts.Mode, space: opts.Space, builds: plan.IndexBuilds(), cat: c, label: label}, nil
}

// Execute prepares (with caching) and runs a textual query in one call:
// the serving counterpart of the one-shot join.Execute. The first
// execution of a shape pays preparation (its Stats.IndexBuilds reports
// the indexes built and, in Preloaded mode, it builds the plan's shared
// base); repeated executions hit the plan cache, reuse that base, and
// report the same work with IndexBuilds == 0.
func (c *Catalog) Execute(query string, opts join.Options) (*join.Result, error) {
	p, err := c.Prepare(query, opts)
	if err != nil {
		return nil, err
	}
	return p.executeCharged(opts)
}

// ExecuteQuery is Execute over an already-assembled query.
func (c *Catalog) ExecuteQuery(q *join.Query, opts join.Options) (*join.Result, error) {
	p, err := c.PrepareQuery(q, opts)
	if err != nil {
		return nil, err
	}
	return p.executeCharged(opts)
}

// executeCharged is Execute charging the preparation's index builds to
// this execution's stats. A cache miss runs like a hit: it memoizes the
// Preloaded base on the plan it just cached, and the hit after it reuses
// that base and reports the same work but for IndexBuilds.
func (p *Prepared) executeCharged(opts join.Options) (*join.Result, error) {
	res, err := p.Execute(opts)
	if err != nil {
		return nil, err
	}
	res.Stats.IndexBuilds = p.builds
	return res, nil
}

// Count prepares (with caching) and counts a textual query without
// materializing its output.
func (c *Catalog) Count(query string, opts join.Options) (*big.Int, core.Stats, error) {
	p, err := c.Prepare(query, opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return p.countCharged(opts)
}

// CountQuery is Count over an already-assembled query.
func (c *Catalog) CountQuery(q *join.Query, opts join.Options) (*big.Int, core.Stats, error) {
	p, err := c.PrepareQuery(q, opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return p.countCharged(opts)
}

func (p *Prepared) countCharged(opts join.Options) (*big.Int, core.Stats, error) {
	count, stats, err := p.Count(opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	stats.IndexBuilds = p.builds
	return count, stats, nil
}
