package catalog

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// Maintained is a prepared query whose materialized result survives
// catalog writes: Append/Delete on its relations do not force a
// re-execution — Execute patches the cached result from the deltas via
// the standard delta-query decomposition, one Tetris pass per atom of
// each changed relation with that atom's relation replaced by its
// delta. A pass runs Reloaded over the tiny delta index plus the other
// atoms' indexes, and it starts at the boxes of the delta tuples, not at
// the universe — its outputs all lie there, because the delta atom's gaps
// cover every other point. Its order leads with the delta atom's
// variables and keys the other atoms' indexes by them (passSAO), so its
// work follows the certificate around the delta tuples, not the size of
// the unchanged data. The exception is an atom of a relation the same
// refresh writes whose index that order would re-key (a self-join, say):
// the pass then keeps the plan's order, and an index keyed by a variable
// the root leaves free can answer with Θ(N) gaps (ROADMAP item 6).
//
// The patch rule is exact for pure per-step deltas (a span of appends,
// or a span of deletes, per relation): staggered old/new atom versions
// make the insert terms disjoint additions, and delete-pass outputs are
// exactly the result tuples that lost an atom membership (natural join
// membership is per-atom-projection, so there is no lost-witness
// subtlety). Anything the rule cannot certify cheaply — a mixed
// insert+delete span, an unreconstructible lineage, a delta comparable
// to the relation itself — falls back to a full recompute, which is
// always exact.
//
// A Maintained statement serializes its own refreshes (one mutex); the
// catalog underneath stays fully concurrent.
type Maintained struct {
	c     *Catalog
	text  string
	label string       // version-free shape, for the exec observer
	opts  join.Options // preparation options; Mode fixed at Maintain
	reg   Registration // as given to MaintainAs; zero for an anonymous statement

	mu                  sync.Mutex
	plan                *join.Plan                    // over the pinned versions
	pinned              map[string]*relation.Relation // snapshot the result reflects
	result              [][]uint64                    // enumeration (SAO-lex) order
	gen                 uint64                        // catalog generation at last sync
	last                Refresh
	patches, recomputes int64
}

// Refresh describes what one Execute call did to bring the result up to
// date.
type Refresh struct {
	// Kind is "none" (nothing changed), "patched" (delta passes), or
	// "recomputed" (exact fallback; also the initial materialization).
	Kind string
	// Passes is the number of delta Tetris passes run (patched only).
	Passes int
	// Added and Removed count the tuples the patch applied.
	Added, Removed int
	// Rekeyed counts the indexes the delta passes built in full to key an
	// unwritten relation by a pass's own order (passSAO): at most once per
	// (relation, order), which later writes carry as delta layers.
	Rekeyed int
	// Stats aggregates the engine work of the refresh (delta passes or
	// the full recompute), including its index builds.
	Stats core.Stats
}

// maintPatchFactor mirrors index.Set's layering heuristic: a delta
// bigger than a quarter of the new snapshot is not worth patching.
const maintPatchFactor = 4

// Maintain prepares the query, executes it once in full, and returns a
// statement that keeps the materialized result in sync with the
// catalog's relations across Append/Delete. The mode and SAO are fixed
// at preparation like any prepared statement; refresh passes always run
// sequentially so the maintained enumeration order is exactly the
// engine's sequential order. The initial materialization — the most
// expensive step of the lifecycle — honors opts.Context and opts.Budget
// like every later refresh. The statement is anonymous: owned by the
// caller, neither registered nor journaled (MaintainAs does both). Only
// the plain modes are maintained: the LB ones are the paper's experiment,
// run one-shot.
func (c *Catalog) Maintain(query string, opts join.Options) (*Maintained, error) {
	if !opts.Mode.Plain() {
		return nil, fmt.Errorf("catalog: maintained statements run the plain modes, not %v", opts.Mode)
	}
	gen := c.Generation()
	p, err := c.Prepare(query, opts)
	if err != nil {
		return nil, err
	}
	res, err := p.executeCharged(join.Options{
		Parallelism: 1,
		Context:     opts.Context,
		Budget:      opts.Budget,
	})
	if err != nil {
		return nil, err
	}
	// The statement outlives the call: keep only the preparation-time
	// fields, not the caller's execution context/budget — refreshes take
	// those per Execute. The SAO is pinned by name: re-preparations over
	// later relation versions must keep the initial order even when the
	// statistics-driven planner would now choose differently, because the
	// materialized result — and every patch spliced into it — lives in
	// that order.
	opts.Context, opts.Budget = nil, nil
	opts.Decision = nil
	opts.SAOVars = append([]string(nil), p.Plan().SAOVars()...)
	m := &Maintained{
		c:      c,
		text:   query,
		label:  ShapeLabel(p.Plan().Query()),
		opts:   opts,
		plan:   p.Plan(),
		result: res.Tuples,
		gen:    gen,
		last: Refresh{
			Kind:  "recomputed",
			Stats: res.Stats,
		},
	}
	m.pinFromPlan()
	return m, nil
}

// MaintainAs returns the maintained statement registered under id,
// creating it when the id is new: attach-or-create as one operation, so
// two callers racing to register the same id and query both get the one
// statement. The registry is the catalog's — ids are global, outlive the
// caller, and (with a journal attached) survive restarts — so an id
// names one query: attaching with a different text is an error. A
// creation is journaled like any mutation, and creations run one at a
// time (materialization included, as the journal's lock would make them
// anyway); an attachment takes no registration lock, changes nothing and
// only brings the statement up to date under the caller's opts.Context
// and opts.Budget.
func (c *Catalog) MaintainAs(id, query string, opts join.Options) (*Maintained, error) {
	if id == "" {
		return nil, fmt.Errorf("catalog: maintained statement needs a non-empty id")
	}
	m, ok := c.MaintainedByID(id)
	if !ok {
		c.regMu.Lock()
		if m, ok = c.MaintainedByID(id); !ok { // still new under the lock: create
			defer c.regMu.Unlock()
			return c.register(id, query, opts)
		}
		c.regMu.Unlock()
	}
	if m.text != query {
		return nil, fmt.Errorf("maintained statement %q already exists with a different query", id)
	}
	_, err := m.Execute(opts)
	return m, err
}

// register creates the statement under a new id; the caller holds regMu.
// The id enters the registry only once Log has acknowledged it: a failed
// registration leaves nothing a retry could attach to.
func (c *Catalog) register(id, query string, opts join.Options) (*Maintained, error) {
	j, err := c.begin()
	if err != nil {
		return nil, err
	}
	defer j.End()
	reg := Registration{ID: id, Query: query, Mode: opts.Mode, SAOVars: opts.SAOVars}
	m, err := c.Maintain(query, opts)
	if err != nil {
		return nil, err
	}
	m.reg = reg
	if err := j.Log(Mutation{Op: "maintain", Statement: reg}); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.maint[id] = m
	c.mu.Unlock()
	return m, nil
}

// MaintainedByID returns the statement registered under the id, if any.
func (c *Catalog) MaintainedByID(id string) (*Maintained, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.maint[id]
	return m, ok
}

// MaintainedIDs returns the registered statement ids, sorted.
func (c *Catalog) MaintainedIDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, 0, len(c.maint))
	for id := range c.maint {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Registration returns what the statement was registered with — what a
// checkpoint records to recreate it. Zero for an anonymous statement.
func (m *Maintained) Registration() Registration { return m.reg }

// pinFromPlan records the relation snapshots the current plan (and
// therefore the current result) was computed against.
func (m *Maintained) pinFromPlan() {
	m.pinned = map[string]*relation.Relation{}
	for _, a := range m.plan.Query().Atoms() {
		m.pinned[a.Relation.Name()] = a.Relation
	}
}

// Result returns the materialized output tuples, shared and read-only,
// as of the last Execute/Refresh. Callers wanting the freshest state
// call Execute.
func (m *Maintained) Result() [][]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.result
}

// LastRefresh reports what the most recent Execute did.
func (m *Maintained) LastRefresh() Refresh {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// Patches and Recomputes count how refreshes were served since
// Maintain (the initial materialization counts as neither).
func (m *Maintained) Patches() int64    { m.mu.Lock(); defer m.mu.Unlock(); return m.patches }
func (m *Maintained) Recomputes() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.recomputes }

// Plan returns the plan over the currently pinned versions.
func (m *Maintained) Plan() *join.Plan { m.mu.Lock(); defer m.mu.Unlock(); return m.plan }

// Text returns the maintained query text.
func (m *Maintained) Text() string { return m.text }

// Execute brings the materialized result up to date with the catalog's
// current relation versions and returns it. Only Context and Budget are
// honored from opts — the mode, SAO and sequential execution are fixed
// by the statement. The returned tuples are shared and read-only.
//
// Stats reporting: IndexBuilds is the number of indexes this refresh
// constructed (delta indexes over the changed tuples — bounded by the
// changed atoms — plus Refresh.Rekeyed, or a full rebuild's worth on
// fallback; 0 when nothing changed), Resolutions the refresh's geometric
// resolutions, Outputs the result cardinality.
func (m *Maintained) Execute(opts join.Options) (*join.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The whole refresh is one observed sample — delta passes, merge and
	// serve — because that is the latency an exec of the statement costs
	// a client, whatever mixture of patching and recomputation served it.
	defer m.c.observeExec(m.label, "maintained", time.Now())

	gen := m.c.Generation()
	if gen == m.gen {
		return m.serve(Refresh{Kind: "none"}), nil
	}

	current, deltas, reason := m.assess()
	if len(deltas) == 0 && reason == "" {
		// Versions moved without touching this query's relations (or
		// only with effectively empty deltas): re-pin and serve.
		if err := m.repin(current); err != nil {
			return nil, err
		}
		m.gen = gen
		return m.serve(Refresh{Kind: "none"}), nil
	}
	if reason != "" {
		res, err := m.recompute(opts)
		if err != nil {
			return nil, err
		}
		m.gen = gen
		return res, nil
	}
	res, err := m.patch(opts, current, deltas)
	if err != nil {
		return nil, err
	}
	m.gen = gen
	return res, nil
}

// Refresh is Execute without returning the result: it reports what was
// done.
func (m *Maintained) Refresh(opts join.Options) (Refresh, error) {
	if _, err := m.Execute(opts); err != nil {
		return Refresh{}, err
	}
	return m.LastRefresh(), nil
}

// serve packages the cached result with the given refresh record.
func (m *Maintained) serve(r Refresh) *join.Result {
	r.Stats.Outputs = int64(len(m.result))
	m.last = r
	return &join.Result{
		Vars:   m.plan.Query().Vars(),
		SAO:    m.plan.SAOVars(),
		Tuples: m.result,
		Stats:  r.Stats,
	}
}

// assess snapshots the current versions of the maintained relations and
// computes per-relation deltas against the pinned versions. A non-empty
// reason means the patch rule does not apply and the caller must fall
// back to a full recompute.
func (m *Maintained) assess() (current map[string]*relation.Relation, deltas map[string]relation.Delta, reason string) {
	current = map[string]*relation.Relation{}
	deltas = map[string]relation.Delta{}
	for name, pinned := range m.pinned {
		cur, ok := m.c.Relation(name)
		if !ok {
			return nil, nil, fmt.Sprintf("relation %q no longer in catalog", name)
		}
		current[name] = cur
		if cur.Version() == pinned.Version() {
			continue
		}
		d, ok := cur.DeltaSince(pinned.Version())
		switch {
		case !ok:
			return current, nil, fmt.Sprintf("delta for %q not reconstructible", name)
		case d.Empty():
			continue // version moved, tuple set did not
		case d.Mixed():
			return current, nil, fmt.Sprintf("mixed insert+delete span on %q", name)
		case d.Len()*maintPatchFactor > cur.Len():
			return current, nil, fmt.Sprintf("delta on %q too large to patch (%d of %d tuples)", name, d.Len(), cur.Len())
		}
		deltas[name] = d
	}
	return current, deltas, ""
}

// repin re-prepares the plan over the given snapshots (warm indexes: no
// builds expected) and records them as the result's versions. It bypasses
// the plan cache: a plan pinned to versions a write will retire is never
// asked for again, and caching one per refresh would evict every prepared
// statement's plan.
func (m *Maintained) repin(current map[string]*relation.Relation) error {
	atoms := make([]join.Atom, 0, len(m.plan.Query().Atoms()))
	for _, a := range m.plan.Query().Atoms() {
		atoms = append(atoms, join.Atom{Relation: current[a.Relation.Name()], Vars: a.Vars})
	}
	q, err := join.NewQuery(atoms...)
	if err != nil {
		return err
	}
	p, err := join.PreparePlan(q, m.opts, source{m.c})
	if err != nil {
		return err
	}
	m.plan = p
	m.pinFromPlan()
	return nil
}

// recompute is the exact fallback: one full execution over the current
// versions, replacing the materialized result.
func (m *Maintained) recompute(opts join.Options) (*join.Result, error) {
	gen := m.c.Generation()
	p, err := m.c.Prepare(m.text, m.opts)
	if err != nil {
		return nil, err
	}
	res, err := p.executeCharged(join.Options{
		Parallelism: 1,
		Context:     opts.Context,
		Budget:      opts.Budget,
	})
	if err != nil {
		return nil, err
	}
	m.plan = p.Plan()
	m.pinFromPlan()
	m.result = res.Tuples
	m.gen = gen
	m.recomputes++
	return m.serve(Refresh{Kind: "recomputed", Stats: res.Stats}), nil
}

// patch runs the delta decomposition and applies it to the cached
// result. current/deltas come from assess: every delta is pure (insert-
// only or delete-only) and reconstructible.
func (m *Maintained) patch(opts join.Options, current map[string]*relation.Relation, deltas map[string]relation.Delta) (*join.Result, error) {
	q := m.plan.Query()
	refresh := Refresh{Kind: "patched"}

	changed := make([]string, 0, len(deltas))
	for name := range deltas {
		changed = append(changed, name)
	}
	sort.Strings(changed)

	var additions, removals [][]uint64
	processed := map[string]bool{}

	for _, name := range changed {
		d := deltas[name]
		side := d.Inserted
		if len(d.Deleted) > 0 {
			side = d.Deleted
		}
		pinnedRel := m.pinned[name]
		deltaRel, err := relation.New(name+"+delta", pinnedRel.Attrs(), pinnedRel.Depths())
		if err != nil {
			return nil, err
		}
		if err := deltaRel.InsertAll(side...); err != nil {
			return nil, err
		}
		deltaRel.Tuples()

		for ai, a := range q.Atoms() {
			if a.Relation.Name() != name {
				continue
			}
			sao := passSAO(q, ai, m.plan.SAOVars(), deltas)
			passQ, rekeyed, err := m.passQuery(q, ai, name, deltaRel, current, processed, sao)
			if err != nil {
				return nil, err
			}
			refresh.Rekeyed += rekeyed
			refresh.Stats.IndexBuilds += int64(rekeyed)
			pp, err := join.PreparePlan(passQ, join.Options{SAOVars: sao}, source{m.c})
			if err != nil {
				return nil, err
			}
			res, err := core.RunBox(pp.NewOracle(), core.Options{
				Mode:    core.Reloaded,
				SAO:     pp.SAO(),
				Context: opts.Context,
				Budget:  opts.Budget,
			}, deltaRoots(q, a, side)...)
			if err != nil {
				return nil, err
			}
			refresh.Passes++
			refresh.Stats.Merge(res.Stats)
			refresh.Stats.IndexBuilds += pp.IndexBuilds()
			if len(d.Inserted) > 0 {
				additions = append(additions, res.Tuples...)
			} else {
				removals = append(removals, res.Tuples...)
			}
		}
		processed[name] = true
	}

	m.applyPatch(additions, removals, &refresh)
	if err := m.repin(current); err != nil {
		return nil, err
	}
	m.patches++
	return m.serve(refresh), nil
}

// deltaRoots returns the root boxes of a delta pass for atom a: one per
// delta tuple, with a's variables fixed to the tuple's values as unit
// intervals and every other variable λ. The pass's outputs all lie in
// these boxes — the delta atom's gaps cover every other point — and, the
// tuples being distinct and an atom's variables distinct (NewQuery
// refuses a repeated one), the boxes are pairwise disjoint, so by
// Proposition 3.6 the pass over them reports exactly its outputs.
func deltaRoots(q *join.Query, a join.Atom, tuples []relation.Tuple) []dyadic.Box {
	n, depths := len(q.Vars()), q.Depths()
	pos := make([]int, len(a.Vars))
	for i, v := range a.Vars {
		pos[i] = q.VarIndex(v)
	}
	arena := make([]dyadic.Interval, len(tuples)*n) // all λ
	roots := make([]dyadic.Box, len(tuples))
	for k, t := range tuples {
		root := dyadic.Box(arena[k*n : (k+1)*n])
		for i, p := range pos {
			root[p] = dyadic.Unit(t[i], depths[p])
		}
		roots[k] = root
	}
	return roots
}

// passSAO returns the variable order of the delta pass for atom ai: the
// plan's, with ai's variables — the ones its root boxes fix — moved to
// the front. Every other atom's index is then keyed by the root's fixed
// variables first, so a probe answers with the gaps around the delta
// tuple's neighbours rather than one gap per value of a free variable
// ordered before them: on path-3 under C B D A, a pass rooted at an
// R1(A,B) tuple would otherwise cover C with R2's C-major gaps at B = b,
// Θ(N) probes. An atom whose index order this changes is resolved
// through its relation's registry (passQuery), which builds the order
// once and carries it across later writes as a delta layer. Only
// relations the refresh does not write may change order: a written
// relation's atoms straddle its old and new versions, and the old one
// has no registry to hold a second order. When one would have to, the
// pass keeps the plan's order.
func passSAO(q *join.Query, ai int, plan []string, deltas map[string]relation.Delta) []string {
	fixed := q.Atoms()[ai].Vars
	sao := make([]string, 0, len(plan))
	for _, v := range plan {
		if slices.Contains(fixed, v) {
			sao = append(sao, v)
		}
	}
	for _, v := range plan {
		if !slices.Contains(fixed, v) {
			sao = append(sao, v)
		}
	}
	for _, a := range q.Atoms() {
		if _, written := deltas[a.Relation.Name()]; written && !sameOrder(plan, sao, a.Vars) {
			return plan
		}
	}
	return sao
}

// sameOrder reports whether the two SAOs rank vars alike, i.e. call for
// the same index order of an atom over them.
func sameOrder(x, y, vars []string) bool {
	other := func(v string) bool { return !slices.Contains(vars, v) }
	return slices.Equal(slices.DeleteFunc(slices.Clone(x), other), slices.DeleteFunc(slices.Clone(y), other))
}

// passQuery assembles the delta-decomposition pass for atom ai of the
// changed relation: that atom becomes the delta, earlier atoms of the
// same relation take the new version, later ones keep the pinned old
// version (the staggering that makes insert terms disjoint), unchanged
// and already-processed relations take the version their step order
// dictates. Old-version atoms carry the pinned plan's index explicitly
// — the catalog may have dropped the old snapshot's registry — while
// new/current versions resolve through the catalog's registries, where
// the maintained specs are already layered (no builds). An unchanged
// atom the pass's order sao (passSAO) re-keys takes a B-tree in that
// order from its current registry; rekeyed counts the ones it had to
// build.
func (m *Maintained) passQuery(q *join.Query, ai int, name string, deltaRel *relation.Relation,
	current map[string]*relation.Relation, processed map[string]bool, sao []string) (passQ *join.Query, rekeyed int, err error) {

	indices := m.plan.Indices()
	atoms := make([]join.Atom, len(q.Atoms()))
	for j, a := range q.Atoms() {
		switch {
		case j == ai:
			atoms[j] = join.Atom{Relation: deltaRel, Vars: a.Vars}
		case a.Relation.Name() == name && j < ai:
			atoms[j] = join.Atom{Relation: current[name], Vars: a.Vars}
		case a.Relation.Name() == name: // j > ai: pinned old version
			atoms[j] = join.Atom{Relation: a.Relation, Vars: a.Vars, Indexes: []index.Index{indices[j]}}
		case processed[a.Relation.Name()]:
			atoms[j] = join.Atom{Relation: current[a.Relation.Name()], Vars: a.Vars}
		case !sameOrder(m.plan.SAOVars(), sao, a.Vars): // unchanged: passSAO re-keys no other kind
			rel := current[a.Relation.Name()]
			order := make([]string, 0, len(a.Vars))
			for _, v := range sao {
				if i := slices.Index(a.Vars, v); i >= 0 {
					order = append(order, rel.Attrs()[i])
				}
			}
			ix, built, err := source{m.c}.IndexFor(rel, index.BTreeSpec(order...))
			if err != nil {
				return nil, 0, err
			}
			if built {
				rekeyed++
			}
			atoms[j] = join.Atom{Relation: rel, Vars: a.Vars, Indexes: []index.Index{ix}}
		default:
			// Unchanged or not-yet-processed: the pinned snapshot with its
			// already-built index.
			atoms[j] = join.Atom{Relation: a.Relation, Vars: a.Vars, Indexes: []index.Index{indices[j]}}
		}
	}
	passQ, err = join.NewQuery(atoms...)
	return passQ, rekeyed, err
}

// applyPatch merges additions and filters removals into the cached
// result, preserving the engine's sequential enumeration order (tuples
// lexicographic in SAO dimension order). Additions are disjoint from
// the result and from each other by the staggering argument; equal
// tuples are deduplicated anyway for safety.
func (m *Maintained) applyPatch(additions, removals [][]uint64, refresh *Refresh) {
	sao := m.plan.SAO()
	less := func(a, b []uint64) bool {
		for _, pos := range sao {
			if a[pos] != b[pos] {
				return a[pos] < b[pos]
			}
		}
		return false
	}
	sort.Slice(additions, func(i, j int) bool { return less(additions[i], additions[j]) })
	sort.Slice(removals, func(i, j int) bool { return less(removals[i], removals[j]) })
	// filter returns a membership test for removals that walks them once,
	// so the tuples it is asked about must come in ascending order.
	filter := func() func(t []uint64) bool {
		r := 0
		return func(t []uint64) bool {
			for r < len(removals) && less(removals[r], t) {
				r++
			}
			return r < len(removals) && !less(t, removals[r])
		}
	}
	// A later relation's delete step may target a tuple an earlier
	// relation's insert step just produced (the earlier pass ran against
	// the pre-delete state): removals must filter additions exactly like
	// they filter the prior result. The reverse interaction cannot
	// occur — a pass after a delete step sees the deleted-from version,
	// so its additions never collide with earlier removals.
	removed, kept := filter(), additions[:0]
	for _, t := range additions {
		if !removed(t) {
			kept = append(kept, t)
		}
	}
	additions = kept

	merged := make([][]uint64, 0, len(m.result)+len(additions))
	removed = filter()
	i, j := 0, 0
	for i < len(m.result) || j < len(additions) {
		if i < len(m.result) && removed(m.result[i]) {
			i++
			refresh.Removed++
			continue
		}
		switch {
		case j >= len(additions):
			merged = append(merged, m.result[i])
			i++
		case i >= len(m.result):
			merged = append(merged, additions[j])
			refresh.Added++
			j++
		case less(additions[j], m.result[i]):
			merged = append(merged, additions[j])
			refresh.Added++
			j++
		case less(m.result[i], additions[j]):
			merged = append(merged, m.result[i])
			i++
		default: // equal: keep one (should not happen for exact passes)
			merged = append(merged, m.result[i])
			i++
			j++
		}
	}
	m.result = merged
}
