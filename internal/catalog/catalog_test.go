package catalog

import (
	"fmt"
	"math/big"
	"runtime"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

func triangleCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	r := relation.MustNewUniform("R", []string{"s", "d"}, 4)
	r.MustInsert(1, 2)
	r.MustInsert(2, 3)
	r.MustInsert(1, 3)
	r.MustInsert(3, 4)
	if _, err := c.Ingest(r); err != nil {
		t.Fatal(err)
	}
	return c
}

const triQuery = "R(A,B), R(B,C), R(A,C)"

func TestPreparedLifecycleAmortizesIndexWork(t *testing.T) {
	c := triangleCatalog(t)
	opts := join.Options{Mode: core.Preloaded, Parallelism: 1}

	// One-shot reference through the standalone engine.
	q, err := c.Parse(triQuery)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := join.Execute(q, opts)
	if err != nil {
		t.Fatal(err)
	}

	first, err := c.Execute(triQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.IndexBuilds == 0 {
		t.Error("first execution reported zero index builds; preparation cost vanished")
	}
	second, err := c.Execute(triQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.IndexBuilds != 0 {
		t.Errorf("second execution built %d indexes, want 0", second.Stats.IndexBuilds)
	}
	for name, res := range map[string]*join.Result{"first": first, "second": second} {
		if len(res.Tuples) != len(ref.Tuples) {
			t.Fatalf("%s execution: %d tuples, one-shot %d", name, len(res.Tuples), len(ref.Tuples))
		}
		for i := range res.Tuples {
			for j := range res.Tuples[i] {
				if res.Tuples[i][j] != ref.Tuples[i][j] {
					t.Fatalf("%s execution diverges from one-shot at tuple %d: %v vs %v",
						name, i, res.Tuples[i], ref.Tuples[i])
				}
			}
		}
	}

	// The catalog's build counter stays flat across repeated executions.
	builds := c.IndexBuilds()
	for i := 0; i < 3; i++ {
		if _, err := c.Execute(triQuery, opts); err != nil {
			t.Fatal(err)
		}
	}
	if c.IndexBuilds() != builds {
		t.Errorf("repeated executions grew IndexBuilds from %d to %d", builds, c.IndexBuilds())
	}

	st := c.Stats()
	if st.PlanHits == 0 || st.PlanMisses == 0 || st.PlansCached == 0 {
		t.Errorf("cache counters look dead: %+v", st)
	}

	// Count through the prepared path agrees with enumeration.
	count, cstats, err := c.Count(triQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if count.Cmp(big.NewInt(int64(len(ref.Tuples)))) != 0 {
		t.Errorf("prepared count = %v, enumeration has %d tuples", count, len(ref.Tuples))
	}
	if cstats.IndexBuilds != 0 {
		t.Errorf("cached count built %d indexes, want 0", cstats.IndexBuilds)
	}
}

func TestPrepareCacheKeying(t *testing.T) {
	c := triangleCatalog(t)

	p1, err := c.Prepare(triQuery, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	if p1.CacheHit() {
		t.Error("first preparation hit the cache")
	}
	if p1.IndexBuilds() == 0 {
		t.Error("first preparation built nothing")
	}

	p2, err := c.Prepare(triQuery, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CacheHit() || p2.IndexBuilds() != 0 {
		t.Errorf("identical preparation missed: hit=%v builds=%d", p2.CacheHit(), p2.IndexBuilds())
	}
	if p2.Plan() != p1.Plan() {
		t.Error("cache hit returned a different plan")
	}

	// Plans are mode-free: a different mode hits the same entry, so its
	// statement shares the plan (and the plan's base) and builds nothing.
	p3, err := c.Prepare(triQuery, join.Options{Mode: core.Reloaded})
	if err != nil {
		t.Fatal(err)
	}
	if !p3.CacheHit() || p3.Plan() != p1.Plan() || p3.IndexBuilds() != 0 {
		t.Errorf("different mode: hit=%v same plan=%v builds=%d; want a hit on the Preloaded plan",
			p3.CacheHit(), p3.Plan() == p1.Plan(), p3.IndexBuilds())
	}
	if p3.Mode() != core.Reloaded {
		t.Errorf("the Reloaded statement runs %v", p3.Mode())
	}

	// A different SAO needs differently ordered indexes: new builds, new
	// entry.
	p4, err := c.Prepare(triQuery, join.Options{Mode: core.Preloaded, SAOVars: []string{"C", "B", "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if p4.CacheHit() {
		t.Error("different SAO hit the old entry")
	}

	// Ingesting a new version invalidates by key: same text, fresh plan.
	if _, err := c.Append("R", relation.Tuple{2, 4}); err != nil {
		t.Fatal(err)
	}
	p5, err := c.Prepare(triQuery, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	if p5.CacheHit() {
		t.Error("preparation against the new version hit the old version's plan")
	}
	if p5.Plan() == p1.Plan() {
		t.Error("new version reused the old version's plan")
	}
}

// TestFirstUseMemoizesThePlanBase: the first use of a fresh plan that
// probes the gap set builds the plan's one base and keeps it — a
// Preloaded exec of the plan-cache miss, or a Reloaded statement's first
// count — so the PreloadedBase call after it allocates nothing.
func TestFirstUseMemoizesThePlanBase(t *testing.T) {
	for _, c := range []struct {
		name string
		mode core.Mode
		use  func(*Prepared) error
	}{
		{"preloaded miss exec", core.Preloaded, func(p *Prepared) error {
			_, err := p.Execute(join.Options{Parallelism: 1})
			return err
		}},
		{"reloaded count", core.Reloaded, func(p *Prepared) error {
			_, _, err := p.Count(join.Options{})
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := triangleCatalog(t).Prepare(triQuery, join.Options{Mode: c.mode})
			if err != nil {
				t.Fatal(err)
			}
			if p.CacheHit() {
				t.Fatal("the first preparation hit the plan cache")
			}
			if err := c.use(p); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = p.Plan().PreloadedBase()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("PreloadedBase after the first use allocated %d times: the use did not keep the plan's base", n)
			}
		})
	}
}

func TestIngestVersioningAndSpecCarryForward(t *testing.T) {
	c := New()
	r := relation.MustNewUniform("E", []string{"a", "b"}, 4)
	r.MustInsert(0, 1)
	v1, err := c.Ingest(r, index.DyadicSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.IndexBuilds(); got != 1 {
		t.Errorf("eager ingest built %d indexes, want 1", got)
	}

	v2, err := c.Append("E", relation.Tuple{1, 2}, relation.Tuple{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Errorf("append version %d not after ingest version %d", v2, v1)
	}
	// The dyadic spec was carried forward onto the new snapshot.
	if got := c.IndexBuilds(); got != 2 {
		t.Errorf("append rebuilt %d total indexes, want 2 (spec carried forward)", got)
	}
	cur, _ := c.Relation("E")
	if cur.Len() != 3 {
		t.Errorf("current version has %d tuples, want 3", cur.Len())
	}

	if _, err := c.Delete("E", relation.Tuple{0, 1}); err != nil {
		t.Fatal(err)
	}
	cur, _ = c.Relation("E")
	if cur.Len() != 2 || cur.Contains(0, 1) {
		t.Errorf("delete left %v", cur.Tuples())
	}

	if _, err := c.Append("nope", relation.Tuple{0, 0}); err == nil {
		t.Error("append to unknown relation succeeded")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewWithOptions(Options{PlanCache: 2})
	r := relation.MustNewUniform("R", []string{"a", "b"}, 4)
	r.MustInsert(1, 2)
	r.MustInsert(2, 3)
	if _, err := c.Ingest(r); err != nil {
		t.Fatal(err)
	}

	queries := []string{"R(A,B)", "R(A,B), R(B,C)", "R(B,A)"}
	for _, q := range queries {
		if _, err := c.Prepare(q, join.Options{}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if got := c.Stats().PlansCached; got != 2 {
		t.Errorf("cache holds %d plans, want 2", got)
	}
	// The first query was evicted; the last two are live.
	p, err := c.Prepare(queries[0], join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheHit() {
		t.Error("evicted plan still hit")
	}

	// Disabled cache never hits.
	off := NewWithOptions(Options{PlanCache: -1})
	r2 := relation.MustNewUniform("S", []string{"a", "b"}, 4)
	r2.MustInsert(1, 2)
	if _, err := off.Ingest(r2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		p, err := off.Prepare("S(A,B)", join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.CacheHit() {
			t.Fatalf("disabled cache hit on attempt %d", i)
		}
	}
}

func TestPreparedBooleanMode(t *testing.T) {
	c := triangleCatalog(t)
	p, err := c.Prepare(triQuery, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Covers(join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered {
		t.Error("triangle query reported covered (empty output), but output is non-empty")
	}

	// An unsatisfiable query must report covered.
	c2 := New()
	e := relation.MustNewUniform("E", []string{"a", "b"}, 3)
	e.MustInsert(1, 2)
	if _, err := c2.Ingest(e); err != nil {
		t.Fatal(err)
	}
	p2, err := c2.Prepare("E(A,B), E(B,A)", join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := p2.Covers(join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Covered {
		t.Error("empty-output query not covered")
	}
}

func TestExecuteQueryExternalRelations(t *testing.T) {
	// PrepareQuery over relations never ingested: identity-pinned
	// registries are created on demand and executions still amortize.
	c := New()
	r := relation.MustNewUniform("X", []string{"a", "b"}, 4)
	r.MustInsert(1, 2)
	r.MustInsert(2, 1)
	q, err := join.NewQuery(
		join.Atom{Relation: r, Vars: []string{"A", "B"}},
		join.Atom{Relation: r, Vars: []string{"B", "A"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := c.ExecuteQuery(q, join.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.IndexBuilds == 0 {
		t.Error("first external execution built nothing")
	}
	res2, err := c.ExecuteQuery(q, join.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.IndexBuilds != 0 {
		t.Errorf("second external execution built %d indexes, want 0", res2.Stats.IndexBuilds)
	}
	if fmt.Sprint(res1.Tuples) != fmt.Sprint(res2.Tuples) {
		t.Errorf("external executions disagree: %v vs %v", res1.Tuples, res2.Tuples)
	}
	if len(res1.Tuples) != 2 {
		t.Errorf("mirror join returned %v, want the two symmetric pairs", res1.Tuples)
	}
}

func TestPrepareCacheKeysExplicitIndexes(t *testing.T) {
	// A plan built over caller-supplied index structures must not be
	// served to a preparation that asked for different (or default)
	// ones: atom indexes are part of the cache identity.
	c := New()
	r := relation.MustNewUniform("R", []string{"a", "b"}, 4)
	r.MustInsert(1, 2)
	r.MustInsert(2, 3)

	dy := index.NewDyadic(r)
	withIx, err := join.NewQuery(join.Atom{Relation: r, Vars: []string{"A", "B"}, Indexes: []index.Index{dy}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := join.NewQuery(join.Atom{Relation: r, Vars: []string{"A", "B"}})
	if err != nil {
		t.Fatal(err)
	}

	p1, err := c.PrepareQuery(withIx, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.PrepareQuery(plain, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.CacheHit() {
		t.Fatal("default-index preparation hit the explicit-index plan")
	}
	if p1.Plan().Indices()[0] != dy {
		t.Error("explicit-index plan does not probe the supplied index")
	}
	if p2.Plan().Indices()[0] == dy {
		t.Error("default plan probes the other preparation's explicit index")
	}
	// Re-preparing with the same explicit index instance does hit.
	p3, err := c.PrepareQuery(withIx, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p3.CacheHit() {
		t.Error("identical explicit-index preparation missed")
	}
}
