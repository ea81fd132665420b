package catalog

import (
	"fmt"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/workload"
)

// TestPlanCacheKeyIncludesPlannerDecision pins the cache-key contract
// for planned preparations: an identical preparation hits, and a
// planner-made decision never shares an entry with an unplanned one
// pinned to the same order — the planned plan carries the planner's
// index families and candidates, the pinned one neither.
func TestPlanCacheKeyIncludesPlannerDecision(t *testing.T) {
	c := New()
	q := workload.PinnedChain(32, 6)
	planned := join.Options{Strategy: join.SAOPlanned, Mode: core.Reloaded}

	p1, err := c.PrepareQuery(q, planned)
	if err != nil {
		t.Fatal(err)
	}
	if p1.CacheHit() {
		t.Fatal("first preparation reported a cache hit")
	}
	if d := p1.Plan().Decision(); d == nil || !d.Planned {
		t.Fatalf("SAOPlanned preparation is not planned: %+v", d)
	}
	p2, err := c.PrepareQuery(q, planned)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CacheHit() || p2.Plan() != p1.Plan() {
		t.Fatal("identical preparation missed the plan cache")
	}

	pinned := join.Options{SAOVars: p1.Plan().SAOVars(), Mode: core.Reloaded}
	p3, err := c.PrepareQuery(q, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if p3.CacheHit() {
		t.Fatal("an order pinned by the caller was served the planner's plan")
	}
	if d := p3.Plan().Decision(); d.Planned {
		t.Fatalf("pinned preparation reports a planned decision: %+v", d)
	}
	if got, want := fmt.Sprint(p3.Plan().SAOVars()), fmt.Sprint(p1.Plan().SAOVars()); got != want {
		t.Fatalf("pinned order %s, want %s", got, want)
	}
	if st := c.Stats(); st.PlansCached != 2 {
		t.Fatalf("%d plans cached, want the planned and the pinned one", st.PlansCached)
	}
}

// TestLiftedRunLeavesPlainPlanAlone pins that what one execution
// measures never steers the next preparation: after a ReloadedLB run of
// the star triangle, whose lifted-space resolution count dwarfs the plain
// order's estimate, a Reloaded preparation chooses the order a fresh
// catalog chooses.
func TestLiftedRunLeavesPlainPlanAlone(t *testing.T) {
	const star = "R(A,B), S(B,C), T(A,C)"
	starCatalog := func() *Catalog {
		c := New()
		for _, a := range workload.TriangleAGMStar(64, 12).Atoms() {
			if _, err := c.Ingest(a.Relation); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	prepared := func(c *Catalog) string {
		p, err := c.Prepare(star, join.Options{Mode: core.Reloaded})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(p.Plan().SAOVars())
	}

	fresh := prepared(starCatalog())
	if fresh != "[A B C]" {
		t.Fatalf("fresh catalog chose %s, want [A B C]", fresh)
	}
	c := starCatalog()
	if _, err := c.Execute(star, join.Options{Mode: core.ReloadedLB, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if got := prepared(c); got != fresh {
		t.Fatalf("after a ReloadedLB run the plain preparation chose %s, a fresh catalog %s", got, fresh)
	}
}
