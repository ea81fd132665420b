package catalog

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/lb"
	"tetrisjoin/internal/relation"
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
	if _, err := c.Execute(star, join.Options{Mode: core.ReloadedLB, Space: lb.New, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if got := prepared(c); got != fresh {
		t.Fatalf("after a ReloadedLB run the plain preparation chose %s, a fresh catalog %s", got, fresh)
	}
}

// TestLBStatementKeepsItsSpace: an LB statement is refused at Prepare
// without its working space, runs every execution in the one it was
// prepared with, and is never maintained.
func TestLBStatementKeepsItsSpace(t *testing.T) {
	const query = "R(A,B), R(B,C), R(A,C)"
	r := relation.MustNewUniform("R", []string{"X", "Y"}, 3)
	for _, e := range [][2]uint64{{1, 2}, {2, 3}, {1, 3}, {3, 1}, {2, 1}, {3, 2}} {
		r.MustInsert(e[0], e[1])
	}
	c := New()
	if _, err := c.Ingest(r); err != nil {
		t.Fatal(err)
	}
	sorted := func(res *join.Result) [][]uint64 {
		ts := slices.Clone(res.Tuples)
		slices.SortFunc(ts, slices.Compare)
		return ts
	}
	plain, err := c.Execute(query, join.Options{Mode: core.Reloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := sorted(plain)
	for _, mode := range []core.Mode{core.PreloadedLB, core.ReloadedLB} {
		if _, err := c.Prepare(query, join.Options{Mode: mode}); err == nil ||
			!strings.Contains(err.Error(), mode.String()+" needs Options.Space") {
			t.Errorf("%v: Prepare without a Space: err %v", mode, err)
		}
		p, err := c.Prepare(query, join.Options{Mode: mode, Space: lb.New})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Execute(join.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%v: an execution without the Space: %v", mode, err)
		}
		if got := sorted(res); len(got) != 6 || !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%v: %v, want %v", mode, got, want)
		}
		if _, err := c.Maintain(query, join.Options{Mode: mode, Space: lb.New}); err == nil ||
			!strings.Contains(err.Error(), "maintained statements run the plain modes") {
			t.Errorf("%v: Maintain: err %v", mode, err)
		}
	}
}
