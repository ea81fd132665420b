package catalog

import (
	"fmt"
	"math/rand"
	"testing"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// pathCatalog ingests a 3-atom path instance R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D)
// into a fresh catalog and returns it with the query text.
func pathCatalog(t *testing.T, n int, d uint8, seed int64) (*Catalog, string) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cat := New()
	for i := 1; i <= 3; i++ {
		rel := relation.MustNewUniform(fmt.Sprintf("R%d", i), []string{"X", "Y"}, d)
		for k := 0; k < n; k++ {
			rel.MustInsert(uint64(r.Intn(1<<d)), uint64(r.Intn(1<<d)))
		}
		if _, err := cat.Ingest(rel); err != nil {
			t.Fatal(err)
		}
	}
	return cat, "R1(A,B), R2(B,C), R3(C,D)"
}

// scratchRecompute executes the query from scratch over the catalog's
// CURRENT relation versions with the given SAO, fresh indexes and all —
// the reference a maintained result must match byte for byte.
func scratchRecompute(t *testing.T, cat *Catalog, text string, sao []string) [][]uint64 {
	t.Helper()
	q, err := cat.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 1, SAOVars: sao})
	if err != nil {
		t.Fatal(err)
	}
	return res.Tuples
}

func assertSameTuples(t *testing.T, label string, got, want [][]uint64) {
	t.Helper()
	if d := baseline.FirstDivergence(got, want); d != nil {
		t.Fatalf("%s: %d tuples vs %d; first divergence at #%d: got %v, want %v",
			label, len(got), len(want), d.Index, d.Got, d.Want)
	}
}

func TestMaintainedPatchAppend(t *testing.T) {
	cat, text := pathCatalog(t, 60, 6, 1)
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	sao := m.Plan().SAOVars()

	for i := 0; i < 5; i++ {
		tup := relation.Tuple{uint64(i), uint64((i * 7) % 64)}
		if _, err := cat.Append("R2", tup); err != nil {
			t.Fatal(err)
		}
		res, err := m.Execute(join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, fmt.Sprintf("append %d", i), res.Tuples, scratchRecompute(t, cat, text, sao))
		last := m.LastRefresh()
		if last.Kind != "patched" && last.Kind != "none" {
			t.Fatalf("append %d refreshed via %q, want a patch (or none for a duplicate)", i, last.Kind)
		}
		if last.Kind == "patched" {
			// One atom references R2: exactly one delta pass, and the
			// refresh builds at most the delta index for it.
			if last.Passes != 1 {
				t.Fatalf("append %d ran %d passes, want 1", i, last.Passes)
			}
			if res.Stats.IndexBuilds > 1 {
				t.Fatalf("append %d built %d indexes during refresh, want <= 1", i, res.Stats.IndexBuilds)
			}
		}
	}
	if m.Recomputes() != 0 {
		t.Fatalf("append-only trickle recomputed %d times", m.Recomputes())
	}
	// A second Execute with no writes in between is free.
	res, err := m.Execute(join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.LastRefresh().Kind != "none" || res.Stats.Resolutions != 0 || res.Stats.IndexBuilds != 0 {
		t.Fatalf("idle Execute did work: %+v", m.LastRefresh())
	}
}

func TestMaintainedPatchDelete(t *testing.T) {
	cat, text := pathCatalog(t, 60, 6, 2)
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	sao := m.Plan().SAOVars()

	for i := 0; i < 4; i++ {
		rel, _ := cat.Relation("R1")
		victim := rel.Tuples()[i*3]
		if _, err := cat.Delete("R1", victim); err != nil {
			t.Fatal(err)
		}
		res, err := m.Execute(join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, fmt.Sprintf("delete %d", i), res.Tuples, scratchRecompute(t, cat, text, sao))
		if k := m.LastRefresh().Kind; k != "patched" {
			t.Fatalf("delete %d refreshed via %q, want patched", i, k)
		}
	}
	if m.Recomputes() != 0 {
		t.Fatalf("delete trickle recomputed %d times", m.Recomputes())
	}
}

// Self-joins: the changed relation binds several atoms, so the patch
// runs one staggered pass per atom and must still be exact.
func TestMaintainedSelfJoinTriangle(t *testing.T) {
	r := relation.MustNewUniform("R", []string{"s", "d"}, 4)
	for _, e := range [][2]uint64{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {2, 4}, {4, 5}} {
		r.MustInsert(e[0], e[1])
	}
	cat := New()
	if _, err := cat.Ingest(r); err != nil {
		t.Fatal(err)
	}
	text := "R(A,B), R(B,C), R(A,C)"
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	sao := m.Plan().SAOVars()

	steps := []struct {
		op  string
		tup relation.Tuple
	}{
		{"append", relation.Tuple{3, 5}}, // completes (3,4,5)
		{"append", relation.Tuple{5, 6}},
		{"delete", relation.Tuple{2, 3}}, // kills (1,2,3) and (2,3,4) if present
		{"append", relation.Tuple{2, 3}}, // brings them back
		{"delete", relation.Tuple{9, 9}}, // absent: no-op delta
	}
	for i, s := range steps {
		var err error
		if s.op == "append" {
			_, err = cat.Append("R", s.tup)
		} else {
			_, err = cat.Delete("R", s.tup)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Execute(join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, fmt.Sprintf("step %d (%s %v)", i, s.op, s.tup),
			res.Tuples, scratchRecompute(t, cat, text, sao))
		last := m.LastRefresh()
		switch {
		case i == 4:
			if last.Kind != "none" {
				t.Fatalf("no-op delete refreshed via %q", last.Kind)
			}
		case last.Kind != "patched":
			t.Fatalf("step %d refreshed via %q, want patched", i, last.Kind)
		case last.Passes != 3:
			t.Fatalf("step %d ran %d passes, want 3 (one per atom of R)", i, last.Passes)
		}
	}
	if m.Recomputes() != 0 {
		t.Fatalf("self-join trickle recomputed %d times", m.Recomputes())
	}
}

// A span folding an append and a delete between refreshes is a mixed
// delta: the patch rule must not guess — exact fallback to recompute.
func TestMaintainedMixedSpanRecomputes(t *testing.T) {
	cat, text := pathCatalog(t, 40, 6, 3)
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	sao := m.Plan().SAOVars()
	rel, _ := cat.Relation("R1")
	victim := rel.Tuples()[0]
	if _, err := cat.Append("R1", relation.Tuple{63, 63}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Delete("R1", victim); err != nil {
		t.Fatal(err)
	}
	res, err := m.Execute(join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k := m.LastRefresh().Kind; k != "recomputed" {
		t.Fatalf("mixed span refreshed via %q, want recomputed", k)
	}
	assertSameTuples(t, "mixed span", res.Tuples, scratchRecompute(t, cat, text, sao))
	if m.Recomputes() != 1 {
		t.Fatalf("recomputes = %d, want 1", m.Recomputes())
	}
}

// Two relations changing between refreshes: still patched (sequential
// per-relation decomposition), still exact.
func TestMaintainedTwoRelationsChanged(t *testing.T) {
	cat, text := pathCatalog(t, 50, 6, 4)
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	sao := m.Plan().SAOVars()
	if _, err := cat.Append("R1", relation.Tuple{1, 2}, relation.Tuple{3, 4}); err != nil {
		t.Fatal(err)
	}
	r3, _ := cat.Relation("R3")
	if _, err := cat.Delete("R3", r3.Tuples()[5]); err != nil {
		t.Fatal(err)
	}
	res, err := m.Execute(join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k := m.LastRefresh().Kind; k != "patched" {
		t.Fatalf("two-relation change refreshed via %q, want patched", k)
	}
	assertSameTuples(t, "two relations", res.Tuples, scratchRecompute(t, cat, text, sao))
}

// Regression for the bug this PR fixes: a 1-tuple Append must not
// rebuild indexes in full — not the changed relation's (each carried
// spec becomes an O(1)-sized delta layer) and certainly not the
// unchanged relations'. Pinned: the catalog-wide full-build count
// (IndexBuilds − DeltaIndexBuilds) stays flat across the append, and
// the per-append build total is the changed relation's spec count, not
// O(#specs × #relations).
func TestAppendDoesNotRebuildIndexes(t *testing.T) {
	cat, text := pathCatalog(t, 100, 6, 5)
	// Warm every access path the query needs (3 relations × 1 SAO order
	// each) plus an extra maintained order per relation.
	for _, name := range cat.Names() {
		rel, _ := cat.Relation(name)
		if _, err := cat.Ingest(rel, BTreeSpecFor(rel)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.Execute(text, join.Options{Mode: core.Preloaded, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}

	before := cat.Stats()
	fullBefore := before.IndexBuilds - before.DeltaIndexBuilds

	if _, err := cat.Append("R2", relation.Tuple{0, 0}); err != nil {
		t.Fatal(err)
	}

	after := cat.Stats()
	fullAfter := after.IndexBuilds - after.DeltaIndexBuilds
	if fullAfter != fullBefore {
		t.Fatalf("1-tuple append performed %d full index rebuilds", fullAfter-fullBefore)
	}
	// Every build the append did perform is an O(1)-sized layer, one per
	// spec carried on R2 — independent of the other relations.
	r2, _ := cat.Relation("R2")
	specs := 0
	for _, name := range cat.Names() {
		if name == "R2" {
			set := catSetFor(t, cat, r2)
			specs = set.Len()
		}
	}
	builds := after.IndexBuilds - before.IndexBuilds
	if builds != int64(specs) {
		t.Fatalf("append charged %d builds, want %d (one layer per spec of R2)", builds, specs)
	}
	if builds > 2 {
		t.Fatalf("append charged %d builds; O(1) expected", builds)
	}

	// A sustained append stream must ALSO never pay a full rebuild
	// synchronously: delta chains used to hit index.Set.Derive's depth
	// cap and rebuild on the write path, now the background compactor
	// folds them first. Pinned: the write-path full-build count
	// (IndexBuilds − DeltaIndexBuilds − CompactionBuilds) stays flat
	// across the whole stream, chains stay below the emergency cap, and
	// compactions actually happened.
	r := rand.New(rand.NewSource(7))
	base := cat.Stats()
	writePathFull := func(s Stats) int64 { return s.IndexBuilds - s.DeltaIndexBuilds - s.CompactionBuilds }
	for i := 0; i < 40; i++ {
		tup := relation.Tuple{uint64(r.Intn(64)), uint64(r.Intn(64))}
		if _, err := cat.Append("R2", tup); err != nil {
			t.Fatal(err)
		}
		cat.WaitCompactions()
		st := cat.Stats()
		if got, want := writePathFull(st), writePathFull(base); got != want {
			t.Fatalf("append %d of stream performed %d synchronous full rebuilds", i, got-want)
		}
		cur, _ := cat.Relation("R2")
		if d := catSetFor(t, cat, cur).MaxLayerDepth(); d >= 16 {
			t.Fatalf("append %d of stream left a chain of depth %d; compactor should have folded it", i, d)
		}
	}
	if st := cat.Stats(); st.Compactions == 0 {
		t.Fatal("40-append stream never triggered a background compaction")
	}
}

// catSetFor exposes the registry of a snapshot for the regression
// assertion (same package: test-only accessor).
func catSetFor(t *testing.T, c *Catalog, rel *relation.Relation) *index.Set {
	t.Helper()
	return c.setFor(rel)
}

// BTreeSpecFor is a schema-order B-tree spec for the relation.
func BTreeSpecFor(rel *relation.Relation) index.Spec {
	return index.BTreeSpec(rel.Attrs()...)
}

// A long steady-state trickle: per-iteration refresh work stays
// delta-sized (index builds bounded by the changed atom count), the
// patch path never degrades to recomputes, and the result tracks the
// scratch reference throughout — including across the index layer
// chain's depth-cap rebuilds.
func TestMaintainedSteadyTrickle(t *testing.T) {
	cat, text := pathCatalog(t, 80, 6, 6)
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	sao := m.Plan().SAOVars()
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		tup := relation.Tuple{uint64(r.Intn(64)), uint64(r.Intn(64))}
		rel, _ := cat.Relation("R2")
		fresh := !rel.Contains(tup...)
		if _, err := cat.Append("R2", tup); err != nil {
			t.Fatal(err)
		}
		res, err := m.Execute(join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fresh {
			if k := m.LastRefresh().Kind; k != "patched" {
				t.Fatalf("iteration %d refreshed via %q, want patched", i, k)
			}
			if res.Stats.IndexBuilds > 1 {
				t.Fatalf("iteration %d built %d indexes, want <= 1 (one changed atom)", i, res.Stats.IndexBuilds)
			}
		}
		if i%8 == 0 {
			assertSameTuples(t, fmt.Sprintf("iteration %d", i), res.Tuples,
				scratchRecompute(t, cat, text, sao))
		}
	}
	if m.Recomputes() != 0 {
		t.Fatalf("steady trickle recomputed %d times", m.Recomputes())
	}
	if m.Patches() == 0 {
		t.Fatal("steady trickle never patched")
	}
	// Final exactness check.
	res, err := m.Execute(join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, "final", res.Tuples, scratchRecompute(t, cat, text, sao))
}

// TestMaintainedRefreshFollowsDelta: a patched refresh's work follows the
// delta's certificate, not the size of the data. On a path-3 instance the
// written R2 tuple (b0,c0) joins four R1 tuples on B and four R3 tuples on
// C, and no other tuple of any relation holds b0 or c0; growing every
// relation 16-fold keeps that neighbourhood, so the delta pass — which
// starts at the tuple's box — must do the same work at both sizes. Then an
// R1 tuple (a0,b0) is written, which joins only through (b0,c0): R1 binds
// the SAO's tail (C B D A), so its pass leads with B and A and keys R2 by
// B, once (Rekeyed) — in the plan's C-major order it would have to cover C
// with Θ(N) gaps at B = b0. Its work must not depend on N either, and a
// second R1 write must reuse the re-keyed index.
func TestMaintainedRefreshFollowsDelta(t *testing.T) {
	const d, b0, c0 = 14, 5000, 9000
	refresh := func(n int) [2]Refresh {
		r := rand.New(rand.NewSource(1))
		val := func() uint64 {
			for {
				if v := uint64(r.Intn(1 << d)); v != b0 && v != c0 {
					return v
				}
			}
		}
		cat := New()
		for i := 1; i <= 3; i++ {
			rel := relation.MustNewUniform(fmt.Sprintf("R%d", i), []string{"X", "Y"}, d)
			for k := 0; k < n; k++ {
				rel.MustInsert(val(), val())
			}
			for k := uint64(0); k < 4; k++ {
				switch i {
				case 1:
					rel.MustInsert(100+k*37, b0)
				case 3:
					rel.MustInsert(c0, 200+k*53)
				}
			}
			if _, err := cat.Ingest(rel); err != nil {
				t.Fatal(err)
			}
		}
		m, err := cat.Maintain("R1(A,B), R2(B,C), R3(C,D)", join.Options{Mode: core.Preloaded})
		if err != nil {
			t.Fatal(err)
		}
		write := func(name string, tup relation.Tuple, added, rekeyed int) Refresh {
			t.Helper()
			if _, err := cat.Append(name, tup); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Execute(join.Options{}); err != nil {
				t.Fatal(err)
			}
			last := m.LastRefresh()
			if last.Kind != "patched" || last.Added != added || last.Rekeyed != rekeyed || last.Stats.IndexBuilds != int64(1+rekeyed) {
				t.Fatalf("N=%d, %s%v: refresh %q added %d tuples, rekeyed %d, built %d indexes; want a patch adding %d, rekeying %d",
					n, name, tup, last.Kind, last.Added, last.Rekeyed, last.Stats.IndexBuilds, added, rekeyed)
			}
			return last
		}
		mid := write("R2", relation.Tuple{b0, c0}, 16, 0)
		tail := write("R1", relation.Tuple{7, b0}, 4, 1)
		write("R1", relation.Tuple{11, b0}, 4, 0)
		return [2]Refresh{mid, tail}
	}
	small, large := refresh(500), refresh(8000)
	for i, name := range []string{"R2", "R1"} {
		s, l := small[i].Stats, large[i].Stats
		if s.Resolutions != l.Resolutions || s.SkeletonCalls != l.SkeletonCalls || s.BoxesLoaded != l.BoxesLoaded {
			t.Errorf("%s refresh work depends on N: N=500 %d resolutions, %d calls, %d loaded; N=8000 %d, %d, %d",
				name, s.Resolutions, s.SkeletonCalls, s.BoxesLoaded, l.Resolutions, l.SkeletonCalls, l.BoxesLoaded)
		}
	}
}

// TestMaintainedRefreshLeavesPlanCache: a patched refresh re-pins its plan
// without the plan cache, so a maintained statement under writes neither
// counts misses nor evicts the plans of other prepared statements.
func TestMaintainedRefreshLeavesPlanCache(t *testing.T) {
	cat, text := pathCatalog(t, 60, 6, 8)
	other := "R1(A,B), R3(B,C)" // over relations the writes leave alone
	if _, err := cat.Prepare(other, join.Options{}); err != nil {
		t.Fatal(err)
	}
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	misses := cat.Stats().PlanMisses
	for i := 0; i < 70; i++ {
		if _, err := cat.Append("R2", relation.Tuple{uint64(i % 64), uint64(i / 64)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Execute(join.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Patches() == 0 {
		t.Fatal("the write stream never patched")
	}
	if got := cat.Stats().PlanMisses; got != misses {
		t.Fatalf("refreshes counted %d plan-cache misses, want 0", got-misses)
	}
	p, err := cat.Prepare(other, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.CacheHit() {
		t.Fatal("refreshes evicted another statement's cached plan")
	}
}

// Regression for a cross-relation span interaction: an insert on one
// relation folded with a delete on another (each per-relation delta
// pure, so the span patches). The insert pass for the
// alphabetically-earlier relation runs against the pre-delete state of
// the other, so its additions can join through tuples the delete step
// then removes — the removals must filter the additions, not just the
// prior result.
func TestMaintainedCrossRelationInsertDeleteSpan(t *testing.T) {
	r := relation.MustNewUniform("R", []string{"X", "Y"}, 4)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, 4)
	for i := uint64(0); i < 10; i++ {
		r.MustInsert(i, 2)
		s.MustInsert(i, i)
	}
	s.MustInsert(2, 3)
	cat := New()
	for _, rel := range []*relation.Relation{r, s} {
		if _, err := cat.Ingest(rel); err != nil {
			t.Fatal(err)
		}
	}
	text := "R(A,B), S(B,C)"
	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	sao := m.Plan().SAOVars()

	// One unrefreshed span: R gains (12,2), S loses (2,3). The new R
	// tuple joins (2,3) only through the tuple being deleted, so the
	// net-new output (12,2,3) must NOT survive the patch.
	if _, err := cat.Append("R", relation.Tuple{12, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Delete("S", relation.Tuple{2, 3}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Execute(join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k := m.LastRefresh().Kind; k != "patched" {
		t.Fatalf("span refreshed via %q, want patched", k)
	}
	assertSameTuples(t, "cross-relation span", res.Tuples, scratchRecompute(t, cat, text, sao))
	for _, tup := range res.Tuples {
		if tup[0] == 12 && tup[2] == 3 {
			t.Fatalf("stale addition (12,2,3) survived the delete step: %v", res.Tuples)
		}
	}
}
