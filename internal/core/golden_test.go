package core_test

import (
	"math/rand"
	"testing"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/workload"
)

// golden is the work a run must report, exactly.
type golden struct{ resolutions, loaded, kb, outputs int64 }

// goldenLB is a lifted run's: ReloadedLB also pins its oracle probes and
// partition rebuilds, PreloadedLB probes nothing and never rebuilds.
type goldenLB struct {
	golden
	probes, rebuilds int64
}

// checkGoldenLB runs the query sequentially in both LB modes.
func checkGoldenLB(t *testing.T, label string, c *catalog.Catalog, query string, preloaded, reloaded goldenLB) {
	t.Helper()
	// In this order: the catalog's plan cache and planner feedback make an
	// ad-hoc execution depend on the ones before it.
	for i, want := range []goldenLB{preloaded, reloaded} {
		mode := []core.Mode{core.PreloadedLB, core.ReloadedLB}[i]
		res, err := c.Execute(query, join.Options{Mode: mode, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, label+" "+mode.Name(), res.Stats, want.golden)
		if res.Stats.OracleCalls != want.probes || res.Stats.Rebuilds != want.rebuilds {
			t.Errorf("%s %s: %d oracle probes and %d rebuilds, want %d and %d", label, mode.Name(),
				res.Stats.OracleCalls, res.Stats.Rebuilds, want.probes, want.rebuilds)
		}
	}
}

func checkGolden(t *testing.T, label string, s core.Stats, want golden) {
	t.Helper()
	got := golden{s.Resolutions, s.BoxesLoaded, int64(s.KnowledgeBase), s.Outputs}
	if got != want {
		t.Errorf("%s: resolutions/loaded/kb/outputs = %+v, want %+v", label, got, want)
	}
}

// TestGoldenEngineCounts pins the engine's deterministic work on the two
// shapes the serving benchmark measures. The loaded, outputs, probes and
// rebuilds columns are the restart-loop engine's and no change to how
// frames are covered may move them: the pass, the fused insert, the
// narrowed probes, the SAO-ordered tries and the lines all load the same
// boxes and report the same tuples. The resolutions and kb columns are as
// of the lines: a line over k covers charges k-1, which is the bisection's
// count unless a cover loaded late reaches back over earlier ones (the
// reloaded rows rose; the preloaded ones did not move), and it caches one
// witness per line where the bisection cached one per level.
func TestGoldenEngineCounts(t *testing.T) {
	// The AGM-hard star triangle R=S=T={0}×[64] ∪ [64]×{0} at depth 12 as
	// the prepared_star workload runs it: prepared once, executed in
	// Preloaded mode over the plan's shared base, planner-chosen SAO.
	c := catalog.New()
	for _, name := range []string{"R", "S", "T"} {
		r := relation.MustNewUniform(name, []string{"X", "Y"}, 12)
		for v := uint64(0); v < 64; v++ {
			r.MustInsert(0, v)
			r.MustInsert(v, 0)
		}
		if _, err := c.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Prepare("R(A,B), S(B,C), T(A,C)", join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	for exec := 0; exec < 2; exec++ { // the second execution reuses the base
		res, err := p.Execute(join.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "star", res.Stats, golden{2475, 2298, 2269, 190})
		if res.Stats.SkeletonCalls > 3600 || res.Stats.Lines != 127 {
			t.Errorf("star: %d skeleton calls over %d lines, want at most 3600 over 127 (bisecting every frame made 4951, the restart loop 12557)",
				res.Stats.SkeletonCalls, res.Stats.Lines)
		}
		if res.Stats.OracleCalls != 0 {
			t.Errorf("star: Preloaded probed the oracle %d times", res.Stats.OracleCalls)
		}
	}
	// The same query in the lifted space.
	checkGoldenLB(t, "star", c, "R(A,B), S(B,C), T(A,C)",
		goldenLB{golden{3333, 2298, 45, 190}, 0, 0},
		goldenLB{golden{10960, 1164, 45, 190}, 1342, 10})

	// Seeded random triangles, 400 tuples per relation over 64×64, run
	// Reloaded the way an ad-hoc query is. Every uncovered unit box costs
	// one oracle probe, as it did under the restart loop.
	for seed, want := range map[int64]struct {
		golden
		probes int64
	}{
		1: {golden{13430, 2864, 968, 227}, 2141},
		2: {golden{13282, 2974, 989, 258}, 2275},
		3: {golden{13878, 2989, 991, 250}, 2267},
	} {
		c := catalog.New()
		for i, name := range []string{"E0", "E1", "E2"} {
			rng := rand.New(rand.NewSource(seed*10 + int64(i)))
			r := relation.MustNewUniform(name, []string{"X", "Y"}, 6)
			for r.Len() < 400 {
				r.MustInsert(uint64(rng.Intn(64)), uint64(rng.Intn(64)))
			}
			if _, err := c.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Execute("E0(A,B), E1(B,C), E2(A,C)", join.Options{Mode: core.Reloaded, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "random triangle", res.Stats, want.golden)
		if res.Stats.OracleCalls != want.probes {
			t.Errorf("random triangle %d: %d oracle probes, want %d", seed, res.Stats.OracleCalls, want.probes)
		}
		if seed == 1 {
			checkGoldenLB(t, "random triangle 1", c, "E0(A,B), E1(B,C), E2(A,C)",
				goldenLB{golden{9079, 3195, 1233, 227}, 0, 0},
				goldenLB{golden{41926, 2866, 1520, 227}, 2135, 10})
		}
	}

	// Example F.1, the instance the LB modes exist for (plain Tetris needs
	// ~|C|² resolutions on it, the lift ~|C|^{3/2}): no outputs, so every
	// settled unit is a gap load, and the restart loop walked back down
	// from the lifted universe after each one.
	f1 := workload.ExampleF1(8)
	res, err := core.Run(core.MustBoxOracle(f1.Depths, f1.Boxes), core.Options{Mode: core.ReloadedLB})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, f1.Name, res.Stats, golden{3371, 384, 56, 0})
	if res.Stats.Rebuilds != 8 {
		t.Errorf("%s: %d rebuilds, want 8", f1.Name, res.Stats.Rebuilds)
	}
	if res.Stats.SkeletonCalls > 7100 {
		t.Errorf("%s: %d skeleton calls, want at most 7100 (bisecting every frame made 7387, the restart loop 18237)", f1.Name, res.Stats.SkeletonCalls)
	}
}
