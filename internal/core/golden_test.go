package core_test

import (
	"math/rand"
	"testing"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// golden is the work a run must report, exactly.
type golden struct{ resolutions, loaded, kb, outputs int64 }

func checkGolden(t *testing.T, label string, s core.Stats, want golden) {
	t.Helper()
	got := golden{s.Resolutions, s.BoxesLoaded, int64(s.KnowledgeBase), s.Outputs}
	if got != want {
		t.Errorf("%s: resolutions/loaded/kb/outputs = %+v, want %+v", label, got, want)
	}
}

// TestGoldenEngineCounts pins the engine's deterministic work on the two
// shapes the serving benchmark measures, at the values the restart-loop
// engine produced before the single pass replaced it: the pass, the fused
// knowledge-base insert and the narrowed probes are all required to do
// the same resolutions over the same boxes, only with fewer steps.
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
		if res.Stats.SkeletonCalls > 5000 {
			t.Errorf("star: %d skeleton calls, want at most 5000 (the restart loop made 12557)", res.Stats.SkeletonCalls)
		}
		if res.Stats.OracleCalls != 0 {
			t.Errorf("star: Preloaded probed the oracle %d times", res.Stats.OracleCalls)
		}
	}

	// Seeded random triangles, 400 tuples per relation over 64×64, run
	// Reloaded the way an ad-hoc query is. Every uncovered unit box costs
	// one oracle probe, as it did under the restart loop.
	for seed, want := range map[int64]struct {
		golden
		probes int64
	}{
		1: {golden{8671, 2864, 968, 227}, 2141},
		2: {golden{8600, 2974, 989, 258}, 2275},
		3: {golden{9025, 2989, 3268, 250}, 2267},
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
	}
}
