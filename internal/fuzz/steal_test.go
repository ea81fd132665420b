package fuzz

import (
	"fmt"
	"testing"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/workload"
)

// stealFamilies are skewed workloads sized so the heavy region takes
// long enough that idle workers actually trigger dynamic splits: the
// Zipf families concentrate work on the heavy-value corner of the
// space, the deterministic families add order-sensitive edge cases.
func stealFamilies() map[string]*join.Query {
	return map[string]*join.Query{
		"zipf-triangle":   workload.ZipfTriangle(1200, 11, 1.1, 7),
		"zipf-star":       workload.ZipfStar(3, 150, 9, 1.2, 11),
		"zipf-fourcycle":  workload.ZipfFourCycle(500, 10, 1.2, 19),
		"pinned-chain":    workload.PinnedChain(64, 7),
		"skewed-triangle": workload.SkewedTriangle(48, 6),
	}
}

// TestStealMatrixOrderEquality: on every skewed family, the
// work-stealing executor must reproduce the sequential enumeration
// order exactly — tuple for tuple, not just as a set — across worker
// counts and steal depths, in both plain modes, from the static seed
// partition and from a single seed. This is the fuzz-matrix pin for the
// executor's determinism contract on inputs where stealing actually
// happens.
func TestStealMatrixOrderEquality(t *testing.T) {
	type cfg struct {
		workers int
		depth   int
	}
	cfgs := []cfg{
		{2, -1}, // static seeds only
		{2, 0},  // default dynamic splitting
		{4, 0},
		{4, 63}, // aggressive: split as deep as the space allows
	}
	for name, q := range stealFamilies() {
		seq, err := join.Execute(q, join.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, mode := range []core.Mode{core.Reloaded, core.Preloaded} {
			for _, c := range cfgs {
				config := fmt.Sprintf("%s/%v workers=%d steal=%d", name, mode, c.workers, c.depth)
				res, err := join.Execute(q, join.Options{
					Mode:        mode,
					Parallelism: c.workers,
					StealDepth:  c.depth,
				})
				if err != nil {
					t.Fatalf("%s: %v", config, err)
				}
				if d := baseline.FirstDivergence(res.Tuples, seq.Tuples); d != nil {
					t.Fatalf("%s: order diverged from sequential at #%d: got %v, want %v (%d vs %d tuples)",
						config, d.Index, d.Got, d.Want, len(res.Tuples), len(seq.Tuples))
				}
				if c.depth < 0 && res.Stats.Steals != 0 {
					t.Fatalf("%s: stealing disabled but Stats.Steals = %d", config, res.Stats.Steals)
				}
			}
		}
		// Reloaded from a single seed: every fragment but the first is
		// carved at runtime, where the pass unwound at a gap load or an
		// output and went on from the right siblings of that unit.
		for _, workers := range []int{1, 2, 4} {
			res, err := join.Execute(q, join.Options{
				Mode: core.Reloaded, Parallelism: workers, Shards: 1, StealDepth: 63,
			})
			if err != nil {
				t.Fatalf("%s/one-seed workers=%d: %v", name, workers, err)
			}
			if d := baseline.FirstDivergence(res.Tuples, seq.Tuples); d != nil {
				t.Fatalf("%s/one-seed workers=%d: order diverged from sequential at #%d (%d vs %d tuples)",
					name, workers, d.Index, len(res.Tuples), len(seq.Tuples))
			}
		}
	}
}

// TestStealRebalancesSkew: on the Zipf families — work piled onto the
// heavy-value corner of the first SAO attribute — dynamic splitting
// must fire and reduce the max/mean worker resolution share vs static
// sharding. The thresholds are deliberately below the typical ~3×
// improvement (see EXPERIMENTS.md) to stay robust to scheduling noise.
func TestStealRebalancesSkew(t *testing.T) {
	families := map[string]*join.Query{
		"zipf-triangle":  workload.ZipfTriangle(2000, 12, 1.1, 7),
		"zipf-star":      workload.ZipfStar(3, 250, 10, 1.2, 11),
		"zipf-fourcycle": workload.ZipfFourCycle(800, 11, 1.2, 19),
	}
	share := func(s core.Stats) float64 {
		return float64(s.MaxWorkerResolutions) / (float64(s.Resolutions) / float64(s.ParallelWorkers))
	}
	improved := 0
	for name, q := range families {
		static, err := join.Execute(q, join.Options{Parallelism: 4, StealDepth: -1})
		if err != nil {
			t.Fatalf("%s: static: %v", name, err)
		}
		stealing, err := join.Execute(q, join.Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("%s: stealing: %v", name, err)
		}
		if stealing.Stats.Steals == 0 {
			t.Errorf("%s: dynamic splitting never fired", name)
			continue
		}
		ss, ds := share(static.Stats), share(stealing.Stats)
		t.Logf("%s: static share %.2f, stealing share %.2f (%.1f×, %d steals)",
			name, ss, ds, ss/ds, stealing.Stats.Steals)
		if ss >= 1.5*ds {
			improved++
		}
	}
	if improved < 2 {
		t.Fatalf("stealing improved the balance share 1.5× on only %d/3 Zipf families", improved)
	}
}
