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
// order exactly — tuple for tuple, not just as a set — at 1, 2 and 4
// workers, in both plain modes. This is the fuzz-matrix pin for the
// executor's determinism contract on inputs where stealing actually
// happens.
func TestStealMatrixOrderEquality(t *testing.T) {
	for name, q := range stealFamilies() {
		plan, err := join.NewPlan(q, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := plan.Execute(join.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, mode := range []core.Mode{core.Reloaded, core.Preloaded} {
			for _, workers := range []int{1, 2, 4} {
				config := fmt.Sprintf("%s/%v workers=%d", name, mode, workers)
				// Parallelism 1 is the sequential engine, so the
				// executor's one-worker run is called directly.
				res, err := core.RunShards(func() core.Oracle { return plan.NewOracle() },
					core.Options{Mode: mode, SAO: plan.SAO()}, workers)
				if err != nil {
					t.Fatalf("%s: %v", config, err)
				}
				if d := baseline.FirstDivergence(res.Tuples, seq.Tuples); d != nil {
					t.Fatalf("%s: order diverged from sequential at #%d: got %v, want %v (%d vs %d tuples)",
						config, d.Index, d.Got, d.Want, len(res.Tuples), len(seq.Tuples))
				}
				if workers == 1 && res.Stats.Steals != 0 {
					t.Fatalf("%s: a lone worker donated %d fragments", config, res.Stats.Steals)
				}
			}
		}
	}
}
