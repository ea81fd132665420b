// Benchmarks regenerating every table and figure of the paper's results
// (one benchmark per artifact of DESIGN.md's per-experiment index; the
// series themselves are printed by cmd/repro and recorded in
// EXPERIMENTS.md). Reported ns/op tracks the paper's cost measure,
// geometric resolutions, by Lemma 4.5.
//
// Every benchmark reports allocs/op and feeds the benchio trajectory
// recorder: running with the BENCH_OUT environment variable set writes
// the measured entries to that file (see internal/benchio and cmd/bench,
// which regenerates the committed BENCH_tetris.json).
package tetrisjoin_test

import (
	"fmt"
	"strings"
	"testing"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/benchio"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/workload"
)

// mustRun executes a query, pinning an unset Parallelism to 1: the paper
// benchmarks track the sequential trajectory (the parallel series in
// benchio.Suite sets its worker count explicitly).
func mustRun(b *testing.B, q *join.Query, opts join.Options) *join.Result {
	b.Helper()
	if opts.Parallelism == 0 {
		opts.Parallelism = 1
	}
	res, err := join.Execute(q, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func mustRunBCP(b *testing.B, inst workload.BCP, opts core.Options) *core.Result {
	b.Helper()
	o, err := core.NewBoxOracle(inst.Depths, inst.Boxes)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(o, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchJoin is the standard observed Execute-per-op body.
func benchJoin(b *testing.B, q *join.Query, opts join.Options) {
	obs := benchio.Begin(b)
	var m benchio.Metrics
	for i := 0; i < b.N; i++ {
		m = benchio.WorkOf(mustRun(b, q, opts).Stats)
	}
	b.ReportMetric(m.Resolutions, "resolutions")
	obs.End(b, m)
}

// benchSuiteGroup runs the benchio suite cases under the given name
// prefix as sub-benchmarks, so the root benchmarks and cmd/bench measure
// the exact same workloads (one source of truth, no drift).
func benchSuiteGroup(b *testing.B, prefix string) {
	matched := false
	for _, c := range benchio.Suite() {
		if !strings.HasPrefix(c.Name, prefix+"/") {
			continue
		}
		matched = true
		bench := c.Bench
		b.Run(strings.TrimPrefix(c.Name, prefix+"/"), func(b *testing.B) {
			obs := benchio.Begin(b)
			m := bench(b)
			if m.Resolutions > 0 {
				b.ReportMetric(m.Resolutions, "resolutions")
			}
			if m.Balance > 0 {
				b.ReportMetric(m.Balance, "balance")
			}
			obs.End(b, m)
		})
	}
	if !matched {
		b.Fatalf("no benchio suite cases under %q", prefix)
	}
}

// benchBCP is benchJoin for raw box-cover instances.
func benchBCP(b *testing.B, inst workload.BCP, opts core.Options) {
	obs := benchio.Begin(b)
	var m benchio.Metrics
	for i := 0; i < b.N; i++ {
		m = benchio.WorkOf(mustRunBCP(b, inst, opts).Stats)
	}
	b.ReportMetric(m.Resolutions, "resolutions")
	obs.End(b, m)
}

// BenchmarkTable1Acyclic — Table 1 row "α-acyclic: N+Z" (Thm D.8).
// Workloads defined once in benchio.Suite.
func BenchmarkTable1Acyclic(b *testing.B) {
	benchSuiteGroup(b, "Table1Acyclic")
}

// BenchmarkTable1AGM — Table 1 row "arbitrary: N+AGM" (Thm D.2); the
// dense triangle output meets the AGM bound N^{3/2}.
func BenchmarkTable1AGM(b *testing.B) {
	for _, m := range []uint64{8, 16, 24} {
		q := workload.TriangleDense(m, 10)
		b.Run(fmt.Sprintf("dense/N=%d", m*m), func(b *testing.B) {
			benchJoin(b, q, join.Options{Mode: core.Preloaded})
		})
	}
	for _, m := range []uint64{64, 256} {
		q := workload.TriangleAGMStar(m, 12)
		b.Run(fmt.Sprintf("star/m=%d", m), func(b *testing.B) {
			benchJoin(b, q, join.Options{Mode: core.Preloaded})
		})
	}
}

// BenchmarkTable1FHTW — Table 1 row "bounded fhtw: N^fhtw+Z" (Thm 4.6) on
// the triangle-with-tail query (tw 2, fhtw 3/2).
func BenchmarkTable1FHTW(b *testing.B) {
	for _, m := range []uint64{8, 16} {
		base := workload.TriangleDense(m, 10)
		u := relation.MustNewUniform("U", []string{"X", "Y"}, 10)
		for i := uint64(0); i < m; i++ {
			u.MustInsert(i, i)
		}
		q := join.MustNewQuery(append(base.Atoms(),
			join.Atom{Relation: u, Vars: []string{"C", "D"}})...)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			benchJoin(b, q, join.Options{Mode: core.Preloaded})
		})
	}
}

// BenchmarkTable1TreewidthW — Table 1 row "treewidth w: |C|^{w+1}+Z"
// (Thm 4.9): constant-certificate four-cycles at growing N.
func BenchmarkTable1TreewidthW(b *testing.B) {
	for _, d := range []uint8{4, 6, 8} {
		q := workload.FourCycleBlocks(d)
		b.Run(fmt.Sprintf("N=%d", 4<<(2*(d-1))), func(b *testing.B) {
			benchJoin(b, q, join.Options{Mode: core.Reloaded})
		})
	}
}

// BenchmarkTable1Treewidth1 — Table 1 row "treewidth 1: |C|+Z" (Thm 4.7):
// flat certificate-bound work as N grows 4096×.
func BenchmarkTable1Treewidth1(b *testing.B) {
	for _, d := range []uint8{4, 8, 12} {
		q := workload.BowtieBlock(d)
		b.Run(fmt.Sprintf("N=%d", 1<<(2*(d-1))), func(b *testing.B) {
			benchJoin(b, q, join.Options{Mode: core.Reloaded})
		})
	}
}

// BenchmarkFig2TreeOrderedAGM — Figure 2 upper bound Õ(AGM) for Tree
// Ordered resolution (Thm 5.1): caching disabled (every run is the
// TetrisSkeleton2 pass the theorem is stated for).
func BenchmarkFig2TreeOrderedAGM(b *testing.B) {
	for _, m := range []uint64{8, 16} {
		q := workload.TriangleDense(m, 10)
		b.Run(fmt.Sprintf("N=%d", m*m), func(b *testing.B) {
			benchJoin(b, q, join.Options{Mode: core.Preloaded, NoCache: true})
		})
	}
}

// BenchmarkFig2TreeOrderedLower — Figure 2 lower bound Ω(N^{n/2}) for
// Tree Ordered resolution on tw-1 queries (Thm 5.2 mechanism): cached vs
// no-cache on the cache-reuse family.
func BenchmarkFig2TreeOrderedLower(b *testing.B) {
	for _, m := range []uint64{8, 16} {
		q := workload.TreeOrderedHard(m)
		opts := join.Options{SAOVars: []string{"A", "B", "C"}}
		b.Run(fmt.Sprintf("cached/m=%d", m), func(b *testing.B) {
			benchJoin(b, q, opts)
		})
		optsN := opts
		optsN.NoCache = true
		b.Run(fmt.Sprintf("nocache/m=%d", m), func(b *testing.B) {
			benchJoin(b, q, optsN)
		})
	}
}

// BenchmarkFig2OrderedLower — Figure 2 lower bound Ω(|C|^{n-1}) for
// Ordered resolution (Thm 5.4): plain Tetris on Example F.1.
func BenchmarkFig2OrderedLower(b *testing.B) {
	for _, d := range []uint8{4, 5, 6} {
		inst := workload.ExampleF1(d)
		b.Run(fmt.Sprintf("C=%d", len(inst.Boxes)), func(b *testing.B) {
			benchBCP(b, inst, core.Options{Mode: core.Preloaded})
		})
	}
}

// BenchmarkFig2LBUpper — Figure 2 upper bound Õ(|C|^{n/2}+Z) (Thm 4.11):
// the Balance-lifted Tetris on the same family.
func BenchmarkFig2LBUpper(b *testing.B) {
	for _, d := range []uint8{4, 5, 6} {
		inst := workload.ExampleF1(d)
		b.Run(fmt.Sprintf("C=%d", len(inst.Boxes)), func(b *testing.B) {
			benchBCP(b, inst, core.Options{Mode: core.PreloadedLB})
		})
	}
}

// BenchmarkKleeBoolean — Corollary F.8: Boolean Klee's measure problem.
// Workloads defined once in benchio.Suite.
func BenchmarkKleeBoolean(b *testing.B) {
	benchSuiteGroup(b, "KleeBoolean")
}

// BenchmarkParallel — the sharded executor's speedup series on the
// largest canonical workloads across worker counts (workers=1 is the
// plain sequential engine). Workloads defined once in benchio.Suite.
func BenchmarkParallel(b *testing.B) {
	benchSuiteGroup(b, "Parallel")
}

// BenchmarkBalance — the work-stealing executor vs static sharding on
// skewed Zipf families; the balance metric (max/mean worker resolution
// share) is the series cmd/bench -gate-balance holds a floor on.
// Workloads defined once in benchio.Suite.
func BenchmarkBalance(b *testing.B) {
	benchSuiteGroup(b, "Balance")
}

// BenchmarkPlannerSkew — the statistics-driven SAO planner vs the
// natural order on the skewed adversarial families; the resolutions
// metric is the series cmd/bench -gate holds to the committed
// trajectory. Workloads defined once in benchio.Suite.
func BenchmarkPlannerSkew(b *testing.B) {
	benchSuiteGroup(b, "PlannerSkew")
}

// BenchmarkCertIndexPower — Appendix B.2 / Figure 13: certificate size
// under (A,B)- versus (B,A)-ordered indices.
func BenchmarkCertIndexPower(b *testing.B) {
	const m, d = 32, 8
	for _, order := range [][]string{{"X", "Y"}, {"Y", "X"}} {
		q := workload.GAOSensitive(m, d)
		atoms := q.Atoms()
		atoms[1].Indexes = []index.Index{index.MustSorted(atoms[1].Relation, order...)}
		q2 := join.MustNewQuery(atoms...)
		sao := []string{"A", "B"}
		if order[0] == "Y" {
			sao = []string{"B", "A"}
		}
		b.Run(fmt.Sprintf("order=%s%s", order[0], order[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := mustRun(b, q2, join.Options{SAOVars: sao})
				b.ReportMetric(float64(res.Stats.BoxesLoaded), "boxes")
			}
		})
	}
}

// BenchmarkBaselines compares the substrate join algorithms on the
// AGM-hard star triangle (the Table 1 "who wins" comparison).
// Workloads defined once in benchio.Suite.
func BenchmarkBaselines(b *testing.B) {
	benchSuiteGroup(b, "Baselines")
}

// BenchmarkYannakakisVsTetris compares Yannakakis and Tetris-Preloaded on
// an acyclic path query (Table 1 row 1's two contenders).
func BenchmarkYannakakisVsTetris(b *testing.B) {
	q := workload.PathQuery(3, 2000, 12, 99)
	b.Run("yannakakis", func(b *testing.B) {
		obs := benchio.Begin(b)
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Yannakakis(q); err != nil {
				b.Fatal(err)
			}
		}
		obs.End(b, benchio.Metrics{})
	})
	b.Run("tetris-preloaded", func(b *testing.B) {
		benchJoin(b, q, join.Options{Mode: core.Preloaded})
	})
}
