// BenchmarkStarTriangle puts Tetris beside Leapfrog Triejoin on the
// AGM-hard star triangle, the Table 1 "who wins" comparison:
//
//	go test -run=NONE -bench=StarTriangle .
//
// Timings of the served engine live in bench/; the paper's cost measure,
// geometric resolutions, is deterministic and pinned by the go tests.
package tetrisjoin_test

import (
	"testing"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/workload"
)

// BenchmarkStarTriangle runs Leapfrog, a prepared Tetris statement in its
// steady state (plan, indexes and Preloaded base built before the timer),
// and one-shot Preloaded and Reloaded Tetris executions that pay planning
// and index builds on every op. Tetris runs sequentially.
func BenchmarkStarTriangle(b *testing.B) {
	q := workload.TriangleAGMStar(64, 12)
	b.Run("leapfrog", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Leapfrog(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tetris", func(b *testing.B) {
		opts := join.Options{Mode: core.Preloaded, Parallelism: 1}
		p, err := catalog.New().PrepareQuery(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Execute(opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := p.Execute(opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.IndexBuilds != 0 {
				b.Fatalf("steady-state execution built %d indexes", res.Stats.IndexBuilds)
			}
		}
	})
	for _, mode := range []core.Mode{core.Preloaded, core.Reloaded} {
		b.Run("tetris-"+mode.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := join.Execute(q, join.Options{Mode: mode, Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
