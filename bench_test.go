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
		p := warmStar(b)
		b.ReportAllocs()
		b.ResetTimer()
		var resolutions int64
		for i := 0; i < b.N; i++ {
			res, err := p.Execute(starOpts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.IndexBuilds != 0 {
				b.Fatalf("steady-state execution built %d indexes", res.Stats.IndexBuilds)
			}
			resolutions += res.Stats.Resolutions
		}
		reportResolutions(b, resolutions)
	})
	for _, mode := range []core.Mode{core.Preloaded, core.Reloaded} {
		b.Run("tetris-"+mode.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var resolutions int64
			for i := 0; i < b.N; i++ {
				res, err := join.Execute(q, join.Options{Mode: mode, Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				resolutions += res.Stats.Resolutions
			}
			reportResolutions(b, resolutions)
		})
	}
}

// reportResolutions reports the paper's unit of engine work beside the
// time: geometric resolutions per op, and the time each one took.
func reportResolutions(b *testing.B, resolutions int64) {
	b.ReportMetric(float64(resolutions)/float64(b.N), "resolutions/op")
	if resolutions > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(resolutions), "ns/resolution")
	}
}

// starOpts runs the prepared star triangle sequentially, over its shared
// Preloaded base.
var starOpts = join.Options{Mode: core.Preloaded, Parallelism: 1}

// warmStar prepares the star triangle and executes it once, so that its
// plan, indexes and Preloaded base are built and the pooled knowledge-base
// tree has grown.
func warmStar(tb testing.TB) *catalog.Prepared {
	tb.Helper()
	p, err := catalog.New().PrepareQuery(workload.TriangleAGMStar(64, 12), starOpts)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Execute(starOpts); err != nil {
		tb.Fatal(err)
	}
	return p
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestPreparedStarAllocs pins the allocations of a warm prepared exec of
// the star triangle: one per output tuple (190) and 40 for the run around
// them. The recursion allocates nothing, however many frames it visits:
// its scratch, frontier and line-root arenas are watermark-managed and
// start in backing stores inside the skeleton, which the star's run never
// outgrows. The race detector
// drops pooled objects at random, so it is not counted there.
func TestPreparedStarAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	p := warmStar(t)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := p.Execute(starOpts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 230 {
		t.Errorf("a warm prepared exec allocates %v times, want 230", allocs)
	}
}
