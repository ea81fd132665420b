// Ablation benchmarks for the design choices DESIGN.md calls out:
// resolvent caching (line 19 of Algorithm 1), knowledge-base subsumption
// compaction, and the SAO choice.
package tetrisjoin_test

import (
	"fmt"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/sat"
	"tetrisjoin/internal/workload"
)

// BenchmarkAblationCaching — resolvent caching on/off on the cache-reuse
// family (the Thm 5.2 separation).
func BenchmarkAblationCaching(b *testing.B) {
	q := workload.TreeOrderedHard(16)
	opts := join.Options{SAOVars: []string{"A", "B", "C"}, Mode: core.Preloaded}
	b.Run("cache=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := mustRun(b, q, opts)
			b.ReportMetric(float64(res.Stats.Resolutions), "resolutions")
		}
	})
	noCache := opts
	noCache.NoCache = true
	b.Run("cache=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := mustRun(b, q, noCache)
			b.ReportMetric(float64(res.Stats.Resolutions), "resolutions")
		}
	})
}

// BenchmarkAblationSubsumption — knowledge-base compaction on/off.
func BenchmarkAblationSubsumption(b *testing.B) {
	q := workload.PathQuery(3, 512, 12, 512)
	b.Run("subsume=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustRun(b, q, join.Options{Mode: core.Preloaded})
		}
	})
	b.Run("subsume=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustRun(b, q, join.Options{Mode: core.Preloaded, DisableSubsume: true})
		}
	})
}

// BenchmarkAblationSAO — the prescribed SAO versus adversarial orders on
// the GAO-sensitive instance.
func BenchmarkAblationSAO(b *testing.B) {
	for _, sao := range [][]string{{"B", "A"}, {"A", "B"}} {
		q := workload.GAOSensitive(32, 8)
		b.Run(fmt.Sprintf("sao=%s%s", sao[0], sao[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustRun(b, q, join.Options{SAOVars: sao})
				b.ReportMetric(float64(res.Stats.BoxesLoaded), "boxes")
			}
		})
	}
}

// BenchmarkSATPigeonhole — the DPLL correspondence: clause learning
// (caching) vs plain DPLL on PHP(6,5).
func BenchmarkSATPigeonhole(b *testing.B) {
	php := sat.Pigeonhole(6, 5)
	b.Run("learning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sat.Count(php, sat.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.Resolutions), "resolutions")
		}
	})
	b.Run("plain-dpll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sat.Count(php, sat.Options{NoLearning: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.Resolutions), "resolutions")
		}
	})
}
