package benchio

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/durable"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/klee"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/wal"
	"tetrisjoin/internal/workload"
)

// Metrics are the work-distribution measures a benchmark body reports
// alongside the timing the framework collects: resolutions/op (the
// paper's cost measure), skeleton calls/op (the steps spent on them)
// and, for parallel runs, the max/mean worker balance share. All are
// deterministic enough to compare across machine classes, unlike ns/op.
type Metrics struct {
	Resolutions   float64
	SkeletonCalls float64
	Balance       float64
	// IndexBuilds is the number of index constructions one operation
	// performed — reported by the Recovery series, where it is
	// deterministic (segment-backed recovery commits 0).
	IndexBuilds float64
}

// WorkOf reads a run's work metrics off its statistics. Skeleton calls
// are reported for sequential runs only: a parallel run's count includes
// the re-entries of passes that unwound to donate, which depend on
// scheduling.
func WorkOf(s core.Stats) Metrics {
	m := Metrics{Resolutions: float64(s.Resolutions), Balance: balanceOf(s)}
	if s.ParallelWorkers <= 1 {
		m.SkeletonCalls = float64(s.SkeletonCalls)
	}
	return m
}

// balanceOf extracts the max/mean worker resolution share from a run's
// statistics: MaxWorkerResolutions / (Resolutions / ParallelWorkers),
// 0 for sequential runs or runs that did no resolution work.
func balanceOf(s core.Stats) float64 {
	if s.ParallelWorkers <= 1 || s.Resolutions == 0 {
		return 0
	}
	return float64(s.MaxWorkerResolutions) / (float64(s.Resolutions) / float64(s.ParallelWorkers))
}

// Case is one benchmark of the canonical suite. Bench runs the measured
// body b.N times and returns the work metrics of one operation (zero
// when not applicable). Workloads are constructed when Suite is called —
// except the large parallel-series instances, which build lazily on
// first use — so Bench bodies contain nothing but the measured loop.
type Case struct {
	Name  string
	Bench func(b *testing.B) Metrics
}

// Suite is the canonical benchmark set of the performance trajectory:
// the Table 1 acyclic series (the worst-case-optimal workhorse), the
// algorithm shoot-out on the AGM-hard star triangle, and the Boolean
// Klee instances. It is the single source of truth for these workloads:
// the identically named benchmarks in the repository root iterate this
// suite, so numbers from cmd/bench and from `go test -bench` always
// describe the same work.
func Suite() []Case {
	cases := []Case{}
	for _, n := range []int{250, 1000, 4000} {
		q := workload.PathQuery(3, n, 12, int64(n))
		cases = append(cases, Case{
			Name:  fmt.Sprintf("Table1Acyclic/N=%d", 3*n),
			Bench: execBench(q, join.Options{Mode: core.Preloaded}),
		})
	}
	star := workload.TriangleAGMStar(64, 12)
	cases = append(cases,
		Case{Name: "Baselines/tetris-preloaded", Bench: execBench(star, join.Options{Mode: core.Preloaded})},
		Case{Name: "Baselines/tetris-reloaded", Bench: execBench(star, join.Options{Mode: core.Reloaded})},
		Case{Name: "Baselines/generic-join", Bench: func(b *testing.B) Metrics {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.GenericJoin(star, nil); err != nil {
					b.Fatal(err)
				}
			}
			return Metrics{}
		}},
		Case{Name: "Baselines/leapfrog", Bench: func(b *testing.B) Metrics {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Leapfrog(star, nil); err != nil {
					b.Fatal(err)
				}
			}
			return Metrics{}
		}},
		Case{Name: "Baselines/hash-join", Bench: func(b *testing.B) Metrics {
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.HashJoin(star); err != nil {
					b.Fatal(err)
				}
			}
			return Metrics{}
		}},
	)
	for _, m := range []int{32, 128} {
		inst := workload.RandomBoxes(3, m, 8, int64(m))
		cases = append(cases, Case{
			Name: fmt.Sprintf("KleeBoolean/B=%d", m),
			Bench: func(b *testing.B) Metrics {
				for i := 0; i < b.N; i++ {
					if _, err := klee.CoversSpace(inst.Depths, inst.Boxes); err != nil {
						b.Fatal(err)
					}
				}
				return Metrics{}
			},
		})
	}
	// Parallel speedup series: the sharded executor on the largest
	// Table 1 acyclic instance and on an output-heavy dense triangle,
	// across worker counts. workers=1 is the plain sequential engine, so
	// the per-entry ratios are the executor's true speedup (on multi-core
	// hardware; a GOMAXPROCS=1 machine records the sharding overhead
	// instead). The instances are built lazily on first use — and the
	// series sits at the end of the suite — so the other cases never pay
	// GC pressure for these large live workloads.
	bigPath := sync.OnceValue(func() *join.Query { return workload.PathQuery(3, 4000, 12, 4000) })
	bigTri := sync.OnceValue(func() *join.Query { return workload.TriangleDense(40, 12) })
	for _, workers := range []int{1, 2, 4, 8} {
		cases = append(cases,
			Case{
				Name:  fmt.Sprintf("Parallel/Table1Acyclic/N=12000/workers=%d", workers),
				Bench: lazyExecBench(bigPath, join.Options{Mode: core.Preloaded, Parallelism: workers}),
			},
			Case{
				Name:  fmt.Sprintf("Parallel/TriangleDense/m=40/workers=%d", workers),
				Bench: lazyExecBench(bigTri, join.Options{Mode: core.Preloaded, Parallelism: workers}),
			},
		)
	}
	// Prepared amortization series: Nth-execution cost of a catalog-
	// prepared statement (warm indexes, memoized B(Q), shared Preloaded
	// base) vs the one-shot cost that pays planning and index builds on
	// every call. Sequential (Parallelism 1): the ratio measures
	// amortization of per-query constant work, not thread throughput.
	prepPath := sync.OnceValue(func() *join.Query { return workload.PathQuery(3, 1000, 12, 1000) })
	prepStar := sync.OnceValue(func() *join.Query { return workload.TriangleAGMStar(64, 12) })
	for _, inst := range []struct {
		name string
		mk   func() *join.Query
	}{
		{"Prepared/Table1Acyclic/N=3000", prepPath},
		{"Prepared/TriangleStar/m=64", prepStar},
	} {
		opts := join.Options{Mode: core.Preloaded, Parallelism: 1}
		cases = append(cases,
			Case{Name: inst.name + "/oneshot", Bench: lazyExecBench(inst.mk, opts)},
			Case{Name: inst.name + "/steady", Bench: lazyPreparedBench(inst.mk, opts)},
		)
	}
	// Incremental maintenance series: per-iteration cost of a 1-tuple
	// Append followed by Execute on the Table 1 acyclic workhorse. The
	// patched entry serves the query from a maintained statement (delta
	// passes over the prior result, O(k) index layers); the recompute
	// entry re-runs the query from scratch after every write — the two
	// ends of the maintained-vs-recompute trade EXPERIMENTS.md tabulates.
	cases = append(cases,
		Case{Name: "Maintained/Table1Acyclic/N=3000/patched", Bench: maintainedBench(1000, true)},
		Case{Name: "Maintained/Table1Acyclic/N=3000/recompute", Bench: maintainedBench(1000, false)},
	)
	// Planner skew series: the statistics-driven SAO planner against the
	// natural (first-occurrence) order on the skewed adversarial
	// families it exists for. The resolutions/op column is the series
	// that matters — it is deterministic for a fixed workload and plan,
	// so `cmd/bench -gate` holds the planned entries to the committed
	// trajectory (a >5% resolution regression fails CI) on any machine
	// class, while ns/op stays class-local context.
	for _, inst := range []struct {
		name string
		mk   func() *join.Query
	}{
		{"SkewedTriangle", sync.OnceValue(func() *join.Query { return workload.SkewedTriangle(32, 6) })},
		{"SkewedFourCycle", sync.OnceValue(func() *join.Query { return workload.SkewedFourCycle(16, 5) })},
		{"HeavyValueMismatch", sync.OnceValue(func() *join.Query { return workload.HeavyValueMismatch(32, 6) })},
		{"GAOSensitive", sync.OnceValue(func() *join.Query { return workload.GAOSensitive(32, 6) })},
		{"PinnedChain", sync.OnceValue(func() *join.Query { return workload.PinnedChain(512, 26) })},
	} {
		cases = append(cases,
			Case{
				Name:  "PlannerSkew/" + inst.name + "/planned",
				Bench: lazyExecBench(inst.mk, join.Options{Strategy: join.SAOPlanned, Mode: core.Reloaded}),
			},
			Case{
				Name:  "PlannerSkew/" + inst.name + "/natural",
				Bench: lazyExecBench(inst.mk, join.Options{Strategy: join.SAONatural, Mode: core.Reloaded}),
			},
		)
	}
	// Balance series: the work-stealing executor against static sharding
	// on skewed Zipf families whose resolution mass piles onto the
	// heavy-value corner of the first SAO attribute — the regime where
	// static SAO-prefix shards leave one worker doing everything. The
	// balance column (max/mean worker resolution share; see Metrics) is
	// the series that matters: deterministic enough to gate on across
	// machine classes via `cmd/bench -gate-balance`, which requires the
	// static/stealing share ratio of each family to clear a floor. Both
	// entries run at Parallelism 4 in Reloaded mode; only StealDepth
	// differs (-1 = static seeds, 0 = default dynamic splitting).
	balanceFams := []struct {
		name string
		mk   func() *join.Query
	}{
		{"ZipfTriangle", sync.OnceValue(func() *join.Query { return workload.ZipfTriangle(3000, 12, 1.1, 7) })},
		{"ZipfStar", sync.OnceValue(func() *join.Query { return workload.ZipfStar(3, 300, 10, 1.2, 11) })},
		{"ZipfFourCycle", sync.OnceValue(func() *join.Query { return workload.ZipfFourCycle(800, 11, 1.2, 19) })},
	}
	for _, fam := range balanceFams {
		cases = append(cases,
			Case{
				Name:  "Balance/" + fam.name + "/static",
				Bench: lazyExecBench(fam.mk, join.Options{Mode: core.Reloaded, Parallelism: 4, StealDepth: -1}),
			},
			Case{
				Name:  "Balance/" + fam.name + "/stealing",
				Bench: lazyExecBench(fam.mk, join.Options{Mode: core.Reloaded, Parallelism: 4}),
			},
		)
	}
	// Recovery series: durable.Open over the same catalog image — three
	// relations, four maintained index families each — persisted two
	// ways. replay recovers from the raw WAL (re-ingest plus rebuild);
	// segment loads the frozen index slabs and builds nothing. The
	// index_builds_per_op column is deterministic (segment commits 0;
	// `cmd/bench -gate-builds` pins it).
	for _, mode := range []string{"replay", "segment"} {
		cases = append(cases, Case{
			Name:  "Recovery/" + mode,
			Bench: recoveryBench(mode),
		})
	}
	// Checkpoint series: one (append → Checkpoint) iteration against a
	// ten-relation catalog. full touches every relation before the
	// checkpoint, so all ten are re-frozen; incremental touches one, so
	// nine segment files are re-referenced and the write is O(churn) —
	// the bytes/op ratio between the two entries is the incremental-
	// checkpoint claim.
	cases = append(cases,
		Case{Name: "Checkpoint/full", Bench: checkpointBench(10)},
		Case{Name: "Checkpoint/incremental", Bench: checkpointBench(1)},
	)
	return cases
}

// recoverySeed ingests the Recovery-series catalog: three relations of
// 4000 tuples over 12-bit attributes, each maintaining both B-tree
// orders plus the dyadic and k-d families.
func recoverySeed(d *durable.Catalog) error {
	rng := rand.New(rand.NewSource(99))
	for i := 1; i <= 3; i++ {
		rel := relation.MustNewUniform(fmt.Sprintf("R%d", i), []string{"X", "Y"}, 12)
		seen := map[[2]uint64]bool{}
		for len(seen) < 16000 {
			t := [2]uint64{uint64(rng.Intn(1 << 12)), uint64(rng.Intn(1 << 12))}
			if seen[t] {
				continue
			}
			seen[t] = true
			rel.MustInsert(t[0], t[1])
		}
		specs := []index.Spec{
			index.BTreeSpec("X", "Y"), index.BTreeSpec("Y", "X"),
			index.DyadicSpec(), index.KDTreeSpec(),
		}
		if _, err := d.Ingest(rel, specs...); err != nil {
			return err
		}
	}
	return nil
}

// recoveryBench measures durable.Open per op against a fixed image:
// mode replay is WAL-only, segment is an index-segment checkpoint.
func recoveryBench(mode string) func(b *testing.B) Metrics {
	image := sync.OnceValues(func() (*wal.MemFS, error) {
		fs := wal.NewMemFS()
		d, err := durable.Open("", durable.Options{FS: fs, CheckpointEvery: -1})
		if err != nil {
			return nil, err
		}
		if err := recoverySeed(d); err != nil {
			return nil, err
		}
		if mode == "segment" {
			if err := d.Checkpoint(); err != nil {
				return nil, err
			}
		}
		return fs, d.Close()
	})
	return func(b *testing.B) Metrics {
		fs, err := image()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var builds float64
		for i := 0; i < b.N; i++ {
			// The image copy models the files sitting on disk; it is
			// harness bookkeeping, not recovery work, so it stays off
			// the clock.
			b.StopTimer()
			img := fs.Clone()
			b.StartTimer()
			d, err := durable.Open("", durable.Options{FS: img, CheckpointEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			builds = float64(d.IndexBuilds())
			if mode == "segment" && builds != 0 {
				b.Fatalf("segment-backed recovery built %v indexes", builds)
			}
			d.Close()
		}
		return Metrics{IndexBuilds: builds}
	}
}

// checkpointBench measures one (append to `touch` relations →
// Checkpoint) iteration against a ten-relation durable catalog built
// outside the timer. touch=10 re-freezes everything per op; touch=1 is
// the O(churn) incremental path.
func checkpointBench(touch int) func(b *testing.B) Metrics {
	return func(b *testing.B) Metrics {
		fs := wal.NewMemFS()
		d, err := durable.Open("", durable.Options{FS: fs, CheckpointEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 10; i++ {
			rel := relation.MustNewUniform(fmt.Sprintf("T%d", i), []string{"X", "Y"}, 12)
			seen := map[[2]uint64]bool{}
			for len(seen) < 2000 {
				t := [2]uint64{uint64(rng.Intn(1 << 12)), uint64(rng.Intn(1 << 12))}
				if seen[t] {
					continue
				}
				seen[t] = true
				rel.MustInsert(t[0], t[1])
			}
			if _, err := d.Ingest(rel, index.BTreeSpec("X", "Y"), index.DyadicSpec()); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < touch; j++ {
				name := fmt.Sprintf("T%d", j)
				t := relation.Tuple{uint64(rng.Intn(1 << 12)), uint64(rng.Intn(1 << 12))}
				if _, err := d.Append(name, t); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		return Metrics{}
	}
}

// maintainedBench measures one (1-tuple Append → Execute) iteration
// against a catalog holding the Table1Acyclic relations. With patched
// set, executions go through a maintained statement primed outside the
// timer (so the loop is the steady-state refresh path and must never
// fall back to recompute); otherwise every iteration re-executes from
// scratch over the current versions, fresh indexes included.
func maintainedBench(n int, patched bool) func(b *testing.B) Metrics {
	return func(b *testing.B) Metrics {
		q := workload.PathQuery(3, n, 12, int64(n))
		cat := catalog.New()
		var atomTexts []string
		for _, a := range q.Atoms() {
			if _, err := cat.Ingest(a.Relation); err != nil {
				b.Fatal(err)
			}
			atomTexts = append(atomTexts, a.Relation.Name()+"("+strings.Join(a.Vars, ",")+")")
		}
		text := strings.Join(atomTexts, ", ")
		opts := join.Options{Mode: core.Preloaded, Parallelism: 1}

		rng := rand.New(rand.NewSource(int64(n) + 1))
		freshTuple := func() relation.Tuple {
			rel, _ := cat.Relation("R2")
			for {
				t := relation.Tuple{uint64(rng.Intn(1 << 12)), uint64(rng.Intn(1 << 12))}
				if !rel.Contains(t...) {
					return t
				}
			}
		}

		var m *catalog.Maintained
		if patched {
			var err error
			m, err = cat.Maintain(text, opts)
			if err != nil {
				b.Fatal(err)
			}
			// Prime one refresh so the first delta layer exists before
			// the timer starts.
			if _, err := cat.Append("R2", freshTuple()); err != nil {
				b.Fatal(err)
			}
			if _, err := m.Execute(join.Options{}); err != nil {
				b.Fatal(err)
			}
		}

		b.ResetTimer()
		var resolutions float64
		for i := 0; i < b.N; i++ {
			if _, err := cat.Append("R2", freshTuple()); err != nil {
				b.Fatal(err)
			}
			if patched {
				res, err := m.Execute(join.Options{})
				if err != nil {
					b.Fatal(err)
				}
				resolutions = float64(res.Stats.Resolutions)
				continue
			}
			cur, err := cat.Parse(text)
			if err != nil {
				b.Fatal(err)
			}
			res, err := join.Execute(cur, opts)
			if err != nil {
				b.Fatal(err)
			}
			resolutions = float64(res.Stats.Resolutions)
		}
		b.StopTimer()
		if patched && m.Recomputes() != 0 {
			b.Fatalf("maintained loop fell back to %d recomputes", m.Recomputes())
		}
		return Metrics{Resolutions: resolutions}
	}
}

// execBench builds a standard Execute-per-op benchmark body (planning
// included, as an end-to-end query costs it too). An unset Parallelism is
// pinned to 1: the canonical entries track the sequential trajectory, and
// the parallel series sets its worker count explicitly.
func execBench(q *join.Query, opts join.Options) func(b *testing.B) Metrics {
	if opts.Parallelism == 0 {
		opts.Parallelism = 1
	}
	return func(b *testing.B) Metrics {
		var m Metrics
		for i := 0; i < b.N; i++ {
			res, err := join.Execute(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			m = WorkOf(res.Stats)
		}
		return m
	}
}

// lazyExecBench is execBench over a workload built on first use (the
// timer restarts after construction, so the build is never measured).
func lazyExecBench(mk func() *join.Query, opts join.Options) func(b *testing.B) Metrics {
	return func(b *testing.B) Metrics {
		inner := execBench(mk(), opts)
		b.ResetTimer()
		return inner(b)
	}
}

// lazyPreparedBench measures the steady-state cost of a catalog-
// prepared statement: preparation and one priming execution (which
// builds the plan's shared Preloaded base) happen outside the timer, so
// the loop is the Nth-execution hot path — zero index builds, memoized
// gap set, shared knowledge base.
func lazyPreparedBench(mk func() *join.Query, opts join.Options) func(b *testing.B) Metrics {
	return func(b *testing.B) Metrics {
		cat := catalog.New()
		p, err := cat.PrepareQuery(mk(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Execute(opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var m Metrics
		for i := 0; i < b.N; i++ {
			res, err := p.Execute(opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.IndexBuilds != 0 {
				b.Fatalf("steady-state execution built %d indexes", res.Stats.IndexBuilds)
			}
			m = WorkOf(res.Stats)
		}
		return m
	}
}

// RunSuite benchmarks every case whose name matches filter (nil = all)
// via testing.Benchmark and returns the report.
func RunSuite(filter *regexp.Regexp) *Report {
	rep := NewReport()
	for _, c := range Suite() {
		if filter != nil && !filter.MatchString(c.Name) {
			continue
		}
		var m Metrics
		bench := c.Bench
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			m = bench(b)
		})
		e := Entry{
			Name:               c.Name,
			N:                  r.N,
			NsPerOp:            float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:        float64(r.AllocsPerOp()),
			BytesPerOp:         float64(r.AllocedBytesPerOp()),
			ResolutionsPerOp:   m.Resolutions,
			SkeletonCallsPerOp: m.SkeletonCalls,
			IndexBuildsPerOp:   m.IndexBuilds,
			Balance:            m.Balance,
		}
		stamp(&e)
		rep.Set(e)
	}
	return rep
}
