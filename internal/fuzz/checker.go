package fuzz

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/lb"
)

// Discrepancy reports a cross-engine disagreement (or an engine failure)
// on a case: which configuration diverged, from what reference, and the
// first divergent tuple.
type Discrepancy struct {
	// Config identifies the failing engine configuration, e.g.
	// "tetris-preloaded sao=[B A] workers=2".
	Config string
	// Detail is a human-readable description of the disagreement.
	Detail string
	// Got and Want are the result cardinalities (engine vs reference),
	// when cardinalities are meaningful for the failing check.
	Got, Want int
	// Diff points at the first divergent tuple, when tuple lists were
	// compared.
	Diff *baseline.Divergence
}

// String implements fmt.Stringer.
func (d *Discrepancy) String() string {
	s := fmt.Sprintf("[%s] %s", d.Config, d.Detail)
	if d.Diff != nil {
		s += fmt.Sprintf(" (first divergence at #%d: got %v, want %v)", d.Diff.Index, d.Diff.Got, d.Diff.Want)
	}
	return s
}

// Checker is the differential oracle. It executes a case through every
// engine configuration and cross-checks the results; the zero
// configuration checks nothing, use NewChecker for the default matrix.
type Checker struct {
	// Workers are the work-stealing executor's worker counts the matrix
	// crosses with every plain mode and SAO.
	Workers []int
	// MaxSAOs caps the number of splitting attribute orders tried per
	// case (all n! permutations are tried when they fit the cap).
	MaxSAOs int
	// WrapOracle, when non-nil, wraps every oracle handed to the Tetris
	// engines. Tests use it to inject faults (e.g. an oracle hiding one
	// gap box) and assert the pipeline catches and shrinks them.
	WrapOracle func(core.Oracle) core.Oracle
	// CrashOnly restricts Check to the CrashRecovery configuration:
	// query cases run only the WAL-crash differential (cmd/fuzz -kind
	// crash), box cover cases are skipped.
	CrashOnly bool
	// PlannerOnly restricts Check to the PlannerDifferential
	// configuration: query cases run only the planner-transparency
	// checks (cmd/fuzz -kind planner), box cover cases are skipped.
	PlannerOnly bool
}

// NewChecker returns the default configuration: workers {1,2,4}, at most
// 7 SAOs per case.
func NewChecker() *Checker {
	return &Checker{
		Workers: []int{1, 2, 4},
		MaxSAOs: 7,
	}
}

// Check runs the full differential matrix on one case. It returns a
// non-nil Discrepancy when any engine disagrees with the reference (or
// errors at runtime), and a non-nil error only when the case itself is
// invalid — malformed tuples, inconsistent depths — and nothing could be
// checked. Shrinker candidates that turn invalid are thereby rejected
// rather than mistaken for failures.
func (ck *Checker) Check(c Case) (*Discrepancy, error) {
	if ck.CrashOnly || ck.PlannerOnly {
		if c.Kind() != QueryKind {
			return nil, nil
		}
		if _, err := c.BuildQuery(); err != nil {
			return nil, err
		}
		if ck.PlannerOnly {
			return ck.checkPlanner(c), nil
		}
		return ck.checkCrashRecovery(c), nil
	}
	if c.Kind() == QueryKind {
		return ck.checkQuery(c)
	}
	return ck.checkBCP(c)
}

// wrap applies the fault-injection hook, if any.
func (ck *Checker) wrap(o core.Oracle) core.Oracle {
	if ck.WrapOracle != nil {
		return ck.WrapOracle(o)
	}
	return o
}

// sortedCopy returns the tuples in baseline.SortTuples order without
// disturbing the engine's enumeration-order slice.
func sortedCopy(ts [][]uint64) [][]uint64 {
	out := make([][]uint64, len(ts))
	copy(out, ts)
	baseline.SortTuples(out)
	return out
}

// diffTuples compares an engine's (unordered) output against the sorted
// reference.
func diffTuples(config string, got, ref [][]uint64) *Discrepancy {
	sorted := sortedCopy(got)
	if d := baseline.FirstDivergence(sorted, ref); d != nil {
		return &Discrepancy{
			Config: config,
			Detail: fmt.Sprintf("output disagrees with reference: %d tuples, want %d", len(got), len(ref)),
			Got:    len(got), Want: len(ref), Diff: d,
		}
	}
	return nil
}

// saoCandidates enumerates the splitting attribute orders to try: all
// n! permutations when they fit the cap, otherwise identity, reversal
// and rotations.
func saoCandidates(n, cap int) [][]int {
	total := 1
	for i := 2; i <= n; i++ {
		total *= i
	}
	var out [][]int
	if total <= cap {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var emit func(k int)
		emit = func(k int) {
			if k == n {
				out = append(out, append([]int(nil), perm...))
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				emit(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		emit(0)
		return out
	}
	for r := 0; r < n && len(out) < cap-1; r++ {
		rot := make([]int, n)
		for i := range rot {
			rot[i] = (i + r) % n
		}
		out = append(out, rot)
	}
	rev := make([]int, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	out = append(out, rev)
	return out
}

// checkQuery cross-checks a query case: the baseline engines against
// Generic Join as ground truth, then Tetris in every mode × SAO ×
// shard/worker configuration (enumerate, count and Boolean variants)
// against the same reference, plus budget, cancellation and accounting
// invariants.
func (ck *Checker) checkQuery(c Case) (*Discrepancy, error) {
	q, err := c.BuildQuery()
	if err != nil {
		return nil, err
	}
	n := len(q.Vars())

	ref, err := baseline.GenericJoin(q, nil)
	if err != nil {
		return nil, err
	}
	refSet := map[string]bool{}
	for _, t := range ref {
		refSet[tupleKeyString(t)] = true
	}

	// Baselines against the reference.
	if d := ck.checkBaselines(q, ref); d != nil {
		return d, nil
	}

	// The serving lifecycle: ingest → prepare → execute twice through a
	// catalog, under the same oracle as every other engine configuration.
	if d := ck.checkCatalogPrepared(c, ref); d != nil {
		return d, nil
	}

	// Incremental maintenance: a maintained statement driven through a
	// deterministic append/delete script, byte-identical to scratch
	// recomputes after every write.
	if d := ck.checkIncrementalMaintained(c); d != nil {
		return d, nil
	}

	// Crash recovery: the same relations driven through a WAL-backed
	// durable catalog with crashes injected at random byte offsets;
	// every recovery must answer byte-identically to an oracle that saw
	// only the durably-acknowledged prefix.
	if d := ck.checkCrashRecovery(c); d != nil {
		return d, nil
	}

	// The statistics-driven planner: deterministic decisions and planned
	// executions agreeing with the reference.
	if d := ck.checkPlanner(c); d != nil {
		return d, nil
	}

	// Tetris in every configuration. SAO candidates: every permutation
	// (capped), plus the planner's automatic choice.
	saos := saoCandidates(n, ck.MaxSAOs)
	if auto, err := join.ChooseSAO(q, join.Options{}); err == nil {
		dup := false
		for _, s := range saos {
			if sameInts(s, auto) {
				dup = true
				break
			}
		}
		if !dup {
			saos = append(saos, auto)
		}
	}

	for si, sao := range saos {
		saoVars := make([]string, n)
		for i, pos := range sao {
			saoVars[i] = q.Vars()[pos]
		}
		plan, err := join.NewPlan(q, join.Options{SAOVars: saoVars})
		if err != nil {
			return nil, err
		}
		mk := func() core.Oracle { return ck.wrap(plan.NewOracle()) }
		if d := ck.checkEngines(engineCase{
			label:    fmt.Sprintf("query sao=%v", saoVars),
			depths:   q.Depths(),
			sao:      plan.SAO(),
			mkOracle: mk,
			ref:      ref,
			refSet:   refSet,
			probes:   si == 0, // LB/budget/cancellation probes once per case
		}); d != nil {
			return d, nil
		}
	}
	return nil, nil
}

// checkCatalogPrepared is the CatalogPrepared engine configuration: the
// case's relations are ingested into a fresh catalog, the query is
// prepared and executed twice per plain mode, and the runs must (a)
// agree with the reference, (b) be byte-identical to each other in
// enumeration order, (c) prove amortization — the first execution
// reports the indexes it built, the second reports IndexBuilds == 0 —
// and (d) report the same work otherwise, every counter.
// The prepared count must agree with the reference cardinality too.
func (ck *Checker) checkCatalogPrepared(c Case, ref [][]uint64) *Discrepancy {
	// Rebuild the case's relations so the catalog owns fresh snapshots
	// (the caller's query keeps its own instances untouched).
	q, err := c.BuildQuery()
	if err != nil {
		return &Discrepancy{Config: "catalog-prepared", Detail: fmt.Sprintf("rebuild: %v", err)}
	}
	cat := catalog.New()
	ingested := map[string]bool{}
	var atoms []string
	for _, a := range q.Atoms() {
		if !ingested[a.Relation.Name()] {
			ingested[a.Relation.Name()] = true
			if _, err := cat.Ingest(a.Relation); err != nil {
				return &Discrepancy{Config: "catalog-prepared", Detail: fmt.Sprintf("ingest %s: %v", a.Relation.Name(), err)}
			}
		}
		atoms = append(atoms, a.Relation.Name()+"("+strings.Join(a.Vars, ",")+")")
	}
	text := strings.Join(atoms, ", ")

	for mi, mode := range []core.Mode{core.Reloaded, core.Preloaded} {
		config := fmt.Sprintf("catalog-prepared/%v", mode)
		opts := join.Options{Mode: mode, Parallelism: 1}
		first, err := cat.Execute(text, opts)
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("first execution: %v", err)}
		}
		if mi == 0 && first.Stats.IndexBuilds == 0 {
			return &Discrepancy{Config: config,
				Detail: "cold execution reported zero index builds; preparation cost unaccounted"}
		}
		if mi > 0 && first.Stats.IndexBuilds != 0 {
			// A later mode hits the plan the first one cached (plans are
			// mode-free), so it must build no index.
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("mode change rebuilt %d indexes; registry should have served them", first.Stats.IndexBuilds),
				Got:    int(first.Stats.IndexBuilds), Want: 0}
		}
		if d := diffTuples(config+"/first", first.Tuples, ref); d != nil {
			return d
		}
		second, err := cat.Execute(text, opts)
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("second execution: %v", err)}
		}
		if second.Stats.IndexBuilds != 0 {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("second execution built %d indexes, want 0 (amortization broken)", second.Stats.IndexBuilds),
				Got:    int(second.Stats.IndexBuilds), Want: 0}
		}
		// Byte-identical output: exact enumeration-order equality, not
		// just set equality.
		if d := baseline.FirstDivergence(second.Tuples, first.Tuples); d != nil {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("second execution order differs from first (%d tuples vs %d)", len(second.Tuples), len(first.Tuples)),
				Got:    len(second.Tuples), Want: len(first.Tuples), Diff: d}
		}
		// One load path: the miss memoizes the plan's base and the hit
		// reuses it, so both report the same work but for the builds.
		cold, warm := first.Stats, second.Stats
		cold.IndexBuilds, warm.IndexBuilds = 0, 0
		if warm != cold {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("second execution reported %+v, first %+v (index builds aside)", warm, cold)}
		}
	}

	count, cstats, err := cat.Count(text, join.Options{})
	if err != nil {
		return &Discrepancy{Config: "catalog-prepared/count", Detail: fmt.Sprintf("engine error: %v", err)}
	}
	if count.Cmp(big.NewInt(int64(len(ref)))) != 0 {
		return &Discrepancy{Config: "catalog-prepared/count",
			Detail: fmt.Sprintf("prepared count %v != reference cardinality %d", count, len(ref)),
			Want:   len(ref)}
	}
	if cstats.IndexBuilds != 0 {
		return &Discrepancy{Config: "catalog-prepared/count",
			Detail: fmt.Sprintf("cached count built %d indexes, want 0", cstats.IndexBuilds)}
	}
	return nil
}

// checkBaselines cross-checks every classical engine against the
// reference output.
func (ck *Checker) checkBaselines(q *join.Query, ref [][]uint64) *Discrepancy {
	n := len(q.Vars())
	rev := make([]int, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	type run struct {
		name string
		f    func() ([][]uint64, error)
	}
	runs := []run{
		{"leapfrog", func() ([][]uint64, error) { return baseline.Leapfrog(q, nil) }},
		{"leapfrog-rev", func() ([][]uint64, error) { return baseline.Leapfrog(q, rev) }},
		{"genericjoin-rev", func() ([][]uint64, error) { return baseline.GenericJoin(q, rev) }},
		{"hashjoin", func() ([][]uint64, error) { out, _, err := baseline.HashJoin(q); return out, err }},
	}
	if _, acyclic := q.Hypergraph().GYO(); acyclic {
		runs = append(runs, run{"yannakakis", func() ([][]uint64, error) { return baseline.Yannakakis(q) }})
	}
	totalBits := 0
	for _, d := range q.Depths() {
		totalBits += int(d)
	}
	if totalBits <= 16 {
		runs = append(runs, run{"nestedloop", func() ([][]uint64, error) { return baseline.NestedLoop(q) }})
	}
	for _, r := range runs {
		got, err := r.f()
		if err != nil {
			return &Discrepancy{Config: r.name, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if d := diffTuples(r.name, got, ref); d != nil {
			return d
		}
	}
	return nil
}

// engineCase bundles what the Tetris-side matrix needs: a per-run
// oracle factory over one SAO, and the reference output.
type engineCase struct {
	label    string
	depths   []uint8
	sao      []int
	mkOracle func() core.Oracle
	ref      [][]uint64
	refSet   map[string]bool
	probes   bool
}

// checkEngines runs the Tetris matrix for one SAO: sequential modes and
// the cache-free Reloaded run, the sharded executor against the sequential enumeration
// order, counting and Boolean cover consistency, and (once per case)
// the LB modes plus budget/cancellation/determinism probes.
func (ck *Checker) checkEngines(ec engineCase) *Discrepancy {
	copts := func(mode core.Mode) core.Options {
		return core.Options{Mode: mode, SAO: ec.sao}
	}
	// The gap set depends on the plan (default indices are built
	// GAO-consistent, so each SAO has its own B(Q)) but not on the run:
	// fetch it once per checkEngines call for the count/Boolean variants
	// and the accounting invariant below.
	gaps := ec.mkOracle().AllGaps()
	distinct := distinctBoxes(gaps)

	// Sequential plain modes; keep the enumeration order per mode for
	// the sharded determinism check below.
	seqOrder := map[core.Mode][][]uint64{}
	seqStats := map[core.Mode]core.Stats{}
	for _, mode := range []core.Mode{core.Reloaded, core.Preloaded} {
		config := fmt.Sprintf("%v %s", mode, ec.label)
		res, err := core.Run(ec.mkOracle(), copts(mode))
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if d := diffTuples(config, res.Tuples, ec.ref); d != nil {
			return d
		}
		if res.Stats.BoxesLoaded > int64(distinct) {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("BoxesLoaded %d exceeds distinct gap boxes %d", res.Stats.BoxesLoaded, distinct),
				Got:    int(res.Stats.BoxesLoaded), Want: distinct}
		}
		if mode == core.Preloaded && res.Stats.BoxesLoaded != int64(distinct) {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("Preloaded BoxesLoaded %d != distinct gap boxes %d", res.Stats.BoxesLoaded, distinct),
				Got:    int(res.Stats.BoxesLoaded), Want: distinct}
		}
		seqOrder[mode] = res.Tuples
		seqStats[mode] = res.Stats
	}

	// One sequential variant: Reloaded without resolvent caching (Tree
	// Ordered Geometric Resolution), which bisects every frame instead of
	// walking lines.
	{
		config := fmt.Sprintf("%v/no-cache %s", core.Reloaded, ec.label)
		opts := copts(core.Reloaded)
		opts.NoCache = true
		res, err := core.Run(ec.mkOracle(), opts)
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if d := diffTuples(config, res.Tuples, ec.ref); d != nil {
			return d
		}
	}

	// Sharded executor: tuple-for-tuple equal to the sequential
	// enumeration order (the determinism contract), for every
	// mode × worker count.
	for _, mode := range []core.Mode{core.Reloaded, core.Preloaded} {
		for _, workers := range ck.Workers {
			config := fmt.Sprintf("%v %s workers=%d", mode, ec.label, workers)
			res, err := core.RunShards(ec.mkOracle, copts(mode), workers)
			if err != nil {
				return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
			}
			// Positional comparison against the sequential run — the
			// sharded executor's determinism contract is exact order
			// equality, not just set equality, however the fragments were
			// carved at runtime.
			if d := baseline.FirstDivergence(res.Tuples, seqOrder[mode]); d != nil {
				return &Discrepancy{Config: config,
					Detail: fmt.Sprintf("sharded tuple order differs from sequential enumeration (%d tuples, sequential %d)", len(res.Tuples), len(seqOrder[mode])),
					Got:    len(res.Tuples), Want: len(seqOrder[mode]), Diff: d}
			}
			if res.Stats.Outputs != seqStats[mode].Outputs {
				return &Discrepancy{Config: config,
					Detail: fmt.Sprintf("merged Outputs %d != sequential %d", res.Stats.Outputs, seqStats[mode].Outputs),
					Got:    int(res.Stats.Outputs), Want: int(seqStats[mode].Outputs)}
			}
			// A lone worker is never asked to donate: nobody waits.
			if workers == 1 && res.Stats.Steals != 0 {
				return &Discrepancy{Config: config,
					Detail: fmt.Sprintf("one worker performed %d dynamic splits", res.Stats.Steals),
					Got:    int(res.Stats.Steals), Want: 0}
			}
		}
	}

	// Counting: the #-variant must agree with the enumeration cardinality
	// without materializing tuples, with its resolvent cache and without.
	for _, config := range []string{"count", "count/no-cache"} {
		noCache := config == "count/no-cache"
		config += " " + ec.label
		rep, err := core.CountUncovered(ec.depths, gaps, core.Options{SAO: ec.sao, NoCache: noCache})
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if rep.Uncovered.Cmp(big.NewInt(int64(len(ec.ref)))) != 0 {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("count %v != reference cardinality %d", rep.Uncovered, len(ec.ref)),
				Want:   len(ec.ref)}
		}
	}

	// Boolean cover: covered ⇔ empty output, and a non-covered witness
	// must be an actual output tuple.
	{
		config := fmt.Sprintf("boolean %s", ec.label)
		rep, err := core.Covers(ec.depths, gaps, core.Options{SAO: ec.sao})
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if rep.Covered != (len(ec.ref) == 0) {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("Covered=%v but reference has %d tuples", rep.Covered, len(ec.ref)),
				Want:   len(ec.ref)}
		}
		if !rep.Covered {
			point := rep.Witness.Values(ec.depths)
			if !ec.refSet[tupleKeyString(point)] {
				return &Discrepancy{Config: config,
					Detail: fmt.Sprintf("witness %v is not an output tuple", point)}
			}
		}
	}

	if !ec.probes {
		return nil
	}

	// LB modes (sequential only; sharding does not apply to the lifted
	// space).
	for _, mode := range []core.Mode{core.PreloadedLB, core.ReloadedLB} {
		config := fmt.Sprintf("%v %s", mode, ec.label)
		opts := copts(mode)
		opts.Space = lb.New
		res, err := core.Run(ec.mkOracle(), opts)
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if d := diffTuples(config, res.Tuples, ec.ref); d != nil {
			return d
		}
	}

	// Budget probes: a MaxOutput below the cardinality must deliver
	// exactly the first K tuples of the sequential enumeration; a
	// MaxResolutions equal to the measured count must not abort and must
	// reproduce the run exactly (resolution accounting determinism).
	if len(ec.ref) > 1 {
		k := 1 + len(ec.ref)/2
		opts := copts(core.Preloaded)
		opts.MaxOutput = k
		config := fmt.Sprintf("budget/max-output=%d %s", k, ec.label)
		res, err := core.Run(ec.mkOracle(), opts)
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if d := baseline.FirstDivergence(res.Tuples, seqOrder[core.Preloaded][:k]); d != nil {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("MaxOutput=%d delivered %d tuples, want the first %d of the sequential enumeration", k, len(res.Tuples), k),
				Got:    len(res.Tuples), Want: k, Diff: d}
		}
	}
	if r := seqStats[core.Reloaded].Resolutions; r > 0 {
		opts := copts(core.Reloaded)
		opts.MaxResolutions = r
		config := fmt.Sprintf("budget/max-resolutions=%d %s", r, ec.label)
		res, err := core.Run(ec.mkOracle(), opts)
		if err != nil {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("aborted under its own measured resolution count %d: %v", r, err)}
		}
		if res.Stats.Resolutions != r {
			return &Discrepancy{Config: config,
				Detail: fmt.Sprintf("resolution count %d not reproducible (first run: %d)", res.Stats.Resolutions, r),
				Got:    int(res.Stats.Resolutions), Want: int(r)}
		}
	}

	// Cancellation probe: a pre-cancelled context must abort both the
	// sequential and the sharded engines with context.Canceled.
	{
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opts := copts(core.Reloaded)
		opts.Context = ctx
		if _, err := core.Run(ec.mkOracle(), opts); err != context.Canceled {
			return &Discrepancy{Config: fmt.Sprintf("cancel/sequential %s", ec.label),
				Detail: fmt.Sprintf("cancelled run returned %v, want context.Canceled", err)}
		}
		if _, err := core.RunShards(ec.mkOracle, opts, 2); err != context.Canceled {
			return &Discrepancy{Config: fmt.Sprintf("cancel/sharded %s", ec.label),
				Detail: fmt.Sprintf("cancelled run returned %v, want context.Canceled", err)}
		}
	}
	return nil
}

// checkBCP cross-checks a box cover case against brute-force point
// enumeration.
func (ck *Checker) checkBCP(c Case) (*Discrepancy, error) {
	depths, boxes, err := c.BuildBCP()
	if err != nil {
		return nil, err
	}
	totalBits := 0
	for _, d := range depths {
		totalBits += int(d)
	}
	if totalBits > 16 {
		return nil, fmt.Errorf("fuzz: BCP case %q has %d total bits, brute force limited to 16", c.Name, totalBits)
	}

	// Ground truth: enumerate every point of the space and keep the ones
	// no box contains. The result is in lexicographic order, which is
	// also baseline.SortTuples order.
	var ref [][]uint64
	point := make([]uint64, len(depths))
	var walk func(dim int)
	walk = func(dim int) {
		if dim == len(depths) {
			for _, b := range boxes {
				if b.ContainsPoint(point, depths) {
					return
				}
			}
			ref = append(ref, append([]uint64(nil), point...))
			return
		}
		for v := uint64(0); v < 1<<depths[dim]; v++ {
			point[dim] = v
			walk(dim + 1)
		}
	}
	walk(0)
	refSet := map[string]bool{}
	for _, t := range ref {
		refSet[tupleKeyString(t)] = true
	}

	base, err := core.NewBoxOracle(depths, boxes)
	if err != nil {
		return nil, err
	}
	mk := func() core.Oracle { return ck.wrap(base.Clone()) }
	for si, sao := range saoCandidates(len(depths), ck.MaxSAOs) {
		if d := ck.checkEngines(engineCase{
			label:    fmt.Sprintf("bcp sao=%v", sao),
			depths:   depths,
			sao:      sao,
			mkOracle: mk,
			ref:      ref,
			refSet:   refSet,
			probes:   si == 0,
		}); d != nil {
			return d, nil
		}
	}
	return nil, nil
}

// distinctBoxes counts distinct boxes by exact identity.
func distinctBoxes(boxes []dyadic.Box) int {
	seen := map[string]bool{}
	for _, b := range boxes {
		seen[b.Key()] = true
	}
	return len(seen)
}

// sameInts reports slice equality.
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tupleKeyString encodes a tuple for set membership.
func tupleKeyString(t []uint64) string {
	buf := make([]byte, 0, len(t)*8)
	for _, v := range t {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(buf)
}
