package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tetrisjoin/internal/dyadic"
)

// skewedInstance is a 2-dimensional BCP whose work piles onto the
// SAO-early region: the last quarter of dimension 0 is covered by one
// big box, dimension 1 is covered everywhere except value 0 by a chain
// of prefix boxes, so the outputs — and the per-output outer-loop
// restarts — are the 768 points (a, 0) with a < 768. Static dyadic
// shards over dimension 0 leave the later shards trivially covered
// while the early ones carry everything: the imbalance regime dynamic
// splitting exists for.
func skewedInstance(t testing.TB) *BoxOracle {
	return skewedInstanceDepth(t, 10)
}

// skewedInstanceDepth is skewedInstance over a 2^d × 2^d space, with
// 3·2^d/4 outputs — smaller d keeps deliberately-slowed runs quick.
func skewedInstanceDepth(t testing.TB, d int) *BoxOracle {
	t.Helper()
	depths := []uint8{uint8(d), uint8(d)}
	boxes := []dyadic.Box{dyadic.MustParseBox("11,λ")}
	prefix := ""
	for i := 0; i < d; i++ {
		boxes = append(boxes, dyadic.MustParseBox("λ,"+prefix+"1"))
		prefix += "0"
	}
	return MustBoxOracle(depths, boxes)
}

// slowOracle delays every probe so a run spans many scheduler quanta:
// steal tests use it to guarantee idle workers get to register their
// demand while the skewed region is still being enumerated.
type slowOracle struct{ *BoxOracle }

func (s slowOracle) GapsContaining(p []uint64) []dyadic.Box {
	time.Sleep(50 * time.Microsecond)
	return s.BoxOracle.GapsContaining(p)
}

// TestStealSkewedMatchesSequential: on the skewed instance, dynamic
// splitting must kick in (the workers whose seeds are trivially covered
// go idle early) and the output must remain byte-identical to the
// sequential enumeration.
func TestStealSkewedMatchesSequential(t *testing.T) {
	o := skewedInstance(t)
	seq, err := Run(o, Options{Mode: Reloaded})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Tuples) != 768 { // 3·2^10/4
		t.Fatalf("instance has %d outputs, want 768", len(seq.Tuples))
	}
	before := StealsTotal()
	got, err := RunShards(func() Oracle { return slowOracle{o.Clone()} },
		Options{Mode: Reloaded}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tuples, seq.Tuples) {
		t.Fatalf("stealing run diverged from sequential enumeration (%d vs %d tuples)",
			len(got.Tuples), len(seq.Tuples))
	}
	if got.Stats.Outputs != seq.Stats.Outputs {
		t.Fatalf("Outputs %d != sequential %d", got.Stats.Outputs, seq.Stats.Outputs)
	}
	if got.Stats.Steals == 0 {
		t.Fatal("4 workers over 8 skewed seeds performed no dynamic splits")
	}
	if got.Stats.ParallelWorkers != 4 {
		t.Fatalf("ParallelWorkers = %d, want 4", got.Stats.ParallelWorkers)
	}
	if got.Stats.MaxWorkerResolutions == 0 || got.Stats.MaxWorkerResolutions > got.Stats.Resolutions {
		t.Fatalf("MaxWorkerResolutions = %d out of range (total %d)",
			got.Stats.MaxWorkerResolutions, got.Stats.Resolutions)
	}
	if StealsTotal()-before < got.Stats.Steals {
		t.Fatalf("process counter advanced %d < run's %d steals", StealsTotal()-before, got.Stats.Steals)
	}
}

// TestStealSinglePassDonation: a Preloaded pass donates by unwinding at
// an output and re-entering; order and output count must still match the
// sequential run exactly.
func TestStealSinglePassDonation(t *testing.T) {
	o := skewedInstanceDepth(t, 8)
	seq, err := Run(o, Options{Mode: Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	// Preloaded runs never probe the oracle mid-run, so slowOracle
	// cannot stretch them; a sleeping resolution observer does.
	slow := func(w1, w2, r dyadic.Box, dim int) { time.Sleep(20 * time.Microsecond) }
	got, err := RunShards(func() Oracle { return o.Clone() },
		Options{Mode: Preloaded, onResolve: slow}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tuples, seq.Tuples) {
		t.Fatalf("stealing run diverged from sequential (%d vs %d tuples)",
			len(got.Tuples), len(seq.Tuples))
	}
	if got.Stats.Outputs != seq.Stats.Outputs {
		t.Fatalf("Outputs %d != sequential %d", got.Stats.Outputs, seq.Stats.Outputs)
	}
	if got.Stats.Steals == 0 {
		t.Fatal("run with idle workers performed no dynamic splits")
	}
}

// TestStealReloadedGapLoadDonation: a Reloaded pass also unwinds at a
// gap load, with the witness it was about to hand up discarded and the
// loaded boxes left in the knowledge base for the entries after it. The
// first instance has its outputs only in the last quarter of dimension 0 —
// columns a < 192 are one lazily loaded gap box ⟨a,λ⟩ each, and every
// later column settles eight gap loads to its one output — so a pass
// mostly unwinds at a gap load. In the second the first quarter of the
// columns are combs, outputs at the even values of dimension 1 and unit
// gap boxes at the odd ones, and the rest is two gap boxes that leave the
// workers of the later seeds idle at once. So every unit is settled
// inside a line and a donation abandons one midway: the pass goes on from
// the dyadic segments after the unit it settled (TestLineDonatesAtEveryUnit
// makes every unit a donation, from a single seed, without a clock).
func TestStealReloadedGapLoadDonation(t *testing.T) {
	const d = 8
	var columns []dyadic.Box
	combs := []dyadic.Box{{dyadic.NewInterval(1, 2), dyadic.Lambda}, {dyadic.NewInterval(1, 1), dyadic.Lambda}}
	for a := uint64(0); a < 1<<d; a++ {
		col := dyadic.Unit(a, d)
		for v := uint64(1); a < 4 && v < 32; v += 2 {
			combs = append(combs, dyadic.Box{dyadic.Unit(a, 4), dyadic.Unit(v, 5)})
		}
		if a < 192 {
			columns = append(columns, dyadic.Box{col, dyadic.Lambda})
			continue
		}
		for l := uint8(1); l <= d; l++ { // everything in the column but (a,0)
			columns = append(columns, dyadic.Box{col, dyadic.NewInterval(1, l)})
		}
	}
	for _, c := range []struct {
		name    string
		o       *BoxOracle
		outputs int
	}{
		{"columns", MustBoxOracle([]uint8{d, d}, columns), 64},
		{"combs", MustBoxOracle([]uint8{4, 5}, combs), 4 * 16},
	} {
		seq, err := Run(c.o, Options{Mode: Reloaded})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Tuples) != c.outputs {
			t.Fatalf("%s: instance has %d outputs, want %d", c.name, len(seq.Tuples), c.outputs)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := RunShards(func() Oracle { return slowOracle{c.o.Clone()} },
				Options{Mode: Reloaded}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Tuples, seq.Tuples) {
				t.Fatalf("%s workers=%d: stealing run diverged from sequential (%d vs %d tuples)",
					c.name, workers, len(got.Tuples), len(seq.Tuples))
			}
			if got.Stats.BoxesLoaded < seq.Stats.BoxesLoaded || got.Stats.OracleCalls < seq.Stats.OracleCalls {
				t.Fatalf("%s workers=%d: loaded %d boxes in %d probes, sequential %d in %d", c.name, workers,
					got.Stats.BoxesLoaded, got.Stats.OracleCalls, seq.Stats.BoxesLoaded, seq.Stats.OracleCalls)
			}
			if workers > 1 && got.Stats.Steals == 0 {
				t.Fatalf("%s workers=%d: no donation", c.name, workers)
			}
		}
	}
}

// TestStealDepthBound: a scheduler whose bound is no deeper than its
// seeds leaves no room to split: under a demand that never goes away it
// donates nothing, and the seeds alone enumerate the output. One split
// more, and every seed donates.
func TestStealDepthBound(t *testing.T) {
	o := skewedInstance(t)
	depths, sao := o.Depths(), []int{0, 1}
	for _, bound := range []uint8{1, 2} {
		seeds, _ := stealSeeds(depths, sao, 2) // seeds sit at depth 1
		sched := newStealScheduler(1, seeds, bound, sao, depths)
		sched.waiters = 1 << 20
		sched.syncDemand()
		tuples := 0
		for f := sched.nextToMerge(); f != nil; f = sched.nextToMerge() {
			res, err := runPlain(o, Options{Mode: Reloaded}, sao, []dyadic.Box{f.box}, nil, sched.session(0, f))
			if err != nil {
				t.Fatal(err)
			}
			tuples += len(res.Tuples)
		}
		if tuples != 768 {
			t.Fatalf("bound %d: got %d tuples, want 768", bound, tuples)
		}
		if bound == 1 && sched.steals != 0 || bound == 2 && sched.steals < 2 {
			t.Fatalf("bound %d over depth-1 seeds performed %d splits", bound, sched.steals)
		}
	}
}

// TestRunShardsReusesProbeOracle pins the executor's oracle economy:
// the probe oracle built for validation doubles as worker 0's, so a run
// with W workers calls the factory exactly W times (probe + W-1).
func TestRunShardsReusesProbeOracle(t *testing.T) {
	o := shardInstance(t)
	var calls atomic.Int64
	mk := func() Oracle {
		calls.Add(1)
		return o.Clone()
	}
	if _, err := RunShards(mk, Options{Mode: Reloaded}, 3); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("factory called %d times for 3 workers, want 3 (probe reused as worker 0's)", got)
	}
}

// TestStealStormRace hammers the scheduler: every worker slot contended,
// fragments donated and stolen continuously, a resolution observer called
// from every worker at once — the -race CI job runs this with the detector
// on.
func TestStealStormRace(t *testing.T) {
	o := skewedInstance(t)
	seq, err := Run(o, Options{Mode: Reloaded})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		var resolves atomic.Int64
		got, err := RunShards(func() Oracle { return slowOracle{o.Clone()} },
			Options{
				Mode:      Reloaded,
				onResolve: func(w1, w2, r dyadic.Box, dim int) { resolves.Add(1) },
			}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tuples, seq.Tuples) {
			t.Fatalf("round %d: storm run diverged from sequential enumeration", round)
		}
		if n := resolves.Load(); n != got.Stats.Resolutions {
			t.Fatalf("round %d: observer saw %d resolutions, Stats.Resolutions = %d", round, n, got.Stats.Resolutions)
		}
	}
}

// TestStealFragmentKeysOrderable documents the merge-order invariant on
// the raw mechanism: a dfsPath sorts exactly as its steps do as a
// sequence, prefixes first, so key order is depth-first order; seeds come
// out in it, and a donation inside a seed keys between it and the next.
func TestStealFragmentKeysOrderable(t *testing.T) {
	var steps []string
	var paths []dfsPath
	var walk func(s string, p dfsPath)
	walk = func(s string, p dfsPath) {
		steps, paths = append(steps, s), append(paths, p)
		if len(s) < 6 {
			walk(s+"0", p.child(0))
			walk(s+"1", p.child(1))
		}
	}
	walk("", dfsPath{})
	for i := range paths {
		for j := range paths {
			if paths[i].less(paths[j]) != (steps[i] < steps[j]) {
				t.Fatalf("path %q less %q = %v", steps[i], steps[j], paths[i].less(paths[j]))
			}
		}
	}
	deep := dfsPath{}
	for range 70 {
		deep = deep.child(1)
	}
	if deep.depth != 64 || deep.bits != ^uint64(0) {
		t.Fatalf("a 70-split path is %+v, want saturated at depth 64", deep)
	}

	seeds, splittable := stealSeeds([]uint8{3, 3}, []int{0, 1}, 4)
	if len(seeds) != 4 || !splittable {
		t.Fatalf("seeds=%d splittable=%v, want 4 true", len(seeds), splittable)
	}
	for i, f := range seeds {
		if f.key.depth != 2 {
			t.Fatalf("seed %d key %+v, want a depth-2 path", i, f.key)
		}
		if i > 0 && !seeds[i-1].key.less(f.key) {
			t.Fatalf("seed keys out of DFS order: %+v, %+v", seeds[i-1].key, f.key)
		}
	}
	// A donation inside seed 01 keys between 01 and 10.
	if donated := seeds[1].key.child(1); !seeds[1].key.less(donated) || !donated.less(seeds[2].key) {
		t.Fatalf("donated key %+v does not slot between %+v and %+v", donated, seeds[1].key, seeds[2].key)
	}
}
