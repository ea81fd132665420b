package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"tetrisjoin/internal/dyadic"
)

func TestStealSeedsPartition(t *testing.T) {
	depths := []uint8{2, 3}
	sao := []int{1, 0}
	for _, want := range []int{1, 2, 4, 8, 16} {
		seeds, splittable := stealSeeds(depths, sao, want)
		if len(seeds) != want || splittable != (want < 32) {
			t.Fatalf("count=%d: got %d seeds, splittable %v", want, len(seeds), splittable)
		}
		// Disjoint and covering: every point of the space lies in exactly
		// one seed.
		for a := uint64(0); a < 4; a++ {
			for b := uint64(0); b < 8; b++ {
				hits := 0
				for _, f := range seeds {
					if f.box.ContainsPoint([]uint64{a, b}, depths) {
						hits++
					}
				}
				if hits != 1 {
					t.Fatalf("count=%d: point (%d,%d) in %d seeds", want, a, b, hits)
				}
			}
		}
	}
	// The split follows the SAO prefix: with sao[0]=1, two seeds split
	// dimension 1 first.
	seeds, _ := stealSeeds(depths, sao, 2)
	if b := seeds[0].box; !b[1].Contains(dyadic.MustParseBox("λ,0")[1]) || b[1].Len != 1 || b[0].Len != 0 {
		t.Errorf("2 seeds did not split the SAO-first dimension alone: %v", b)
	}
}

func TestStealSeedsExhaustedSpace(t *testing.T) {
	// A 1×1-bit space has only 4 points; asking for 64 seeds must stop
	// at 4 unit boxes rather than loop, and report them unsplittable.
	seeds, splittable := stealSeeds([]uint8{1, 1}, []int{0, 1}, 64)
	if len(seeds) != 4 || splittable {
		t.Fatalf("got %d seeds, splittable %v; want 4, false", len(seeds), splittable)
	}
	for _, f := range seeds {
		if !f.box.IsUnit([]uint8{1, 1}) {
			t.Fatalf("non-unit seed %v in exhausted space", f.box)
		}
	}
}

func TestBudget(t *testing.T) {
	if NewBudget(0, 0) != nil {
		t.Error("unlimited budget should be nil")
	}
	b := NewBudget(2, 0)
	if !b.AddResolution() || !b.AddResolution() {
		t.Error("within-budget resolutions rejected")
	}
	if b.AddResolution() {
		t.Error("over-budget resolution accepted")
	}
	if emit, stop := b.ClaimOutput(); !emit || stop {
		t.Error("unlimited outputs limited")
	}
	b = NewBudget(0, 2)
	if emit, stop := b.ClaimOutput(); !emit || stop {
		t.Error("first of two slots wrong")
	}
	if emit, stop := b.ClaimOutput(); !emit || !stop {
		t.Error("last slot should emit and stop")
	}
	if emit, _ := b.ClaimOutput(); emit {
		t.Error("exhausted quota emitted")
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Resolutions: 1, Outputs: 2, KnowledgeBase: 3, CoverHits: 4}
	a.Merge(Stats{Resolutions: 10, Outputs: 20, KnowledgeBase: 30, BoxesLoaded: 5})
	want := Stats{Resolutions: 11, Outputs: 22, KnowledgeBase: 33, CoverHits: 4, BoxesLoaded: 5}
	if a != want {
		t.Errorf("Merge = %+v, want %+v", a, want)
	}
}

// shardInstance is a 3-dimensional BCP with a non-trivial output set.
func shardInstance(t testing.TB) *BoxOracle {
	t.Helper()
	depths := []uint8{3, 3, 3}
	boxes := []dyadic.Box{
		dyadic.MustParseBox("0,0,λ"),
		dyadic.MustParseBox("1,λ,1"),
		dyadic.MustParseBox("λ,11,0"),
		dyadic.MustParseBox("01,λ,00"),
		dyadic.MustParseBox("λ,λ,111"),
	}
	return MustBoxOracle(depths, boxes)
}

// TestRunShardsMatchesSequential: for every mode and parallelism, the
// sharded run reproduces the sequential run exactly — same tuples in the
// same order, same output count.
func TestRunShardsMatchesSequential(t *testing.T) {
	o := shardInstance(t)
	for _, mode := range []Mode{Preloaded, Reloaded} {
		seq, err := Run(o, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Tuples) == 0 {
			t.Fatal("instance has empty output; test is vacuous")
		}
		for _, par := range []int{1, 2, 3, 4, 8} {
			got, err := RunShards(func() Oracle { return o.Clone() },
				Options{Mode: mode}, par)
			if err != nil {
				t.Fatalf("mode=%v par=%d: %v", mode, par, err)
			}
			if !reflect.DeepEqual(got.Tuples, seq.Tuples) {
				t.Fatalf("mode=%v par=%d: tuples %v != sequential %v",
					mode, par, got.Tuples, seq.Tuples)
			}
			if got.Stats.Outputs != seq.Stats.Outputs {
				t.Fatalf("mode=%v par=%d: outputs %d != %d",
					mode, par, got.Stats.Outputs, seq.Stats.Outputs)
			}
		}
	}
}

// TestRunShardsSinglePass: a fragment's pass that unwinds to donate goes
// on from the untouched right siblings of the unit it settled last, over a
// knowledge base holding no resolvent in the cache-free variant; it must
// still reproduce the sequential enumeration.
func TestRunShardsSinglePass(t *testing.T) {
	o := shardInstance(t)
	for _, mode := range []Mode{Preloaded, Reloaded} {
		seq, err := Run(o, Options{Mode: mode, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunShards(func() Oracle { return o.Clone() },
			Options{Mode: mode, NoCache: true}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tuples, seq.Tuples) {
			t.Fatalf("%v: cache-free sharded %v != sequential %v", mode, got.Tuples, seq.Tuples)
		}
	}
}

func TestRunShardsMaxOutputBudget(t *testing.T) {
	o := shardInstance(t)
	seq, err := Run(o, Options{Mode: Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	total := len(seq.Tuples)
	for _, limit := range []int{1, 2, total - 1, total, total + 5} {
		got, err := RunShards(func() Oracle { return o.Clone() },
			Options{Mode: Preloaded, MaxOutput: limit}, 4)
		if err != nil {
			t.Fatalf("limit=%d: %v", limit, err)
		}
		want := min(limit, total)
		if len(got.Tuples) != want || got.Stats.Outputs != int64(want) {
			t.Errorf("limit=%d: got %d tuples (Outputs=%d), want %d",
				limit, len(got.Tuples), got.Stats.Outputs, want)
		}
	}
}

func TestRunShardsOnOutputSerializedAndOrdered(t *testing.T) {
	o := shardInstance(t)
	seq, err := Run(o, Options{Mode: Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]uint64
	res, err := RunShards(func() Oracle { return o.Clone() },
		Options{Mode: Preloaded, OnOutput: func(tup []uint64) bool {
			got = append(got, append([]uint64(nil), tup...))
			return true
		}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq.Tuples) {
		t.Fatalf("streamed %v != sequential %v", got, seq.Tuples)
	}
	if res.Stats.Outputs != int64(len(seq.Tuples)) {
		t.Errorf("Outputs = %d, want %d", res.Stats.Outputs, len(seq.Tuples))
	}

	// Early stop: exactly the first k tuples arrive, in order.
	const k = 2
	got = nil
	res, err = RunShards(func() Oracle { return o.Clone() },
		Options{Mode: Preloaded, OnOutput: func(tup []uint64) bool {
			got = append(got, append([]uint64(nil), tup...))
			return len(got) < k
		}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq.Tuples[:k]) {
		t.Fatalf("early-stopped stream %v != first %d sequential tuples", got, k)
	}
	if res.Stats.Outputs != k {
		t.Errorf("Outputs = %d, want %d", res.Stats.Outputs, k)
	}
}

func TestRunShardsContextCancellation(t *testing.T) {
	o := shardInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunShards(func() Oracle { return o.Clone() },
		Options{Mode: Preloaded, Context: ctx}, 2)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// A clean OnOutput stop is a result, not an error, even when the
	// caller cancels its context on the way out (sequential parity: the
	// loop breaks on stop without rechecking the context).
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	res, err := RunShards(func() Oracle { return o.Clone() },
		Options{Mode: Preloaded, Context: ctx, OnOutput: func([]uint64) bool {
			cancel()
			return false
		}}, 2)
	if err != nil {
		t.Fatalf("early stop with cancelled context returned error %v", err)
	}
	if res.Stats.Outputs != 1 {
		t.Errorf("Outputs = %d, want 1", res.Stats.Outputs)
	}
}

func TestRunShardsResolutionBudget(t *testing.T) {
	o := shardInstance(t)
	_, err := RunShards(func() Oracle { return o.Clone() },
		Options{Mode: Preloaded, MaxResolutions: 2}, 2)
	if err == nil {
		t.Fatal("shared resolution budget not enforced")
	}
	// A shard failure must surface even when OnOutput is streaming — and
	// even if the callback would have stopped the enumeration: nothing
	// past a failed shard is delivered, so the callback cannot mask it.
	_, err = RunShards(func() Oracle { return o.Clone() },
		Options{Mode: Preloaded, MaxResolutions: 2, OnOutput: func([]uint64) bool { return false }}, 2)
	if err == nil {
		t.Fatal("shard failure swallowed by OnOutput early stop")
	}
}

func TestRunShardsExhaustedQuotaStopsSiblings(t *testing.T) {
	// With MaxOutput=1 the outer loops of output-free fragments must notice
	// the exhausted quota and stop instead of proving their whole region
	// empty: total oracle calls stay far below the unlimited run's.
	o := shardInstance(t)
	full, err := RunShards(func() Oracle { return o.Clone() }, Options{Mode: Reloaded}, 1)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := RunShards(func() Oracle { return o.Clone() },
		Options{Mode: Reloaded, MaxOutput: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Tuples) != 1 {
		t.Fatalf("got %d tuples, want 1", len(limited.Tuples))
	}
	if limited.Stats.OracleCalls >= full.Stats.OracleCalls {
		t.Errorf("limited run probed %d times, unlimited %d — exhausted quota did not stop siblings",
			limited.Stats.OracleCalls, full.Stats.OracleCalls)
	}
}

func TestRunShardsRejectsLBModes(t *testing.T) {
	o := shardInstance(t)
	for _, mode := range []Mode{PreloadedLB, ReloadedLB} {
		if _, err := RunShards(func() Oracle { return o.Clone() }, Options{Mode: mode}, 2); err == nil {
			t.Errorf("mode %v accepted", mode)
		}
	}
}

func TestRunBoxRestrictsToRoot(t *testing.T) {
	o := shardInstance(t)
	seq, err := Run(o, Options{Mode: Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	depths := o.Depths()
	// Splitting the space by hand and concatenating per-root outputs must
	// reproduce the sequential enumeration.
	seeds, _ := stealSeeds(depths, []int{0, 1, 2}, 4)
	roots := make([]dyadic.Box, len(seeds))
	for i, f := range seeds {
		roots[i] = f.box
	}
	var merged [][]uint64
	for _, root := range roots {
		res, err := RunBox(o, Options{Mode: Preloaded}, root)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range res.Tuples {
			if !root.ContainsPoint(tup, depths) {
				t.Fatalf("RunBox(%v) leaked tuple %v outside its root", root, tup)
			}
		}
		merged = append(merged, res.Tuples...)
	}
	if !reflect.DeepEqual(merged, seq.Tuples) {
		t.Fatalf("concatenated RunBox outputs %v != sequential %v", merged, seq.Tuples)
	}
	// One call over several roots is one pass over one knowledge base: the
	// same tuples, root by root in the order given.
	rev := slices.Clone(roots)
	slices.Reverse(rev)
	var want [][]uint64
	for _, root := range rev {
		for _, tup := range seq.Tuples {
			if root.ContainsPoint(tup, depths) {
				want = append(want, tup)
			}
		}
	}
	for _, mode := range []Mode{Preloaded, Reloaded} {
		res, err := RunBox(o, Options{Mode: mode}, rev...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Tuples, want) {
			t.Fatalf("%v: RunBox over the reversed roots reported %v, want %v", mode, res.Tuples, want)
		}
	}
	if _, err := RunBox(o, Options{Mode: Reloaded}, roots[1], dyadic.Universe(3)); err == nil {
		t.Error("RunBox accepted overlapping roots")
	}
	if _, err := RunBox(o, Options{Mode: PreloadedLB}, dyadic.Universe(3)); err == nil {
		t.Error("RunBox accepted an LB mode")
	}
	if _, err := RunBox(o, Options{Mode: Preloaded}, dyadic.Universe(2)); err == nil {
		t.Error("RunBox accepted a root of wrong dimension")
	}
}

func TestRunShardsValidation(t *testing.T) {
	o := shardInstance(t)
	factory := func() Oracle { return o.Clone() }
	for name, call := range map[string]func() error{
		"zero-parallelism": func() error { _, err := RunShards(factory, Options{Mode: Preloaded}, 0); return err },
		"bad-sao":          func() error { _, err := RunShards(factory, Options{Mode: Preloaded, SAO: []int{0}}, 2); return err },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunShardsManyShardsStress(t *testing.T) {
	// More seeds asked for than the 512 points: every seed is a unit box,
	// and a worker per seed.
	o := shardInstance(t)
	seq, _ := Run(o, Options{Mode: Reloaded})
	got, err := RunShards(func() Oracle { return o.Clone() }, Options{Mode: Reloaded}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Tuples) != fmt.Sprint(seq.Tuples) {
		t.Fatalf("512-worker run diverged: %v vs %v", got.Tuples, seq.Tuples)
	}
	if got.Stats.ParallelWorkers != 512 || got.Stats.Steals != 0 {
		t.Fatalf("%d workers, %d steals over 512 unit seeds; want 512, 0", got.Stats.ParallelWorkers, got.Stats.Steals)
	}
}
