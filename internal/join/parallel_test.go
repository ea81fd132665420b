package join_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/lb"
	"tetrisjoin/internal/workload"
)

// families returns one representative query per workload family in
// internal/workload (small instances: the differential matrix below runs
// each under several worker counts, including under -race).
func families() map[string]*join.Query {
	return map[string]*join.Query{
		"path":           workload.PathQuery(3, 60, 6, 7),
		"star":           workload.StarQuery(3, 40, 5, 11),
		"triangle-msb":   workload.TriangleMSB(3),
		"triangle-star":  workload.TriangleAGMStar(12, 6),
		"triangle-dense": workload.TriangleDense(5, 4),
		"bowtie-block":   workload.BowtieBlock(4),
		"gao-sensitive":  workload.GAOSensitive(10, 5),
		"tree-ordered":   workload.TreeOrderedHard(4),
		"four-cycle":     workload.FourCycleBlocks(3),
		"diag-bowtie":    workload.DiagonalBowtie(4),
		"clique":         workload.CliqueQuery(3, 10, 0.4, 4, 13),
	}
}

// TestParallelMatchesSequential is the cross-fragment differential test:
// for every workload family, every mode and worker counts 1..4 and 8, the
// parallel result must equal the sequential one — the same tuple multiset
// in the same (fragment-key, SAO-lexicographic = sequential) order, with
// matching merged Stats.Outputs.
func TestParallelMatchesSequential(t *testing.T) {
	for name, q := range families() {
		for _, mode := range []core.Mode{core.Reloaded, core.Preloaded} {
			seq, err := join.Execute(q, join.Options{Mode: mode, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s/%v sequential: %v", name, mode, err)
			}
			plan, err := join.NewPlan(q, join.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4, 8} {
				par, err := plan.Execute(join.Options{Mode: mode, Parallelism: workers})
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", name, mode, workers, err)
				}
				if len(par.Tuples) != len(seq.Tuples) || (len(seq.Tuples) > 0 && !reflect.DeepEqual(par.Tuples, seq.Tuples)) {
					t.Fatalf("%s/%v workers=%d: %d tuples != sequential %d (or order differs)",
						name, mode, workers, len(par.Tuples), len(seq.Tuples))
				}
				if par.Stats.Outputs != seq.Stats.Outputs {
					t.Fatalf("%s/%v workers=%d: Outputs %d != %d",
						name, mode, workers, par.Stats.Outputs, seq.Stats.Outputs)
				}
			}
		}
	}
}

// TestParallelDeterministicOrder documents and enforces the ordering
// contract: parallel Result.Tuples come in fragment-key order with the
// SAO-lexicographic order inside each fragment, which is exactly the
// sequential enumeration order — so repeated parallel runs are
// bit-identical regardless of scheduling.
func TestParallelDeterministicOrder(t *testing.T) {
	q := workload.PathQuery(3, 80, 6, 3)
	var first [][]uint64
	for trial := 0; trial < 5; trial++ {
		res, err := join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res.Tuples
			if len(first) == 0 {
				t.Fatal("instance has empty output; test is vacuous")
			}
			continue
		}
		if !reflect.DeepEqual(res.Tuples, first) {
			t.Fatalf("trial %d produced a different tuple order", trial)
		}
	}
	// SAO-lexicographic means sorted by the SAO permutation of positions.
	seq, err := join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, seq.Tuples) {
		t.Fatal("parallel order differs from sequential enumeration order")
	}
}

// TestParallelOnOutputContract: the callback is serialized (never two
// invocations at once), sees the sequential order, and returning false
// stops the enumeration with nothing delivered past the stop.
func TestParallelOnOutputContract(t *testing.T) {
	q := workload.TriangleDense(4, 4)
	seq, err := join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inFlight := 0
	var got [][]uint64
	res, err := join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 4,
		OnOutput: func(tup []uint64) bool {
			mu.Lock()
			inFlight++
			if inFlight != 1 {
				t.Error("OnOutput invoked concurrently")
			}
			got = append(got, append([]uint64(nil), tup...))
			inFlight--
			mu.Unlock()
			return true
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq.Tuples) {
		t.Fatalf("streamed %d tuples != sequential %d (or order differs)", len(got), len(seq.Tuples))
	}
	if res.Stats.Outputs != int64(len(seq.Tuples)) {
		t.Errorf("Outputs = %d, want %d", res.Stats.Outputs, len(seq.Tuples))
	}

	const k = 3
	got = nil
	res, err = join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 4,
		OnOutput: func(tup []uint64) bool {
			got = append(got, append([]uint64(nil), tup...))
			return len(got) < k
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq.Tuples[:k]) {
		t.Fatalf("early stop delivered %v, want first %d sequential tuples", got, k)
	}
	if res.Stats.Outputs != k {
		t.Errorf("Outputs after early stop = %d, want %d", res.Stats.Outputs, k)
	}
}

func TestParallelMaxOutput(t *testing.T) {
	q := workload.TriangleDense(4, 4)
	seq, err := join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := len(seq.Tuples)
	for _, limit := range []int{1, total / 2, total + 10} {
		res, err := join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 3, MaxOutput: limit})
		if err != nil {
			t.Fatal(err)
		}
		want := min(limit, total)
		if len(res.Tuples) != want {
			t.Errorf("limit=%d: got %d tuples, want %d", limit, len(res.Tuples), want)
		}
	}
	// Default Parallelism (0) with MaxOutput must stay sequential so the
	// first-K-tuples guarantee holds run after run.
	res, err := join.Execute(q, join.Options{Mode: core.Preloaded, MaxOutput: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tuples, seq.Tuples[:3]) {
		t.Errorf("MaxOutput with default Parallelism returned %v, want first 3 sequential tuples", res.Tuples)
	}
}

// TestStreamingDefaultsToSequential: with OnOutput set and Parallelism
// left 0, execution must take the sequential engine (O(1) tuple memory,
// prompt early stop) — observable as stats identical to an explicit
// Parallelism: 1 run, which the sharded path's merged stats are not.
func TestStreamingDefaultsToSequential(t *testing.T) {
	q := workload.TriangleDense(4, 4)
	seq, err := join.Execute(q, join.Options{Mode: core.Preloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	res, err := join.Execute(q, join.Options{Mode: core.Preloaded,
		OnOutput: func([]uint64) bool { n++; return true }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != seq.Stats {
		t.Errorf("streaming default stats %+v != sequential %+v", res.Stats, seq.Stats)
	}
	if int64(n) != seq.Stats.Outputs {
		t.Errorf("streamed %d tuples, want %d", n, seq.Stats.Outputs)
	}
}

func TestParallelContextCancellation(t *testing.T) {
	q := workload.PathQuery(3, 60, 6, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := join.Execute(q, join.Options{Parallelism: 2, Context: ctx}); err != context.Canceled {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	// The sequential engine honors the same option.
	if _, err := join.Execute(q, join.Options{Parallelism: 1, Context: ctx}); err != context.Canceled {
		t.Fatalf("sequential err = %v, want context.Canceled", err)
	}
}

// TestParallelLBFallsBackToSequential: the LB modes ignore Parallelism
// (the Balance lift re-maps the whole space) but still work.
func TestParallelLBFallsBackToSequential(t *testing.T) {
	q := workload.TriangleMSB(3)
	seq, err := join.Execute(q, join.Options{Mode: core.ReloadedLB, Space: lb.New, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := join.Execute(q, join.Options{Mode: core.ReloadedLB, Space: lb.New, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Tuples, seq.Tuples) {
		t.Fatal("LB fallback diverged from sequential")
	}
}

// TestPlanExecuteRejectsConflictingSAO: planning-time fields are fixed at
// NewPlan; asking Execute for a different SAO must error, not silently
// run the plan's order.
func TestPlanExecuteRejectsConflictingSAO(t *testing.T) {
	q := workload.TriangleMSB(3)
	plan, err := join.NewPlan(q, join.Options{SAOVars: []string{"A", "B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(join.Options{SAOVars: []string{"C", "B", "A"}}); err == nil {
		t.Fatal("conflicting SAO accepted")
	}
	// The same SAO (and an unset one) pass.
	if _, err := plan.Execute(join.Options{SAOVars: []string{"A", "B", "C"}, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(join.Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanConcurrentExecute: one plan, many concurrent executions — the
// multi-tenant reuse the plan/oracle split is for. Run with -race.
func TestPlanConcurrentExecute(t *testing.T) {
	q := workload.TriangleAGMStar(12, 6)
	plan, err := join.NewPlan(q, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := plan.Execute(join.Options{Mode: core.Preloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := plan.Execute(join.Options{Mode: core.Preloaded, Parallelism: 1 + i%4})
			if err == nil && !reflect.DeepEqual(res.Tuples, seq.Tuples) {
				err = fmt.Errorf("concurrent execute %d diverged", i)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
