package catalog

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// TestConcurrentPreparedExecutionDuringIngest is the version-pinning
// contract under load: worker goroutines repeatedly execute plans
// prepared against version 1 while a writer goroutine keeps publishing
// new versions of the same relation. Every execution of an old plan
// must keep reading its pinned version — identical output on every run,
// no torn reads, and every count and cover over the plan's shared base
// agreeing with it — while freshly prepared plans see the new data. Run
// with -race (the CI race job runs the full suite that way).
func TestConcurrentPreparedExecutionDuringIngest(t *testing.T) {
	c := New()
	r := relation.MustNewUniform("E", []string{"s", "d"}, 6)
	for v := uint64(0); v < 12; v++ {
		r.MustInsert(v%8, (v+1)%8)
	}
	if _, err := c.Ingest(r); err != nil {
		t.Fatal(err)
	}

	const query = "E(A,B), E(B,C)"
	pinned, err := c.Prepare(query, join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pinned.Execute(join.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantStr := fmt.Sprint(want.Tuples)

	const (
		workers    = 4
		execs      = 25
		ingestions = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*execs+ingestions)

	// Writer: keeps publishing new versions (growing the relation) and
	// preparing against them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ingestions; i++ {
			if _, err := c.Append("E", relation.Tuple{uint64(8 + i%56), uint64(i % 64)}); err != nil {
				errs <- fmt.Errorf("append %d: %w", i, err)
				return
			}
			fresh, err := c.Prepare(query, join.Options{Mode: core.Preloaded})
			if err != nil {
				errs <- fmt.Errorf("prepare after append %d: %w", i, err)
				return
			}
			if fresh.Plan() == pinned.Plan() {
				errs <- fmt.Errorf("append %d: fresh preparation reused the pinned plan", i)
				return
			}
			if _, err := fresh.Execute(join.Options{Parallelism: 1}); err != nil {
				errs <- fmt.Errorf("execute fresh plan %d: %w", i, err)
				return
			}
		}
	}()

	// Readers: the pinned plan must reproduce its version-1 output on
	// every execution, concurrently with the writer.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < execs; i++ {
				res, err := pinned.Execute(join.Options{Parallelism: 1})
				if err != nil {
					errs <- fmt.Errorf("worker %d exec %d: %w", w, i, err)
					return
				}
				if got := fmt.Sprint(res.Tuples); got != wantStr {
					errs <- fmt.Errorf("worker %d exec %d: pinned plan output changed:\n got %s\nwant %s", w, i, got, wantStr)
					return
				}
				// Counts and covers probe the same base as the execs.
				count, _, err := pinned.Count(join.Options{})
				if err != nil {
					errs <- fmt.Errorf("worker %d count %d: %w", w, i, err)
					return
				}
				if count.Cmp(big.NewInt(int64(len(res.Tuples)))) != 0 {
					errs <- fmt.Errorf("worker %d count %d: %v, exec has %d tuples", w, i, count, len(res.Tuples))
					return
				}
				rep, err := pinned.Covers(join.Options{})
				if err != nil {
					errs <- fmt.Errorf("worker %d cover %d: %w", w, i, err)
					return
				}
				if rep.Covered != (len(res.Tuples) == 0) {
					errs <- fmt.Errorf("worker %d cover %d: covered=%v, exec has %d tuples", w, i, rep.Covered, len(res.Tuples))
					return
				}
			}
		}(w)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles the current version holds the appended
	// tuples and a fresh preparation sees them.
	cur, _ := c.Relation("E")
	if cur.Len() <= 12 {
		t.Errorf("current version has %d tuples, want > 12", cur.Len())
	}
	fresh, err := c.Execute(query, join.Options{Mode: core.Preloaded, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Tuples) <= len(want.Tuples) {
		t.Errorf("fresh plan sees %d tuples, pinned saw %d; appends invisible", len(fresh.Tuples), len(want.Tuples))
	}
}

// TestConcurrentAppendsBothLand: two writers racing on one relation
// must both have their tuples applied — the losing writer retries over
// the winner's version instead of failing or silently dropping writes.
func TestConcurrentAppendsBothLand(t *testing.T) {
	c := New()
	r := relation.MustNewUniform("W", []string{"a", "b"}, 8)
	r.MustInsert(0, 0)
	if _, err := c.Ingest(r); err != nil {
		t.Fatal(err)
	}

	const perWriter = 30
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := c.Append("W", relation.Tuple{uint64(w + 1), uint64(i)}); err != nil {
					errs <- fmt.Errorf("writer %d append %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cur, _ := c.Relation("W")
	if cur.Len() != 1+2*perWriter {
		t.Errorf("current version has %d tuples, want %d (writes dropped)", cur.Len(), 1+2*perWriter)
	}
	for w := 1; w <= 2; w++ {
		for i := 0; i < perWriter; i++ {
			if !cur.Contains(uint64(w), uint64(i)) {
				t.Fatalf("tuple (%d,%d) lost in the race", w, i)
			}
		}
	}
}
