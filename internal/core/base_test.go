package core

import (
	"math/rand"
	"testing"
)

func sameTuples(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestPreparedBaseMatchesFreshRuns: a run reusing a PreparedBase must
// report exactly the tuples (in the same order) and the same BoxesLoaded
// as a fresh Preloaded run, sequentially and sharded, across repeated
// executions of the same base.
func TestPreparedBaseMatchesFreshRuns(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		depths := depthsOf(3, 4)
		bs := randBoxSet(r, 3, 4, 25)
		o := MustBoxOracle(depths, bs)
		opts := Options{Mode: Preloaded}

		fresh, err := Run(o, opts)
		if err != nil {
			t.Fatal(err)
		}

		base, err := BuildPreloadedBase(o, opts)
		if err != nil {
			t.Fatal(err)
		}
		withBase := opts
		withBase.Base = base

		for run := 0; run < 2; run++ {
			res, err := Run(o, withBase)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(res.Tuples, fresh.Tuples) {
				t.Fatalf("trial %d run %d with base: %d tuples, fresh run %d (or order differs)",
					trial, run, len(res.Tuples), len(fresh.Tuples))
			}
			if res.Stats.BoxesLoaded != fresh.Stats.BoxesLoaded {
				t.Errorf("trial %d run %d BoxesLoaded = %d, fresh run %d",
					trial, run, res.Stats.BoxesLoaded, fresh.Stats.BoxesLoaded)
			}

			mk := func() Oracle { return o.Clone() }
			sharded, err := RunShards(mk, withBase, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(sharded.Tuples, fresh.Tuples) {
				t.Fatalf("trial %d sharded run %d with base: %d tuples, fresh run %d (or order differs)",
					trial, run, len(sharded.Tuples), len(fresh.Tuples))
			}
			if sharded.Stats.BoxesLoaded != fresh.Stats.BoxesLoaded {
				t.Errorf("trial %d sharded run %d BoxesLoaded = %d, fresh run %d",
					trial, run, sharded.Stats.BoxesLoaded, fresh.Stats.BoxesLoaded)
			}
		}

		// Reloaded consults the base as prior knowledge: same output,
		// and nothing left to load lazily when the base holds the full
		// gap set — without the base's boxes being charged to this run.
		rel := withBase
		rel.Mode = Reloaded
		relRes, err := Run(o, rel)
		if err != nil {
			t.Fatalf("Reloaded with base failed: %v", err)
		}
		if !sameTuples(relRes.Tuples, fresh.Tuples) {
			t.Fatalf("trial %d Reloaded-with-base: %d tuples, fresh %d (or order differs)",
				trial, len(relRes.Tuples), len(fresh.Tuples))
		}
		if relRes.Stats.BoxesLoaded != 0 {
			t.Errorf("trial %d Reloaded over a full-gap-set base loaded %d boxes, want 0",
				trial, relRes.Stats.BoxesLoaded)
		}
	}
}

// TestReloadedPartialBase: prior knowledge covering only part of the
// gap set keeps Reloaded exact — same tuples in the same order as a
// plain run — while the run lazily loads at most the boxes the base
// does not already certify.
func TestReloadedPartialBase(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		depths := depthsOf(3, 4)
		bs := randBoxSet(r, 3, 4, 30)
		o := MustBoxOracle(depths, bs)

		plain, err := Run(o, Options{Mode: Reloaded})
		if err != nil {
			t.Fatal(err)
		}

		// Base over an arbitrary half of the gap set: any subset of B is
		// valid prior knowledge (each box certifies an output-free
		// region regardless of the rest).
		half := MustBoxOracle(depths, bs[:len(bs)/2])
		base, err := BuildPreloadedBase(half, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Mode: Reloaded, Base: base}
		res, err := Run(o, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(res.Tuples, plain.Tuples) {
			t.Fatalf("trial %d: partial-base Reloaded %d tuples, plain %d (or order differs)",
				trial, len(res.Tuples), len(plain.Tuples))
		}
		if res.Stats.BoxesLoaded > plain.Stats.BoxesLoaded {
			t.Errorf("trial %d: partial-base run loaded %d boxes, plain run %d",
				trial, res.Stats.BoxesLoaded, plain.Stats.BoxesLoaded)
		}

		// Sharded execution accepts the same prior knowledge.
		mk := func() Oracle { return o.Clone() }
		sharded, err := RunShards(mk, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(sharded.Tuples, plain.Tuples) {
			t.Fatalf("trial %d: sharded partial-base %d tuples, plain %d (or order differs)",
				trial, len(sharded.Tuples), len(plain.Tuples))
		}
	}
}
