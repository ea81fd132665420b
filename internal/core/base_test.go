package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tetrisjoin/internal/dyadic"
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
// executions of the same base, in every SAO; and so must a RunBox over
// roots fixed in their later SAO components, whose entry frames carry
// their frontier in the base across several levels at once. TestMain has
// every frontier probe checked against the full probe.
func TestPreparedBaseMatchesFreshRuns(t *testing.T) {
	for _, sao := range permutations(3) {
		t.Run(fmt.Sprint(sao), func(t *testing.T) { preparedBaseMatchesFreshRuns(t, sao) })
	}
}

// laterRoots partitions the space into the boxes that are λ in the first
// SAO dimension and fix a one-bit prefix in the second and a two-bit one
// in the third, in random order.
func laterRoots(r *rand.Rand, sao []int) []dyadic.Box {
	var roots []dyadic.Box
	for i := uint64(0); i < 2; i++ {
		for j := uint64(0); j < 4; j++ {
			root := dyadic.Universe(3)
			root[sao[1]] = dyadic.Interval{Bits: i, Len: 1}
			root[sao[2]] = dyadic.Interval{Bits: j, Len: 2}
			roots = append(roots, root)
		}
	}
	r.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
	return roots
}

func preparedBaseMatchesFreshRuns(t *testing.T, sao []int) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		depths := depthsOf(3, 4)
		bs := randBoxSet(r, 3, 4, 25)
		o := MustBoxOracle(depths, bs)
		opts := Options{Mode: Preloaded, SAO: sao}

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

		roots := laterRoots(r, sao)
		freshBox, err := RunBox(o, opts, roots...)
		if err != nil {
			t.Fatal(err)
		}
		withBox, err := RunBox(o, withBase, roots...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(withBox.Tuples, freshBox.Tuples) {
			t.Fatalf("trial %d RunBox(%v) with base: %d tuples, fresh run %d (or order differs)",
				trial, roots, len(withBox.Tuples), len(freshBox.Tuples))
		}
	}
}

// TestReloadedPartialBase: prior knowledge covering only part of the
// gap set keeps Reloaded exact — same tuples in the same order as a
// plain run — while the run lazily loads at most the boxes the base
// does not already certify, in every SAO. Between two probes of the base
// the run writes loaded gaps and resolvents to its own knowledge base,
// which it probes first.
func TestReloadedPartialBase(t *testing.T) {
	for _, sao := range permutations(3) {
		t.Run(fmt.Sprint(sao), func(t *testing.T) { reloadedPartialBase(t, sao) })
	}
}

func reloadedPartialBase(t *testing.T, sao []int) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		depths := depthsOf(3, 4)
		bs := randBoxSet(r, 3, 4, 30)
		o := MustBoxOracle(depths, bs)

		plain, err := Run(o, Options{Mode: Reloaded, SAO: sao})
		if err != nil {
			t.Fatal(err)
		}

		// Base over an arbitrary half of the gap set: any subset of B is
		// valid prior knowledge (each box certifies an output-free
		// region regardless of the rest).
		half := MustBoxOracle(depths, bs[:len(bs)/2])
		base, err := BuildPreloadedBase(half, Options{SAO: sao})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Mode: Reloaded, SAO: sao, Base: base}
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
