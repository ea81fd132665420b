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

// TestPreparedBaseMatchesFreshRuns: a run handed a PreparedBase must
// report exactly what a run that builds its own does — the tuples in the
// same order and every counter — sequentially, over roots and sharded,
// across repeated executions of the same base, in every SAO. The roots
// are fixed in their later SAO components, so their entry frames carry
// their frontier in the base across several levels at once. TestMain has
// every frontier probe checked against the full probe. A path join's
// instance runs from base_path_test.go.
func TestPreparedBaseMatchesFreshRuns(t *testing.T) {
	for _, sao := range permutations(3) {
		t.Run(fmt.Sprint(sao), func(t *testing.T) {
			r := rand.New(rand.NewSource(55))
			for trial := 0; trial < 20; trial++ {
				o := MustBoxOracle(depthsOf(3, 4), randBoxSet(r, 3, 4, 25))
				label := fmt.Sprintf("trial %d", trial)
				baseMatchesFreshRuns(t, label, func() Oracle { return o.Clone() }, sao, laterRoots(r, sao))
			}
		})
	}
}

// laterRoots partitions the space into the boxes that fix a one-bit
// prefix in the second SAO dimension and a two-bit one in the third, λ in
// the others, in random order.
func laterRoots(r *rand.Rand, sao []int) []dyadic.Box {
	var roots []dyadic.Box
	for i := uint64(0); i < 2; i++ {
		for j := uint64(0); j < 4; j++ {
			root := dyadic.Universe(len(sao))
			root[sao[1]] = dyadic.Interval{Bits: i, Len: 1}
			root[sao[2]] = dyadic.Interval{Bits: j, Len: 2}
			roots = append(roots, root)
		}
	}
	r.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
	return roots
}

// baseMatchesFreshRuns is TestPreparedBaseMatchesFreshRuns on one instance,
// its oracles from newOracle, run in sao and over roots.
func baseMatchesFreshRuns(t *testing.T, label string, newOracle func() Oracle, sao []int, roots []dyadic.Box) {
	t.Helper()
	o := newOracle()
	opts := Options{Mode: Preloaded, SAO: sao}
	base, err := BuildPreloadedBase(o, opts)
	if err != nil {
		t.Fatal(err)
	}
	withBase := opts
	withBase.Base = base
	same := func(what string, got, want *Result, gotErr, wantErr error) {
		t.Helper()
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s %s: %v with base, %v without", label, what, gotErr, wantErr)
		}
		if !sameTuples(got.Tuples, want.Tuples) || got.Stats != want.Stats {
			t.Fatalf("%s %s: %d tuples, %+v with base; %d tuples, %+v without (or the order differs)",
				label, what, len(got.Tuples), got.Stats, len(want.Tuples), want.Stats)
		}
	}

	fresh, freshErr := Run(o, opts)
	freshBox, freshBoxErr := RunBox(o, opts, roots...)
	// One worker never donates, so its fragments and their knowledge bases
	// are the same from run to run.
	freshShards, freshShardsErr := RunShards(newOracle, opts, 1)
	for run := 0; run < 2; run++ {
		res, err := Run(o, withBase)
		same("Run", res, fresh, err, freshErr)
		res, err = RunBox(o, withBase, roots...)
		same("RunBox", res, freshBox, err, freshBoxErr)
		res, err = RunShards(newOracle, withBase, 1)
		same("RunShards", res, freshShards, err, freshShardsErr)
		// Two workers steal, and what their fragments keep varies with it.
		res, err = RunShards(newOracle, withBase, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(res.Tuples, fresh.Tuples) || res.Stats.BoxesLoaded != fresh.Stats.BoxesLoaded {
			t.Fatalf("%s two workers with base: %d tuples, %d loaded; one run %d, %d (or the order differs)",
				label, len(res.Tuples), res.Stats.BoxesLoaded, len(fresh.Tuples), fresh.Stats.BoxesLoaded)
		}
	}

	// Reloaded consults the base as prior knowledge: same output, and
	// nothing left to load lazily when the base holds the full gap set —
	// without the base's boxes being charged to this run.
	rel := withBase
	rel.Mode = Reloaded
	relRes, err := Run(o, rel)
	if err != nil {
		t.Fatalf("%s Reloaded with base: %v", label, err)
	}
	if !sameTuples(relRes.Tuples, fresh.Tuples) || relRes.Stats.BoxesLoaded != 0 {
		t.Fatalf("%s Reloaded with base: %d tuples, %d loaded; want %d and 0 (or the order differs)",
			label, len(relRes.Tuples), relRes.Stats.BoxesLoaded, len(fresh.Tuples))
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
