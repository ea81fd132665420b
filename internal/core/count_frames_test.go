package core

import (
	"math/big"
	"math/rand"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// TestCountPassWork pins the work of the counting pass on the instances of
// count_test.go. The pass resolves and caches like every other skeleton
// run, so a frame inside a cached resolvent costs one probe; the recursion
// it replaced memoized nothing and reached every frame below an
// intersected one. counterSplits is what that recursion split, and no
// instance may split more.
func TestCountPassWork(t *testing.T) {
	type work struct {
		uncovered                                 string
		splits, calls, hits, outputs, resolutions int64
	}
	count := func(depths []uint8, bs []dyadic.Box) (*big.Int, work) {
		rep, err := CountUncovered(depths, bs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Stats
		return rep.Uncovered, work{rep.Uncovered.String(), s.Splits, s.SkeletonCalls, s.CoverHits, s.Outputs, s.Resolutions}
	}
	check := func(name string, got, want work, counterSplits int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
		if got.splits > counterSplits {
			t.Errorf("%s: %d splits, more than the %d of the memo-free recursion", name, got.splits, counterSplits)
		}
	}

	// TestCountUncoveredAgainstEnumeration's 60 random instances, summed.
	r := rand.New(rand.NewSource(601))
	sum := work{}
	total := new(big.Int)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(2)
		d := uint8(2 + r.Intn(2))
		uncovered, w := count(depthsOf(n, d), randBoxSet(r, n, d, r.Intn(14)))
		total.Add(total, uncovered)
		sum.splits += w.splits
		sum.calls += w.calls
		sum.hits += w.hits
		sum.outputs += w.outputs
		sum.resolutions += w.resolutions
	}
	sum.uncovered = total.String()
	check("random instances", sum, work{"4164", 1665, 3382, 740, 184, 1657}, 1694)

	r = rand.New(rand.NewSource(603))
	var points []dyadic.Box
	for i := 0; i < 500; i++ {
		b := make(dyadic.Box, 3)
		for d := range b {
			b[d] = dyadic.Unit(r.Uint64()&255, 8)
		}
		points = append(points, b)
	}
	for _, c := range []struct {
		name          string
		depths        []uint8
		boxes         []dyadic.Box
		want          work
		counterSplits int64
	}{
		{"half space", depthsOf(3, 40), boxes("0,λ,λ"), work{"664613997892457936451903530140172288", 1, 3, 1, 0, 1}, 1},
		{"both halves", depthsOf(3, 40), boxes("0,λ,λ", "1,λ,λ"), work{"0", 1, 3, 2, 0, 1}, 1},
		{"no boxes", depthsOf(3, 40), nil, work{"1329227995784915872903807060280344576", 0, 1, 0, 0, 0}, 0},
		{"figure 5", depthsOf(3, 6), boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,0", "1,λ,1"), work{"0", 25, 31, 6, 0, 5}, 4159},
		{"figure 6", depthsOf(3, 6), boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,1", "1,λ,0"), work{"65536", 4159, 8319, 2112, 0, 4159}, 4159},
		{"500 points", depthsOf(3, 8), points, work{"16776716", 7573, 15147, 500, 500, 7573}, 7573},
	} {
		_, got := count(c.depths, c.boxes)
		check(c.name, got, c.want, c.counterSplits)
	}
}
