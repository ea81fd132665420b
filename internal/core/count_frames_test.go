package core

import (
	"math/big"
	"math/rand"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// TestCountVisitsEachFrameOnce: a counting descent splits each frame into
// its two halves and probes every frame it reaches exactly once — its
// frames are the nodes of one binary tree under the universe, so skeleton
// calls are 1 + 2·splits — and a memo of frame counts, or a covered frame
// stored as a box, could only ever be hit by a second visit. The counter
// had both; the work below, on the instances of count_test.go, is what it
// reported with them.
func TestCountVisitsEachFrameOnce(t *testing.T) {
	type work struct {
		uncovered                    string
		splits, calls, hits, outputs int64
	}
	count := func(depths []uint8, bs []dyadic.Box) (*big.Int, work) {
		rep, err := CountUncovered(depths, bs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Stats
		if s.SkeletonCalls != 1+2*s.Splits {
			t.Fatalf("%d skeleton calls for %d splits: some frame was reached twice", s.SkeletonCalls, s.Splits)
		}
		return rep.Uncovered, work{rep.Uncovered.String(), s.Splits, s.SkeletonCalls, s.CoverHits, s.Outputs}
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
	}
	sum.uncovered = total.String()
	if want := (work{"4164", 1694, 3448, 777, 184}); sum != want {
		t.Errorf("random instances: %+v, want %+v", sum, want)
	}

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
		name   string
		depths []uint8
		boxes  []dyadic.Box
		want   work
	}{
		{"half space", depthsOf(3, 40), boxes("0,λ,λ"), work{"664613997892457936451903530140172288", 1, 3, 1, 0}},
		{"both halves", depthsOf(3, 40), boxes("0,λ,λ", "1,λ,λ"), work{"0", 1, 3, 2, 0}},
		{"no boxes", depthsOf(3, 40), nil, work{"1329227995784915872903807060280344576", 0, 1, 0, 0}},
		{"figure 5", depthsOf(3, 6), boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,0", "1,λ,1"), work{"0", 4159, 8319, 4160, 0}},
		{"figure 6", depthsOf(3, 6), boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,1", "1,λ,0"), work{"65536", 4159, 8319, 2112, 0}},
		{"500 points", depthsOf(3, 8), points, work{"16776716", 7573, 15147, 500, 500}},
	} {
		if _, got := count(c.depths, c.boxes); got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
}
