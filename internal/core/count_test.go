package core

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"tetrisjoin/internal/dyadic"
)

func TestCountUncoveredAgainstEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(2)
		d := uint8(2 + r.Intn(2))
		depths := depthsOf(n, d)
		bs := randBoxSet(r, n, d, r.Intn(14))
		want := len(bruteUncovered(depths, bs))
		for _, noCache := range []bool{false, true} {
			rep, err := CountUncovered(depths, bs, Options{NoCache: noCache})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Uncovered.Cmp(big.NewInt(int64(want))) != 0 {
				t.Fatalf("trial %d (nocache=%v): Count = %s, want %d", trial, noCache, rep.Uncovered, want)
			}
		}
	}
}

func TestCountUncoveredLargeSpaceWithoutEnumeration(t *testing.T) {
	// A 3×40-bit space (2^120 points) with one half covered: the count
	// must come back exact and fast, which is impossible by enumeration.
	depths := depthsOf(3, 40)
	bs := boxes("0,λ,λ")
	rep, err := CountUncovered(depths, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 119) // half of 2^120
	if rep.Uncovered.Cmp(want) != 0 {
		t.Fatalf("Count = %s, want %s", rep.Uncovered, want)
	}
	if rep.Stats.SkeletonCalls > 1000 {
		t.Errorf("counting a half-space took %d calls", rep.Stats.SkeletonCalls)
	}
	// Fully covered space counts zero.
	rep, err = CountUncovered(depths, boxes("0,λ,λ", "1,λ,λ"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Uncovered.Sign() != 0 {
		t.Errorf("covered space counted %s", rep.Uncovered)
	}
	// Empty box set counts the whole space.
	rep, err = CountUncovered(depths, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Uncovered.Cmp(new(big.Int).Lsh(big.NewInt(1), 120)) != 0 {
		t.Errorf("empty set counted %s", rep.Uncovered)
	}
}

func TestCountUncoveredFigureFixtures(t *testing.T) {
	// Figure 5: covered space, count 0.
	depths := depthsOf(3, 6)
	figure5 := boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,0", "1,λ,1")
	rep, err := CountUncovered(depths, figure5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Uncovered.Sign() != 0 {
		t.Errorf("Figure 5: counted %s uncovered", rep.Uncovered)
	}
	// Figure 6: exactly 2·(2^{d-1})³ uncovered points.
	figure6 := boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,1", "1,λ,0")
	rep, err = CountUncovered(depths, figure6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(2), 3*5)
	if rep.Uncovered.Cmp(want) != 0 {
		t.Errorf("Figure 6: counted %s, want %s", rep.Uncovered, want)
	}
}

func TestCountUncoveredValidation(t *testing.T) {
	if _, err := CountUncovered(nil, nil, Options{}); err == nil {
		t.Error("zero dimensions accepted")
	}
	if _, err := CountUncovered([]uint8{0}, nil, Options{}); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := CountUncovered([]uint8{2}, boxes("0,1"), Options{}); err == nil {
		t.Error("wrong-arity box accepted")
	}
	if _, err := CountUncovered([]uint8{2, 2}, nil, Options{SAO: []int{0}}); err == nil {
		t.Error("bad SAO accepted")
	}
}

func TestIntersectsAnyAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(602))
	for trial := 0; trial < 200; trial++ {
		depths := depthsOf(2, 4)
		bs := randBoxSet(r, 2, 4, r.Intn(10))
		o := MustBoxOracle(depths, bs)
		q := randBoxSet(r, 2, 4, 1)[0]
		want := false
		for _, b := range o.AllGaps() {
			if b.Intersects(q) {
				want = true
				break
			}
		}
		got := o.tree.IntersectsAny(q)
		if got != want {
			t.Fatalf("trial %d: IntersectsAny(%v) = %v, want %v (boxes %v)", trial, q, got, want, bs)
		}
	}
}

// TestCountAndCoversCancellation: a cancelled context must abort the
// counting pass and the Boolean skeleton (both run as one giant
// root call with no outer-loop check point). The cancellation gate
// fires every 1024 skeleton calls, so the instance must be heavy enough
// to cross it — asserted, so a future shortcut cannot silently turn
// this test into a no-op.
func TestCountAndCoversCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(603))
	depths := depthsOf(3, 8)
	// Unit (point) boxes force the recursion to split all the way down
	// to each of them — random thick boxes tend to cover the universe in
	// one ContainsSuperset hit, which would never reach the gate.
	var bs []dyadic.Box
	for i := 0; i < 500; i++ {
		b := make(dyadic.Box, 3)
		for d := range b {
			b[d] = dyadic.Unit(r.Uint64()&255, 8)
		}
		bs = append(bs, b)
	}

	rep, err := CountUncovered(depths, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SkeletonCalls < 2048 {
		t.Fatalf("instance too light to exercise the cancellation gate: %d skeleton calls", rep.Stats.SkeletonCalls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountUncovered(depths, bs, Options{Context: ctx}); err != context.Canceled {
		t.Errorf("cancelled CountUncovered returned %v, want context.Canceled", err)
	}

	// Covers bails out as soon as it finds an uncovered witness, so only
	// a fully covered instance recurses deep enough to reach the gate:
	// tile a 2-dim space completely with unit boxes.
	cdepths := depthsOf(2, 6)
	var cover []dyadic.Box
	for x := uint64(0); x < 64; x++ {
		for y := uint64(0); y < 64; y++ {
			cover = append(cover, dyadic.Box{dyadic.Unit(x, 6), dyadic.Unit(y, 6)})
		}
	}
	crep, err := Covers(cdepths, cover, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Covered {
		t.Fatal("tiled space not covered; fixture broken")
	}
	if crep.Stats.SkeletonCalls < 2048 {
		t.Fatalf("cover instance too light for the gate: %d skeleton calls", crep.Stats.SkeletonCalls)
	}
	if _, err := Covers(cdepths, cover, Options{Context: ctx}); err != context.Canceled {
		t.Errorf("cancelled Covers returned %v, want context.Canceled", err)
	}
}
