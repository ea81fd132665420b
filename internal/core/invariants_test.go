package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// TestLemmaC1AllResolutionsOrdered verifies Lemma C.1: every resolution
// performed by TetrisSkeleton started from the universal box is an
// ordered geometric resolution with respect to the SAO — in both plain
// modes, sequentially and sharded. The observer must see every
// resolution the run counts; sharded workers call it concurrently.
func TestLemmaC1AllResolutionsOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	saos := [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}
	var total int64
	for trial := 0; trial < 25; trial++ {
		depths := depthsOf(3, 3)
		bs := randBoxSet(r, 3, 3, 12)
		o := MustBoxOracle(depths, bs)
		for _, sao := range saos {
			for _, mode := range []Mode{Reloaded, Preloaded} {
				for _, sharded := range []bool{false, true} {
					var checked, violations atomic.Int64
					opts := Options{
						Mode: mode,
						SAO:  sao,
						onResolve: func(w1, w2, w dyadic.Box, dim int) {
							checked.Add(1)
							if !IsOrderedResolution(w1, w2, dim, sao) {
								violations.Add(1)
							}
						},
					}
					var res *Result
					var err error
					if sharded {
						res, err = RunShards(func() Oracle { return o.Clone() }, opts, 4)
					} else {
						res, err = Run(o, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					if v := violations.Load(); v > 0 {
						t.Fatalf("trial %d %v SAO %v sharded=%v: %d of %d resolutions were not ordered",
							trial, mode, sao, sharded, v, checked.Load())
					}
					if c := checked.Load(); c != res.Stats.Resolutions {
						t.Fatalf("trial %d %v SAO %v sharded=%v: observer saw %d resolutions, Stats.Resolutions = %d",
							trial, mode, sao, sharded, c, res.Stats.Resolutions)
					}
					total += res.Stats.Resolutions
				}
			}
		}
	}
	t.Logf("%d resolutions checked", total)
}

// TestResolutionSoundnessDuringRuns verifies, on every resolution of
// random runs, the defining soundness property: the resolvent is covered
// by the union of its two inputs (checked on sampled points).
func TestResolutionSoundnessDuringRuns(t *testing.T) {
	r := rand.New(rand.NewSource(402))
	depths := depthsOf(3, 3)
	for trial := 0; trial < 20; trial++ {
		bs := randBoxSet(r, 3, 3, 10)
		o := MustBoxOracle(depths, bs)
		opts := Options{
			Mode: Preloaded,
			onResolve: func(w1, w2, w dyadic.Box, dim int) {
				// Validate the resolvent against the general Resolve and
				// check soundness on random points inside w.
				got, err := Resolve(w1, w2)
				if err != nil {
					t.Fatalf("skeleton resolution not a valid geometric resolution: %v (%v,%v)", err, w1, w2)
				}
				if !got.Equal(w) {
					t.Fatalf("skeleton resolvent %v differs from Resolve result %v", w, got)
				}
				for s := 0; s < 10; s++ {
					pt := make([]uint64, len(depths))
					for i, iv := range w {
						free := depths[i] - iv.Len
						pt[i] = iv.Bits<<free | r.Uint64()&(1<<free-1)
					}
					if !w1.ContainsPoint(pt, depths) && !w2.ContainsPoint(pt, depths) {
						t.Fatalf("resolvent %v covers %v outside union of %v, %v", w, pt, w1, w2)
					}
				}
			},
		}
		if _, err := Run(o, opts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropositionB12SupersetCount: the number of dyadic boxes containing
// a unit point is at most (d+1)^n, so oracle answers stay Õ(1)-sized.
func TestPropositionB12SupersetCount(t *testing.T) {
	r := rand.New(rand.NewSource(403))
	const n, d = 3, 4
	depths := depthsOf(n, d)
	// Saturate with many random boxes, then probe.
	bs := randBoxSet(r, n, d, 4000)
	o := MustBoxOracle(depths, bs)
	limit := 1
	for i := 0; i < n; i++ {
		limit *= d + 1
	}
	for probe := 0; probe < 200; probe++ {
		pt := []uint64{uint64(r.Intn(1 << d)), uint64(r.Intn(1 << d)), uint64(r.Intn(1 << d))}
		got := len(o.GapsContaining(pt))
		if got > limit {
			t.Fatalf("point %v contained in %d boxes, exceeds (d+1)^n = %d", pt, got, limit)
		}
	}
}

// TestKnowledgeBaseMonotone: with subsumption enabled, the knowledge base
// never stores two boxes one containing the other.
func TestKnowledgeBaseMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	depths := depthsOf(2, 4)
	bs := randBoxSet(r, 2, 4, 15)
	o := MustBoxOracle(depths, bs)
	res, err := Run(o, Options{Mode: Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	// KnowledgeBase size is reported; re-run collecting the final boxes
	// via a fresh skeleton to inspect the antichain property.
	var stats Stats
	sk := newSkeleton(2, depths, []int{0, 1}, Options{}, &stats)
	for _, b := range bs {
		sk.add(b)
	}
	if _, _, err := sk.root(dyadic.Universe(2)); err != nil {
		t.Fatal(err)
	}
	boxes := sk.kb.All()
	for i, a := range boxes {
		for j, b := range boxes {
			if i != j && a.Contains(b) {
				t.Fatalf("knowledge base stores nested boxes %v ⊇ %v", a, b)
			}
		}
	}
	_ = res
}

// TestLemma45ResolutionDominatesSkeletonWork: Lemma 4.5 bounds runtime by
// Õ(#resolutions): skeleton calls stay within a polylog factor of
// resolutions + loaded boxes + outputs.
func TestLemma45ResolutionDominatesSkeletonWork(t *testing.T) {
	r := rand.New(rand.NewSource(405))
	depths := depthsOf(3, 5)
	bs := randBoxSet(r, 3, 5, 40)
	o := MustBoxOracle(depths, bs)
	res, err := Run(o, Options{Mode: Reloaded})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	work := st.Resolutions + st.BoxesLoaded + st.Outputs + 1
	// Each unit of work can open at most O(n·d) = O(15) skeleton frames
	// plus backtracking overhead; 64× is a generous polylog allowance.
	if st.SkeletonCalls > 64*work {
		t.Errorf("skeleton calls %d exceed Õ(work)=64·%d — Lemma 4.5 accounting broken",
			st.SkeletonCalls, work)
	}
}

// bisect is a resolution observer that observes nothing: setting it makes a
// run bisect every frame, as NoCache does, while keeping the resolvent cache.
func bisect(w1, w2, resolvent dyadic.Box, dim int) {}
