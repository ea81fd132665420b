package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tetrisjoin/internal/balance"
	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// restartReference is Algorithm 2 as printed: TetrisSkeleton, every frame
// bisected, is restarted from root after every output and every gap load.
// The engine no longer runs this loop; it is kept here as the reference the
// single pass must reproduce — same tuples in the same order, same
// certificate, and when the pass bisects every frame too (a bisecting
// observer) the same resolutions and knowledge base — because loadGaps'
// choice of witness is argued from what this loop would have hit first.
func restartReference(t *testing.T, o Oracle, opts Options, root dyadic.Box) *Result {
	t.Helper()
	n, depths := o.Dims(), o.Depths()
	sao, err := checkSAO(opts.SAO, n)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	sk := newSkeleton(n, depths, sao, opts, &res.Stats)
	sk.walk, sk.keepAll = nil, true // a restart walks back into finished frames
	// The gaps go into a read-only base, as the engine loads them.
	var base *PreparedBase
	if opts.Mode == Preloaded {
		if base, err = buildBase(depths, sao, o.AllGaps(), boxtree.New(n)); err != nil {
			t.Fatal(err)
		}
		sk.base = base.tree
	}
	for {
		v, w, err := sk.root(root)
		if err != nil {
			t.Fatal(err)
		}
		if v {
			break
		}
		point := w.Values(depths)
		res.Stats.OracleCalls++
		gaps := o.GapsContaining(point)
		if len(gaps) == 0 {
			res.Stats.Outputs++
			res.Tuples = append(res.Tuples, point)
			sk.add(w)
			continue
		}
		// Gaps are loaded by the engine's rule: one plain insert each, its
		// answer the distinct count (the unit was uncovered, so no stored box
		// contains a gap, and none needs sweeping).
		for _, g := range gaps {
			if sk.kb.Insert(g) {
				res.Stats.BoxesLoaded++
			}
		}
	}
	res.Stats.KnowledgeBase = sk.kb.Len()
	base.charge(opts.Mode, &res.Stats)
	return res
}

// restartReferenceLB is the restart loop in the lifted space, as the
// engine ran the LB modes before the pass took them over: after every
// output and every gap load TetrisSkeleton restarts from the lifted
// universe, and under ReloadedLB the partitions are rebuilt at the top of
// the loop once the loaded boxes have doubled.
func restartReferenceLB(t *testing.T, o Oracle, opts Options) *Result {
	t.Helper()
	depths := o.Depths()
	res := &Result{}
	var baseBoxes []dyadic.Box
	if opts.Mode == PreloadedLB {
		baseBoxes = o.AllGaps()
	}
	lift, err := balance.LiftFromBoxes(depths, baseBoxes)
	if err != nil {
		t.Fatal(err)
	}
	liftSAO, _ := checkSAO(nil, lift.Dims())
	sk := newSkeleton(lift.Dims(), lift.Depths(), liftSAO, opts, &res.Stats)
	sk.walk = nil
	loaded := boxtree.New(len(depths))
	for _, b := range baseBoxes {
		if loaded.Insert(b) {
			res.Stats.BoxesLoaded++
		}
		sk.add(lift.Box(b))
	}
	lastBuild := 0
	universe := dyadic.Universe(lift.Dims())
	for {
		if opts.Mode == ReloadedLB && len(baseBoxes) >= 2*max(1, lastBuild) {
			res.Stats.Rebuilds++
			if lift, err = balance.LiftFromBoxes(depths, baseBoxes); err != nil {
				t.Fatal(err)
			}
			sk = newSkeleton(lift.Dims(), lift.Depths(), liftSAO, opts, &res.Stats)
			sk.walk = nil
			for _, b := range baseBoxes {
				sk.add(lift.Box(b))
			}
			for _, tup := range res.Tuples {
				sk.add(lift.Point(tup))
			}
			lastBuild = len(baseBoxes)
		}
		v, w, err := sk.root(universe)
		if err != nil {
			t.Fatal(err)
		}
		if v {
			break
		}
		point := lift.DecodePoint(w.Values(lift.Depths()))
		res.Stats.OracleCalls++
		gaps := o.GapsContaining(point)
		if len(gaps) == 0 {
			res.Stats.Outputs++
			res.Tuples = append(res.Tuples, point)
			sk.add(lift.Point(point))
			continue
		}
		for _, g := range gaps { // loaded by the engine's rule, as in restartReference
			if sk.kb.Insert(lift.Box(g)) {
				res.Stats.BoxesLoaded++
				baseBoxes = append(baseBoxes, g.Clone())
			}
		}
	}
	res.Stats.KnowledgeBase = sk.kb.Len()
	return res
}

// sameCertificate fails unless the single pass reported what the restart
// loop reports: the tuples in its order, and the counts no choice of cover
// can move — whether a unit box is uncovered depends only on the gap boxes
// loaded and the outputs reported before it, and units come up in
// SAO-lexicographic order either way. (Callers compare OracleCalls: the
// loop probes at every uncovered unit, the preloaded modes at none.)
func sameCertificate(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Fatalf("%s: single pass enumerated %v, restart loop %v", label, got.Tuples, want.Tuples)
	}
	g, w := got.Stats, want.Stats
	if g.Outputs != w.Outputs || g.BoxesLoaded != w.BoxesLoaded || g.Rebuilds != w.Rebuilds {
		t.Fatalf("%s: single pass outputs/loaded/rebuilds %d/%d/%d, restart loop %d/%d/%d", label,
			g.Outputs, g.BoxesLoaded, g.Rebuilds, w.Outputs, w.BoxesLoaded, w.Rebuilds)
	}
}

// sameWork is sameCertificate for a pass that bisects every frame, as the
// restart loop does: it must have done exactly the loop's work, the counts
// that define a run's cost included.
func sameWork(t *testing.T, label string, got, want *Result) {
	t.Helper()
	sameCertificate(t, label, got, want)
	g, w := got.Stats, want.Stats
	if g.Lines != 0 {
		t.Fatalf("%s: %d lines in a pass that must bisect", label, g.Lines)
	}
	if g.Resolutions != w.Resolutions || g.KnowledgeBase != w.KnowledgeBase {
		t.Fatalf("%s: single pass resolutions/kb %d/%d, restart loop %d/%d", label,
			g.Resolutions, g.KnowledgeBase, w.Resolutions, w.KnowledgeBase)
	}
	if g.SkeletonCalls > w.SkeletonCalls || g.Splits > w.Splits || g.CoverHits > w.CoverHits {
		t.Fatalf("%s: single pass calls/splits/cover hits %d/%d/%d, restart loop %d/%d/%d", label,
			g.SkeletonCalls, g.Splits, g.CoverHits, w.SkeletonCalls, w.Splits, w.CoverHits)
	}
}

// sameAsKeepingEverything fails unless got is what run returns with every
// box stored, also those equal to their frame, in everything but
// KnowledgeBase: the boxes the storage rule drops are never hit.
func sameAsKeepingEverything(t *testing.T, label string, got *Result, run func() (*Result, error)) {
	t.Helper()
	var all *Result
	var err error
	KeepingEverything(func() { all, err = run() })
	if err != nil {
		t.Fatal(err)
	}
	stats := all.Stats
	stats.KnowledgeBase = got.Stats.KnowledgeBase
	if !reflect.DeepEqual(got.Tuples, all.Tuples) || got.Stats != stats {
		t.Fatalf("%s: pass enumerated %v with %+v, storing every box %v with %+v", label, got.Tuples, got.Stats, all.Tuples, all.Stats)
	}
}

// TestSinglePassMatchesRestartMode: the depth-first pass must report what
// the restart-based outer loop reports, in both modes, from the universe
// and from a fragment's root, under every SAO — and in both LB modes from
// the lifted universe (the LB half runs from lb_test.go). Under a bisecting
// observer the pass bisects every frame as the loop does, over the same
// SAO-ordered tree, and must then do the loop's work bit for bit.
func TestSinglePassMatchesRestartMode(t *testing.T) { singlePassMatchesRestartMode(t, nil) }

// singlePassMatchesRestartMode runs the plain half, or given the LB modes'
// Space the LB half, over the instances drawn after the plain half's.
func singlePassMatchesRestartMode(t *testing.T, space spaceFunc) {
	r := rand.New(rand.NewSource(501))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(2)
		d := uint8(2 + r.Intn(3))
		depths := depthsOf(n, d)
		o := MustBoxOracle(depths, randBoxSet(r, n, d, r.Intn(24)))
		sao := r.Perm(n)
		roots := []dyadic.Box{dyadic.Universe(n)}
		if seeds, _ := stealSeeds(depths, sao, 4); len(seeds) > 1 {
			roots = append(roots, seeds[r.Intn(len(seeds))].box)
		}
		// A root that is not a node of the recursion tree: thick in the
		// first SAO dimension, pinned in the last.
		odd := dyadic.Universe(n)
		odd[sao[n-1]] = dyadic.NewInterval(uint64(r.Intn(2)), 1)
		roots = append(roots, odd)
		if space != nil {
			continue // the LB half draws its instances after these
		}
		for _, root := range roots {
			for _, mode := range []Mode{Preloaded, Reloaded} {
				opts := Options{Mode: mode, SAO: sao}
				var want *Result
				for _, bisected := range []bool{false, true} {
					if bisected {
						opts.onResolve = bisect
					}
					run := func() (*Result, error) { return RunBox(o, opts, root) }
					got, err := run()
					if err != nil {
						t.Fatal(err)
					}
					sameAsKeepingEverything(t, mode.String(), got, run)
					want = restartReference(t, o, opts, root)
					if bisected {
						sameWork(t, mode.String(), got, want)
					} else {
						sameCertificate(t, mode.String(), got, want)
					}
					if mode == Reloaded && got.Stats.OracleCalls != want.Stats.OracleCalls {
						t.Fatalf("trial %d: Reloaded probed the oracle %d times, restart loop %d",
							trial, got.Stats.OracleCalls, want.Stats.OracleCalls)
					}
					if mode == Preloaded && got.Stats.OracleCalls != 0 {
						t.Fatalf("trial %d: Preloaded probed the oracle %d times", trial, got.Stats.OracleCalls)
					}
				}
				// Without the resolvent cache the restart loop repeats
				// resolutions the pass does once; the output is the same.
				opts.onResolve, opts.NoCache = nil, true
				got, err := RunBox(o, opts, root)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Tuples, want.Tuples) || got.Stats.Lines != 0 {
					t.Fatalf("trial %d %v: cache-free single pass enumerated %v over %d lines, want %v over none",
						trial, mode, got.Tuples, got.Stats.Lines, want.Tuples)
				}
			}
		}
	}
	if space != nil {
		lbMatchesRestartMode(t, r, space)
	}
}

// lbMatchesRestartMode is the LB half of TestSinglePassMatchesRestartMode:
// the same, in the lifted space. The rebuild-on-doubling unwinds the pass
// where the restart loop checked at the top of every iteration, so
// Rebuilds and everything downstream of a rebuild must agree too;
// PreloadedLB no longer probes.
func lbMatchesRestartMode(t *testing.T, r *rand.Rand, space spaceFunc) {
	var rebuilds int64
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(2)
		d := uint8(2 + r.Intn(2))
		o := MustBoxOracle(depthsOf(n, d), randBoxSet(r, n, d, r.Intn(40)))
		for _, mode := range []Mode{PreloadedLB, ReloadedLB} {
			for _, bisected := range []bool{false, true} {
				opts := Options{Mode: mode, Space: space}
				if bisected {
					opts.onResolve = bisect
				}
				run := func() (*Result, error) { return Run(o, opts) }
				got, err := run()
				if err != nil {
					t.Fatal(err)
				}
				sameAsKeepingEverything(t, mode.String(), got, run)
				want := restartReferenceLB(t, o, opts)
				if bisected {
					sameWork(t, mode.String(), got, want)
				} else {
					sameCertificate(t, mode.String(), got, want)
				}
				if mode == ReloadedLB && got.Stats.OracleCalls != want.Stats.OracleCalls {
					t.Fatalf("trial %d: ReloadedLB probed the oracle %d times, restart loop %d", trial, got.Stats.OracleCalls, want.Stats.OracleCalls)
				}
				if mode == PreloadedLB && got.Stats.OracleCalls != 0 {
					t.Fatalf("trial %d: PreloadedLB probed the oracle %d times", trial, got.Stats.OracleCalls)
				}
				rebuilds += got.Stats.Rebuilds
			}
		}
	}
	if rebuilds == 0 {
		t.Fatal("no trial rebuilt its partitions: the re-lift path is untested")
	}
}

// TestSinglePassAvoidsRestartAmplification: on a large-output instance
// the pass visits each node of the recursion tree once — the reason
// footnote 13 exists — where the restart loop walks back down from the
// universe after every output.
func TestSinglePassAvoidsRestartAmplification(t *testing.T) {
	depths := depthsOf(2, 6)
	// No gaps: all 4096 points are outputs.
	o := MustBoxOracle(depths, nil)
	for _, mode := range []Mode{Preloaded, Reloaded} {
		restart := restartReference(t, o, Options{Mode: mode}, dyadic.Universe(2))
		single, err := Run(o, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if single.Stats.Outputs != 4096 || restart.Stats.Outputs != 4096 {
			t.Fatalf("%v: outputs %d (restart %d), want 4096", mode, single.Stats.Outputs, restart.Stats.Outputs)
		}
		// A binary tree over the 64 values of the first dimension has 127
		// nodes; each leaf is a line over the 64 values of the second.
		if single.Stats.SkeletonCalls != 127+64*64 || single.Stats.Lines != 64 {
			t.Errorf("%v: single pass made %d skeleton calls over %d lines, want 4223 over 64",
				mode, single.Stats.SkeletonCalls, single.Stats.Lines)
		}
		if single.Stats.SkeletonCalls*2 >= restart.Stats.SkeletonCalls {
			t.Errorf("%v: single pass used %d skeleton calls vs restart's %d — no amplification avoided",
				mode, single.Stats.SkeletonCalls, restart.Stats.SkeletonCalls)
		}
	}
}

func TestSinglePassMaxOutputAndStreaming(t *testing.T) {
	o := MustBoxOracle(depthsOf(2, 3), nil) // 64 outputs
	for _, mode := range []Mode{Preloaded, Reloaded} {
		res, err := Run(o, Options{Mode: mode, MaxOutput: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 7 {
			t.Errorf("%v MaxOutput: got %d tuples", mode, len(res.Tuples))
		}
		var seen int
		_, err = Run(o, Options{Mode: mode, OnOutput: func(tuple []uint64) bool {
			seen++
			return seen < 5
		}})
		if err != nil {
			t.Fatal(err)
		}
		if seen != 5 {
			t.Errorf("%v streaming stop: saw %d", mode, seen)
		}
	}
}
