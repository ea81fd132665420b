package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// referenceLine is skeleton.line as DESIGN.md words it, with nothing
// hoisted: at every position of b[dim] the unit box is probed whole — kb,
// then base — so no trie root outlives the probe that found it, and the
// frame's frontier goes unread. Its witness is stored by the same rule as
// the line's.
func referenceLine(s *skeleton) func(b dyadic.Box, dim int, _ frontier) (bool, dyadic.Box, error) {
	return func(b dyadic.Box, dim int, _ frontier) (bool, dyadic.Box, error) {
		s.stats.Splits++
		s.stats.Lines++
		d := s.depths[dim]
		w := dyadic.Universe(s.n)
		w[dim] = b[dim]
		covers := 0
		for p := b[dim].Lo(d); p <= b[dim].Hi(d); {
			if err := s.call(); err != nil {
				return false, nil, err
			}
			u := b.Clone()
			u[dim] = dyadic.Unit(p, d)
			c, ok := s.kb.ContainsSuperset(u)
			if !ok && s.base != nil {
				c, ok = s.base.ContainsSuperset(u)
			}
			switch {
			case ok:
				s.stats.CoverHits++
			case s.settleUnit == nil:
				return false, u, nil
			default:
				var err error
				if c, err = s.settleUnit(u); err != nil {
					return false, nil, err
				}
			}
			if c.Contains(b) {
				return true, c.Clone(), nil
			}
			if covers++; covers > 1 {
				s.stats.Resolutions++
				if !s.budget.AddResolution() {
					return false, nil, errResolutionBudget
				}
			}
			for i := range w {
				if i != dim {
					w[i], _ = w[i].Meet(c[i])
				}
			}
			p = c[dim].Hi(d) + 1
		}
		if s.keeps(w, b) {
			s.addResolvent(w)
		}
		return true, w, nil
	}
}

// lineCall is one line as its frame saw it.
type lineCall struct {
	frame, witness string
	covered        bool
}

// passOutcome is everything a pass leaves behind.
type passOutcome struct {
	tuples [][]uint64
	stats  Stats
	kb     []dyadic.Box
	lines  []lineCall
	err    error
}

// runPass is runPlain with every line logged, over skeleton.line or over
// its definition, probing base or, when that is nil, the base the engine
// would give the run.
func runPass(t *testing.T, o Oracle, opts Options, sao []int, root dyadic.Box, base *PreparedBase, reference bool) passOutcome {
	t.Helper()
	opts.Base = base
	base, err := opts.runBase(o, sao)
	if err != nil {
		t.Fatal(err)
	}
	defer opts.release(base)
	sk, run, err := newPass(o, opts, sao, []dyadic.Box{root}, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sk.walk == nil {
		t.Fatalf("options %+v take no lines", opts)
	}
	walk := sk.walk
	if reference {
		walk = referenceLine(sk)
	}
	var out passOutcome
	sk.walk = func(b dyadic.Box, dim int, fr frontier) (bool, dyadic.Box, error) {
		frame := b.String()
		v, w, err := walk(b, dim, fr)
		if err == nil {
			out.lines = append(out.lines, lineCall{frame, w.String(), v})
		}
		return v, w, err
	}
	res, err := run()
	out.err = err
	if res != nil {
		out.tuples, out.stats = res.Tuples, res.Stats
	}
	// The pooled tree is still ours, nothing has run since; its boxes are
	// the next run's to overwrite.
	for _, b := range sk.kb.All() {
		out.kb = append(out.kb, b.Clone())
	}
	return out
}

// sameOutcome fails unless the line and its definition left the same pass
// behind: every witness, the knowledge base, every counter.
func sameOutcome(t *testing.T, label string, got, want passOutcome) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: line ended with %v, its definition with %v", label, got.err, want.err)
	}
	if !reflect.DeepEqual(got.tuples, want.tuples) {
		t.Fatalf("%s: line enumerated %v, its definition %v", label, got.tuples, want.tuples)
	}
	if !reflect.DeepEqual(got.lines, want.lines) {
		for i := range got.lines {
			if i >= len(want.lines) || got.lines[i] != want.lines[i] {
				t.Fatalf("%s: line %d is %+v, by definition %+v", label, i, got.lines[i], want.lines[min(i, len(want.lines)-1)])
			}
		}
		t.Fatalf("%s: %d lines, by definition %d", label, len(got.lines), len(want.lines))
	}
	if got.stats != want.stats {
		t.Fatalf("%s: line stats %+v, by definition %+v", label, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.kb, want.kb) {
		t.Fatalf("%s: line left the knowledge base %v, its definition %v", label, got.kb, want.kb)
	}
}

// stingyOracle answers a probe with the first of its boxes that contains
// the point, not all of them, the way an index returns one gap per atom:
// a box loaded late can then reach back over positions that earlier,
// smaller boxes already covered.
type stingyOracle struct {
	depths []uint8
	boxes  []dyadic.Box
	out    [1]dyadic.Box
}

func (s *stingyOracle) Dims() int             { return len(s.depths) }
func (s *stingyOracle) Depths() []uint8       { return s.depths }
func (s *stingyOracle) AllGaps() []dyadic.Box { return s.boxes }
func (s *stingyOracle) GapsContaining(point []uint64) []dyadic.Box {
	for _, b := range s.boxes {
		if b.ContainsPoint(point, s.depths) {
			s.out[0] = b
			return s.out[:]
		}
	}
	return nil
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestLineMatchesItsDefinition: the collected last-level tries, re-collected
// after every settled unit that wrote to kb, must answer every position of
// every line as a whole probe of the unit box does — over every SAO, in
// every mode, with and without a shared base, from the universe, a shard
// and an odd root. The LB rows run from lb_test.go.
func TestLineMatchesItsDefinition(t *testing.T) { lineMatchesItsDefinition(t, nil) }

// lineMatchesItsDefinition runs the plain rows, or given the LB modes' Space
// the LB rows, over the same instances.
func lineMatchesItsDefinition(t *testing.T, space spaceFunc) {
	r := rand.New(rand.NewSource(2301))
	lines, relifts := 0, int64(0)
	for n := 1; n <= 4; n++ {
		for _, sao := range permutations(n) {
			for trial := 0; trial < 2*(5-n); trial++ { // 24 orders of 4 dimensions are trials enough
				d := uint8(2 + r.Intn(5-n))
				depths := depthsOf(n, d)
				bs := randBoxSet(r, n, d, r.Intn(10*n))
				full := MustBoxOracle(depths, bs)
				stingy := &stingyOracle{depths: depths, boxes: full.AllGaps()}
				half := MustBoxOracle(depths, bs[:len(bs)/2])
				roots := []dyadic.Box{dyadic.Universe(n)}
				if seeds, _ := stealSeeds(depths, sao, 4); len(seeds) > 1 {
					roots = append(roots, seeds[r.Intn(len(seeds))].box)
				}
				odd := dyadic.Universe(n)
				odd[sao[n-1]] = dyadic.NewInterval(uint64(r.Intn(2)), 1)
				roots = append(roots, odd)
				build := Options{SAO: sao}
				fullBase, err := BuildPreloadedBase(full, build)
				if err != nil {
					t.Fatal(err)
				}
				halfBase, err := BuildPreloadedBase(half, build)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					name string
					mode Mode
					o    Oracle
					base *PreparedBase
				}{
					{"preloaded", Preloaded, full, nil},
					{"preloaded+base", Preloaded, full, fullBase},
					{"reloaded", Reloaded, full, nil},
					{"reloaded stingy", Reloaded, stingy, nil},
					{"reloaded+base", Reloaded, full, halfBase},
					{"reloaded+base stingy", Reloaded, stingy, halfBase},
					{"preloaded-lb", PreloadedLB, full, nil},
					{"reloaded-lb", ReloadedLB, full, nil},
					{"reloaded-lb stingy", ReloadedLB, stingy, nil},
				} {
					if c.mode.Plain() != (space == nil) {
						continue
					}
					opts := Options{Mode: c.mode, SAO: sao}
					cRoots := roots
					if !c.mode.Plain() {
						if n < 3 {
							continue // Run hands these to the plain modes
						}
						opts.Space = space
						cRoots = roots[:1] // the lifted universe, whatever is passed
					}
					for _, root := range cRoots {
						label := fmt.Sprintf("n=%d sao=%v %s root=%v boxes=%v", n, sao, c.name, root, bs)
						got := runPass(t, c.o, opts, sao, root, c.base, false)
						want := runPass(t, c.o, opts, sao, root, c.base, true)
						if got.err != nil {
							t.Fatalf("%s: %v", label, got.err)
						}
						sameOutcome(t, label, got, want)
						lines += len(got.lines)
						relifts += got.stats.Rebuilds
					}
				}
			}
		}
	}
	if lines < 1000 || space != nil && relifts == 0 {
		t.Fatalf("%d lines and %d re-lifts walked: the comparison is vacuous", lines, relifts)
	}
}

// TestLineGapLoads pins the two things a gap load can do to a line on
// hand-made instances: end it, and reach back over it.
func TestLineGapLoads(t *testing.T) {
	// Each column x is one gap box ⟨x-half, λ⟩: the first probe of a line
	// loads a box that contains the line's frame, and two levels above it.
	// The witness goes up at once; nothing on the line is resolved.
	o := MustBoxOracle(depthsOf(2, 3), boxes("0,λ", "1,λ"))
	got := runPass(t, o, Options{}, []int{0, 1}, dyadic.Universe(2), nil, false)
	sameOutcome(t, "whole line", got, runPass(t, o, Options{}, []int{0, 1}, dyadic.Universe(2), nil, true))
	want := []lineCall{{"⟨000,λ⟩", "⟨0,λ⟩", true}, {"⟨100,λ⟩", "⟨1,λ⟩", true}}
	if !reflect.DeepEqual(got.lines, want) {
		t.Errorf("lines %+v, want %+v", got.lines, want)
	}
	if s := got.stats; s.Resolutions != 1 || s.OracleCalls != 2 || s.CoverHits != 0 {
		t.Errorf("resolutions/probes/cover hits %d/%d/%d, want 1/2/0: only the two halves of the universe resolve",
			s.Resolutions, s.OracleCalls, s.CoverHits)
	}

	// One dimension, so the universe is the line. Positions 0 and 1 load
	// their unit boxes; position 2 loads ⟨0⟩, which covers both again.
	// The line has used three covers by then and charges two resolutions
	// where bisection, handing ⟨0⟩ up past the frame ⟨00⟩, performs one;
	// ⟨1⟩ makes it three against two.
	late := &stingyOracle{depths: depthsOf(1, 3), boxes: boxes("000", "001", "0", "1")}
	got = runPass(t, late, Options{}, []int{0}, dyadic.Universe(1), nil, false)
	sameOutcome(t, "late gap", got, runPass(t, late, Options{}, []int{0}, dyadic.Universe(1), nil, true))
	if s := got.stats; s.Resolutions != 3 || s.OracleCalls != 4 || s.Lines != 1 || s.SkeletonCalls != 1+4 {
		t.Errorf("late gap: resolutions/probes/lines/calls %d/%d/%d/%d, want 3/4/1/5", s.Resolutions, s.OracleCalls, s.Lines, s.SkeletonCalls)
	}
	// The witness ⟨λ⟩ is the line's own frame, so it is not stored: the
	// knowledge base keeps every gap loaded. A gap load is one plain insert,
	// so ⟨0⟩ does not sweep out ⟨000⟩ and ⟨001⟩ (no probe can return them
	// while ⟨0⟩ is stored; they used to be subsumed).
	if fmt.Sprint(got.kb) != "[⟨0⟩ ⟨000⟩ ⟨001⟩ ⟨1⟩]" {
		t.Errorf("late gap: the line left the knowledge base %v, want the four gaps", got.kb)
	}
	binary, err := Run(late, Options{onResolve: bisect})
	if err != nil {
		t.Fatal(err)
	}
	if binary.Stats.Resolutions != 2 || binary.Stats.Lines != 0 {
		t.Errorf("late gap, bisected: %d resolutions over %d lines, want 2 over 0", binary.Stats.Resolutions, binary.Stats.Lines)
	}
}

// TestLineStopsMidway: the resolution budget and the context are consulted
// inside a line, not only between lines.
func TestLineStopsMidway(t *testing.T) {
	// No gaps in one dimension: the universe is one line of 2^12 outputs,
	// each a cover, each but the first a resolution.
	o := MustBoxOracle(depthsOf(1, 12), nil)
	for _, mode := range []Mode{Preloaded, Reloaded} {
		outputs := 0
		_, err := Run(o, Options{Mode: mode, MaxResolutions: 5, OnOutput: func([]uint64) bool { outputs++; return true }})
		if !errors.Is(err, errResolutionBudget) {
			t.Errorf("%v: error %v, want the resolution budget's", mode, err)
		}
		if outputs != 7 {
			t.Errorf("%v: %d outputs before the sixth resolution was refused, want 7", mode, outputs)
		}
	}
	// The pass polls the context at every settled unit; a Boolean run has
	// none and must poll from inside the line: every position but the last
	// is a unit box of its own, 2^12-1 covers.
	var units []dyadic.Box
	for v := uint64(0); v < 1<<12-1; v++ {
		units = append(units, dyadic.Box{dyadic.Unit(v, 12)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Covers(depthsOf(1, 12), units, Options{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Covers over a 2^12-position line: error %v", err)
	}
	rep, err := Covers(depthsOf(1, 12), units, Options{})
	if err != nil || rep.Covered || rep.Witness.String() != "⟨111111111111⟩" || rep.Stats.Lines != 1 || rep.Stats.Resolutions != 1<<12-2 {
		t.Errorf("Covers: %+v, %v; want the uncovered last point from one line of 2^12-2 resolutions", rep, err)
	}
}

// TestLineDonatesAtEveryUnit: with a crowd of idle workers that never goes
// away, every settled unit unwinds its line to donate, until nothing is left
// to split. Run one after the other in key order, the fragments must add up
// to the sequential enumeration, settle exactly its units in its order and
// probe each position once: a pass goes on from the right siblings of the
// unit it settled last, so no settled unit is walked again.
func TestLineDonatesAtEveryUnit(t *testing.T) {
	depths, sao := []uint8{3, 4}, []int{0, 1}
	var combs []dyadic.Box
	for a := uint64(0); a < 8; a++ {
		for v := uint64(1); v < 16; v += 2 {
			combs = append(combs, dyadic.Box{dyadic.Unit(a, 3), dyadic.Unit(v, 4)})
		}
	}
	o := MustBoxOracle(depths, combs)
	for _, mode := range []Mode{Preloaded, Reloaded} {
		opts := Options{Mode: mode, SAO: sao}
		var settled []string
		base, err := opts.runBase(o, sao)
		if err != nil {
			t.Fatal(err)
		}
		run := func(root dyadic.Box, steal *stealSession) *Result {
			sk, run, err := newPass(o, opts, sao, []dyadic.Box{root}, base, steal)
			if err != nil {
				t.Fatal(err)
			}
			settle := sk.settleUnit
			sk.settleUnit = func(b dyadic.Box) (dyadic.Box, error) {
				settled = append(settled, b.String())
				return settle(b)
			}
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		seq := run(dyadic.Universe(2), nil)
		seqSettled := settled
		settled = nil
		seeds, _ := stealSeeds(depths, sao, 1)
		sched := newStealScheduler(1, seeds, defaultStealDepth, sao, depths)
		sched.waiters = 1 << 20
		sched.syncDemand()
		var got Result
		for f := sched.nextToMerge(); f != nil; f = sched.nextToMerge() {
			res := run(f.box, sched.session(0, f))
			got.Tuples = append(got.Tuples, res.Tuples...)
			got.Stats.Merge(res.Stats)
		}
		if !reflect.DeepEqual(got.Tuples, seq.Tuples) {
			t.Fatalf("%v: fragments enumerated %v, sequential run %v", mode, got.Tuples, seq.Tuples)
		}
		if !reflect.DeepEqual(settled, seqSettled) {
			t.Fatalf("%v: fragments settled the units %v, sequential run %v", mode, settled, seqSettled)
		}
		// At least the 64 outputs each unwound to donate. Every cover here is
		// a unit box, so a position walked again — a settled unit, or a gap
		// found before — would be one more cover hit.
		if sched.steals < 64 || got.Stats.OracleCalls != seq.Stats.OracleCalls || got.Stats.CoverHits != seq.Stats.CoverHits {
			t.Errorf("%v: %d steals, %d probes, %d cover hits; sequential run %d probes, %d cover hits", mode,
				sched.steals, got.Stats.OracleCalls, got.Stats.CoverHits, seq.Stats.OracleCalls, seq.Stats.CoverHits)
		}
	}
}

// TestBaseOrderMismatch: a base is a tree in the SAO of the runs it
// serves; one built for another order is refused by name, not walked in
// the wrong order.
func TestBaseOrderMismatch(t *testing.T) {
	o := MustBoxOracle(depthsOf(3, 2), boxes("0,λ,λ"))
	base, err := BuildPreloadedBase(o, Options{SAO: []int{2, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := "core: prepared base was built for SAO [2 0 1], run has SAO [0 1 2]"
	for _, mode := range []Mode{Preloaded, Reloaded} {
		if _, err := Run(o, Options{Mode: mode, Base: base}); err == nil || err.Error() != want {
			t.Errorf("%v over a base of another order: %v, want %q", mode, err, want)
		}
		if _, err := RunShards(func() Oracle { return o.Clone() }, Options{Mode: mode, Base: base}, 2); err == nil || err.Error() != want {
			t.Errorf("%v sharded over a base of another order: %v, want %q", mode, err, want)
		}
		if _, err := Run(o, Options{Mode: mode, Base: base, SAO: []int{2, 0, 1}}); err != nil {
			t.Errorf("%v over a base of its own order: %v", mode, err)
		}
	}
	if _, err := BuildPreloadedBase(o, Options{SAO: []int{0, 0, 1}}); err == nil {
		t.Error("a base was built for an SAO that is no permutation")
	}
}

// TestTreePoolDropsHighWaterTree: a tree that grew past maxPooledSlab is
// not recycled, so one huge query does not pin its slabs.
func TestTreePoolDropsHighWaterTree(t *testing.T) {
	big := getTree(2)
	for v := uint64(0); big.Len() <= maxPooledSlab/2; v++ { // 2 intervals a box
		big.Insert(dyadic.Box{dyadic.Unit(v>>10, 20), dyadic.Unit(v&1023, 10)})
	}
	if _, ivs := big.SlabCaps(); ivs <= maxPooledSlab {
		t.Fatalf("payload slab holds %d intervals, not past the limit %d", ivs, maxPooledSlab)
	}
	putTree(big)
	if got := getTree(2); got == big {
		t.Fatal("the pool handed back a tree past the high-water limit")
	}
}
