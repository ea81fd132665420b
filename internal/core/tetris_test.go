package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tetrisjoin/internal/dyadic"
)

func depthsOf(n int, d uint8) []uint8 {
	ds := make([]uint8, n)
	for i := range ds {
		ds[i] = d
	}
	return ds
}

func boxes(ss ...string) []dyadic.Box {
	out := make([]dyadic.Box, len(ss))
	for i, s := range ss {
		out[i] = dyadic.MustParseBox(s)
	}
	return out
}

// bruteUncovered enumerates all points not covered by any box.
func bruteUncovered(depths []uint8, bs []dyadic.Box) [][]uint64 {
	var out [][]uint64
	point := make([]uint64, len(depths))
	var rec func(dim int)
	rec = func(dim int) {
		if dim == len(depths) {
			for _, b := range bs {
				if b.ContainsPoint(point, depths) {
					return
				}
			}
			cp := make([]uint64, len(point))
			copy(cp, point)
			out = append(out, cp)
			return
		}
		for v := uint64(0); v < 1<<depths[dim]; v++ {
			point[dim] = v
			rec(dim + 1)
		}
	}
	rec(0)
	return out
}

func sortTuples(ts [][]uint64) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

func allModes() []Mode { return []Mode{Reloaded, Preloaded, PreloadedLB, ReloadedLB} }

// plainRuns are the base options of the plain modes. A test body that takes
// its runs as base options is shared with the LB arm in lb_test.go, which
// passes the LB modes with Options.Space set.
var plainRuns = []Options{{Mode: Reloaded}, {Mode: Preloaded}}

func runAll(t *testing.T, runs []Options, depths []uint8, bs []dyadic.Box) map[Mode]*Result {
	t.Helper()
	o := MustBoxOracle(depths, bs)
	out := map[Mode]*Result{}
	for _, opts := range runs {
		res, err := Run(o, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Mode, err)
		}
		out[opts.Mode] = res
	}
	return out
}

func TestExample44Trace(t *testing.T) { example44Trace(t, plainRuns) }

func example44Trace(t *testing.T, runs []Options) {
	// Figure 10 / Example 4.4: B = {⟨λ,0⟩, ⟨00,λ⟩, ⟨λ,11⟩, ⟨10,1⟩}
	// over a 2-bit 2-dimensional space. Output tuples are ⟨01,10⟩ and
	// ⟨11,10⟩, i.e. (1,2) and (3,2).
	depths := depthsOf(2, 2)
	bs := boxes("λ,0", "00,λ", "λ,11", "10,1")
	want := [][]uint64{{1, 2}, {3, 2}}
	for _, opts := range runs {
		m := opts.Mode
		o := MustBoxOracle(depths, bs)
		res, err := Run(o, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got := res.Tuples
		sortTuples(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: tuples = %v, want %v", m, got, want)
		}
		if res.Stats.Outputs != 2 {
			t.Errorf("%v: Outputs = %d", m, res.Stats.Outputs)
		}
	}
}

func TestExample44ResolutionSequence(t *testing.T) {
	// With the SAO (X,Y) of Example 4.4, plain Tetris must discover the
	// outputs in the narrated order: ⟨01,10⟩ first, then ⟨11,10⟩. Both
	// initializations perform exactly 8 resolutions, whether the last
	// dimension is walked as lines or bisected; bisected, the last
	// resolvent is ⟨λ,λ⟩.
	depths := depthsOf(2, 2)
	o := MustBoxOracle(depths, boxes("λ,0", "00,λ", "λ,11", "10,1"))
	want := [][]uint64{{1, 2}, {3, 2}}
	for _, c := range []struct {
		mode  Mode
		lines int64
	}{{Reloaded, 4}, {Preloaded, 3}} {
		for _, bisected := range []bool{false, true} {
			var observed int64
			var last dyadic.Box
			opts := Options{Mode: c.mode, SAO: []int{0, 1}}
			wantLines := c.lines
			if bisected {
				opts.onResolve = func(_, _, w dyadic.Box, _ int) { observed, last = observed+1, w.Clone() }
				wantLines = 0
			}
			res, err := Run(o, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v bisected=%v", c.mode, bisected)
			if !reflect.DeepEqual(res.Tuples, want) {
				t.Errorf("%s: outputs %v, want %v in that order", label, res.Tuples, want)
			}
			if s := res.Stats; s.Resolutions != 8 || s.Lines != wantLines {
				t.Errorf("%s: %d resolutions over %d lines, want 8 over %d", label, s.Resolutions, s.Lines, wantLines)
			}
			if bisected && (observed != 8 || !last.Equal(dyadic.Universe(2))) {
				t.Errorf("%s: observed %d resolutions, the last deriving %v; want 8, the last deriving ⟨λ,λ⟩", label, observed, last)
			}
		}
	}
}

func TestFigure5TriangleEmpty(t *testing.T) { figure5TriangleEmpty(t, plainRuns) }

func figure5TriangleEmpty(t *testing.T, runs []Options) {
	// Figure 5: the triangle instance whose six gap boxes cover the whole
	// space; the join output is empty.
	for _, d := range []uint8{1, 2, 4, 8} {
		depths := depthsOf(3, d)
		bs := boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,0", "1,λ,1")
		for m, res := range runAll(t, runs, depths, bs) {
			if len(res.Tuples) != 0 {
				t.Errorf("d=%d %v: output not empty: %v", d, m, res.Tuples)
			}
		}
	}
}

func TestFigure6TriangleNonEmpty(t *testing.T) { figure6TriangleNonEmpty(t, plainRuns) }

func figure6TriangleNonEmpty(t *testing.T, runs []Options) {
	// Figure 6: T is replaced by T' with gaps ⟨0,λ,1⟩ and ⟨1,λ,0⟩; the
	// output is every (a,b,c) whose most significant bits satisfy
	// α≠β and β≠γ: 2·8^{d-1}... for depth d there are 2·(2^{d-1})^3 tuples.
	for _, d := range []uint8{1, 2, 3} {
		depths := depthsOf(3, d)
		bs := boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,1", "1,λ,0")
		want := bruteUncovered(depths, bs)
		sortTuples(want)
		half := uint64(1) << (d - 1)
		if got := uint64(len(want)); got != 2*half*half*half {
			t.Fatalf("d=%d: brute force found %d outputs, want %d", d, got, 2*half*half*half)
		}
		for m, res := range runAll(t, runs, depths, bs) {
			got := res.Tuples
			sortTuples(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("d=%d %v: tuples mismatch (got %d, want %d)", d, m, len(got), len(want))
			}
		}
	}
}

func TestEmptyBoxSetListsEverything(t *testing.T) {
	depths := depthsOf(2, 2)
	o := MustBoxOracle(depths, nil)
	res, err := Run(o, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 16 {
		t.Errorf("got %d tuples, want 16", len(res.Tuples))
	}
}

func TestSingleBoxCoversAll(t *testing.T) { singleBoxCoversAll(t, plainRuns) }

func singleBoxCoversAll(t *testing.T, runs []Options) {
	depths := depthsOf(3, 5)
	o := MustBoxOracle(depths, boxes("λ,λ,λ"))
	for _, opts := range runs {
		m := opts.Mode
		res, err := Run(o, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.Tuples) != 0 {
			t.Errorf("%v: expected empty output", m)
		}
	}
}

func randBoxSet(r *rand.Rand, n int, d uint8, count int) []dyadic.Box {
	bs := make([]dyadic.Box, count)
	for i := range bs {
		b := make(dyadic.Box, n)
		for j := range b {
			l := uint8(r.Intn(int(d) + 1))
			var v uint64
			if l > 0 {
				v = r.Uint64() & (1<<l - 1)
			}
			b[j] = dyadic.Interval{Bits: v, Len: l}
		}
		bs[i] = b
	}
	return bs
}

// TestRandomAgainstBruteForce cross-validates every mode (and the
// no-cache skeleton) against pointwise enumeration on random instances.
func TestRandomAgainstBruteForce(t *testing.T) {
	randomAgainstBruteForce(t, plainRuns)
}

func randomAgainstBruteForce(t *testing.T, runs []Options) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(2) // 2 or 3 dimensions
		d := uint8(2 + r.Intn(2))
		count := r.Intn(14)
		depths := depthsOf(n, d)
		bs := randBoxSet(r, n, d, count)
		want := bruteUncovered(depths, bs)
		sortTuples(want)
		o := MustBoxOracle(depths, bs)
		for _, opts := range runs {
			m := opts.Mode
			res, err := Run(o, opts)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			got := res.Tuples
			sortTuples(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v: got %v, want %v (boxes %v)", trial, m, got, want, bs)
			}
		}
		// No-cache (Tree Ordered) must still be correct, just slower.
		res, err := Run(o, Options{Mode: Reloaded, NoCache: true})
		if err != nil {
			t.Fatalf("trial %d nocache: %v", trial, err)
		}
		got := res.Tuples
		sortTuples(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d nocache: got %v, want %v", trial, got, want)
		}
	}
}

// TestRandomSAOsAgree: the output must be identical under every SAO.
func TestRandomSAOsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	depths := depthsOf(3, 3)
	saos := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}}
	for trial := 0; trial < 20; trial++ {
		bs := randBoxSet(r, 3, 3, 10)
		o := MustBoxOracle(depths, bs)
		var ref [][]uint64
		for i, sao := range saos {
			res, err := Run(o, Options{Mode: Reloaded, SAO: sao})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Tuples
			sortTuples(got)
			if i == 0 {
				ref = got
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d: SAO %v output differs", trial, sao)
			}
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	depths := depthsOf(2, 3)
	bs := boxes("λ,0", "00,λ", "λ,11", "10,1")
	o := MustBoxOracle(depths, bs)
	res, err := Run(o, Options{Mode: Reloaded})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Outputs != int64(len(res.Tuples)) {
		t.Errorf("Outputs=%d, len(Tuples)=%d", res.Stats.Outputs, len(res.Tuples))
	}
	if res.Stats.BoxesLoaded == 0 || res.Stats.OracleCalls == 0 {
		t.Error("expected oracle activity in Reloaded mode")
	}
	if res.Stats.KnowledgeBase == 0 {
		t.Error("knowledge base should not be empty at the end")
	}
}

func TestOnOutputStreamingAndStop(t *testing.T) {
	depths := depthsOf(2, 2)
	o := MustBoxOracle(depths, nil) // everything is output: 16 tuples
	var seen int
	res, err := Run(o, Options{OnOutput: func(tuple []uint64) bool {
		seen++
		return seen < 5
	}})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("callback saw %d tuples, want 5", seen)
	}
	if len(res.Tuples) != 0 {
		t.Error("Tuples should be empty when streaming")
	}
	// MaxOutput limit.
	res, err = Run(o, Options{MaxOutput: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Errorf("MaxOutput: got %d tuples", len(res.Tuples))
	}
}

func TestMaxResolutionsBudget(t *testing.T) {
	depths := depthsOf(3, 6)
	// Odd/even comb along the last dimension forces many resolutions.
	var bs []dyadic.Box
	for v := uint64(0); v < 64; v += 2 {
		bs = append(bs, dyadic.Box{dyadic.Lambda, dyadic.Lambda, dyadic.Unit(v, 6)})
		bs = append(bs, dyadic.Box{dyadic.Lambda, dyadic.Unit(v, 6), dyadic.Lambda})
	}
	o := MustBoxOracle(depths, bs)
	_, err := Run(o, Options{Mode: Preloaded, MaxResolutions: 5})
	if err == nil {
		t.Fatal("expected resolution budget error")
	}
}

func TestBadSAO(t *testing.T) {
	o := MustBoxOracle(depthsOf(2, 2), nil)
	for _, sao := range [][]int{{0}, {0, 0}, {0, 2}, {1, -1}} {
		if _, err := Run(o, Options{SAO: sao}); err == nil {
			t.Errorf("SAO %v accepted", sao)
		}
	}
}

// violatingOracle returns gap boxes that do not contain the probe point.
type violatingOracle struct{ depths []uint8 }

func (v violatingOracle) Dims() int       { return len(v.depths) }
func (v violatingOracle) Depths() []uint8 { return v.depths }
func (v violatingOracle) GapsContaining(point []uint64) []dyadic.Box {
	return boxes("0,0") // never contains points outside ⟨0,0⟩... often violating
}
func (v violatingOracle) AllGaps() []dyadic.Box { return nil }

func TestOracleContractViolation(t *testing.T) {
	o := violatingOracle{depths: depthsOf(2, 2)}
	_, err := Run(o, Options{Mode: Reloaded})
	if err == nil {
		t.Fatal("expected contract violation error")
	}
}

// stallingOracle keeps returning the same valid box, so the run makes no
// progress once the box is known.
type stallingOracle struct{ depths []uint8 }

func (s stallingOracle) Dims() int       { return len(s.depths) }
func (s stallingOracle) Depths() []uint8 { return s.depths }
func (s stallingOracle) GapsContaining(point []uint64) []dyadic.Box {
	// A box that contains every point but is secretly never enough,
	// because we lie: return a unit box at the point, then keep claiming
	// the point is covered by a box the knowledge base already has.
	return []dyadic.Box{dyadic.Point(point, s.depths)}
}
func (s stallingOracle) AllGaps() []dyadic.Box { return nil }

func TestStallingOracleTerminates(t *testing.T) {
	// Each probe is answered by its own unit box, so the run terminates
	// after covering all 16 points with "gaps" — output must be empty.
	o := stallingOracle{depths: depthsOf(2, 2)}
	res, err := Run(o, Options{Mode: Reloaded})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Errorf("expected no outputs, got %v", res.Tuples)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		Reloaded:    "tetris-reloaded",
		Preloaded:   "tetris-preloaded",
		PreloadedLB: "tetris-preloaded-lb",
		ReloadedLB:  "tetris-reloaded-lb",
		Mode(99):    "Mode(99)",
	} {
		if m.String() != want {
			t.Errorf("Mode %d String = %q", int(m), m.String())
		}
	}
}

// TestModeNameRoundTrip: Name is ParseMode's inverse on all four modes —
// what the durable catalog's records and the protocol rely on — and an
// unknown mode's name does not parse.
func TestModeNameRoundTrip(t *testing.T) {
	for _, m := range allModes() {
		got, err := ParseMode(m.Name())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.Name(), got, err, m)
		}
		if m.String() != "tetris-"+m.Name() {
			t.Errorf("%v: String %q is not tetris-%s", int(m), m.String(), m.Name())
		}
	}
	if got, err := ParseMode(""); err != nil || got != Reloaded {
		t.Errorf(`ParseMode("") = %v, %v; want the Reloaded default`, got, err)
	}
	for _, m := range []Mode{Mode(-1), Mode(4), Mode(99)} {
		if _, err := ParseMode(m.Name()); err == nil {
			t.Errorf("unknown mode %d has the parseable name %q", int(m), m.Name())
		}
	}
}

func TestNoCacheMoreResolutionsOnRepetitiveInstance(t *testing.T) {
	// An instance where a sub-proof with wildcard support is reused
	// across sibling subtrees: caching must save resolutions.
	const d = 4
	depths := depthsOf(2, d)
	var bs []dyadic.Box
	// Dimension 1 is fully covered by singleton boxes with λ in dim 0:
	// the merged proof ⟨λ,λ⟩ is derived once with caching, repeatedly
	// without.
	for v := uint64(0); v < 1<<d; v++ {
		bs = append(bs, dyadic.Box{dyadic.Lambda, dyadic.Unit(v, d)})
	}
	o := MustBoxOracle(depths, bs)
	cached, err := Run(o, Options{Mode: Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := Run(o, Options{Mode: Preloaded, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.Resolutions > uncached.Stats.Resolutions {
		t.Errorf("caching used more resolutions (%d) than no-cache (%d)",
			cached.Stats.Resolutions, uncached.Stats.Resolutions)
	}
}

func TestCovers(t *testing.T) {
	depths := depthsOf(3, 2)
	full := boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,0", "1,λ,1")
	rep, err := Covers(depths, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Covered {
		t.Error("Figure 5 boxes should cover the space")
	}
	if !rep.Witness.IsUniverse() {
		t.Errorf("witness %v should be the universe", rep.Witness)
	}
	partial := boxes("0,λ,λ")
	rep, err = Covers(depths, partial, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered {
		t.Error("half-space reported as covering")
	}
	if rep.Witness[0].Bits>>1 != 1 { // uncovered point must be in the 1-half
		t.Errorf("witness %v not in the uncovered half", rep.Witness)
	}
}

func TestCoversTarget(t *testing.T) {
	depths := depthsOf(2, 2)
	bs := boxes("00,λ", "01,λ")
	rep, err := CoversTarget(depths, bs, box("0,λ"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Covered {
		t.Error("⟨0,λ⟩ should be covered by its two halves")
	}
	rep, err = CoversTarget(depths, bs, box("λ,λ"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered {
		t.Error("universe should not be covered")
	}
	if _, err := CoversTarget(depths, bs, box("λ"), Options{}); err == nil {
		t.Error("invalid target accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := NewBoxOracle(nil, nil); err == nil {
		t.Error("zero-dimension oracle accepted")
	}
	if _, err := NewBoxOracle([]uint8{0}, nil); err == nil {
		t.Error("zero-depth dimension accepted")
	}
	if _, err := NewBoxOracle([]uint8{2}, boxes("000")); err == nil {
		t.Error("invalid box accepted by oracle")
	}
	o := MustBoxOracle(depthsOf(2, 2), nil)
	if _, err := Run(o, Options{Mode: Mode(42)}); err == nil {
		t.Error("unknown mode accepted")
	}
	// The box-restricted entry points take the plain modes only, with one
	// message.
	for _, m := range []Mode{PreloadedLB, ReloadedLB, Mode(42)} {
		_, boxErr := RunBox(o, Options{Mode: m}, dyadic.Universe(2))
		_, shardErr := RunShards(func() Oracle { return o }, Options{Mode: m}, 2)
		if boxErr == nil || shardErr == nil {
			t.Errorf("%v: RunBox error %v, RunShards error %v; want both refused", m, boxErr, shardErr)
			continue
		}
		if want := strings.Replace(boxErr.Error(), "RunBox", "RunShards", 1); shardErr.Error() != want {
			t.Errorf("%v: RunShards refused with %q, RunBox with %q", m, shardErr, boxErr)
		}
	}
}

func ExampleRun() {
	// The bowtie-free 2-dimensional instance of Example 4.4.
	depths := []uint8{2, 2}
	o := MustBoxOracle(depths, []dyadic.Box{
		dyadic.MustParseBox("λ,0"),
		dyadic.MustParseBox("00,λ"),
		dyadic.MustParseBox("λ,11"),
		dyadic.MustParseBox("10,1"),
	})
	res, _ := Run(o, Options{Mode: Reloaded})
	for _, tup := range res.Tuples {
		fmt.Println(tup)
	}
	// Output:
	// [1 2]
	// [3 2]
}
