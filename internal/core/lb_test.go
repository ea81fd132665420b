package core_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/lb"
	"tetrisjoin/internal/relation"
)

// The LB arms of the package's tests. The LB modes run in the Balance lift,
// internal/lb, which imports core, so they run from here with Options.Space
// set, through the bodies the plain arms run (export_test.go).

// lbRuns are the base options of the LB modes.
var lbRuns = []core.Options{
	{Mode: core.PreloadedLB, Space: lb.New},
	{Mode: core.ReloadedLB, Space: lb.New},
}

func TestLBExample44Trace(t *testing.T)          { core.Example44Trace(t, lbRuns) }
func TestLBFigure5TriangleEmpty(t *testing.T)    { core.Figure5TriangleEmpty(t, lbRuns) }
func TestLBFigure6TriangleNonEmpty(t *testing.T) { core.Figure6TriangleNonEmpty(t, lbRuns) }
func TestLBSingleBoxCoversAll(t *testing.T)      { core.SingleBoxCoversAll(t, lbRuns) }
func TestLBRandomAgainstBruteForce(t *testing.T) { core.RandomAgainstBruteForce(t, lbRuns) }

func TestLBMalformedOracleBoxesRejected(t *testing.T) {
	core.MalformedOracleBoxesRejected(t, lbRuns)
}

func TestLBLazyLoadFailuresNameTheCause(t *testing.T) {
	core.LazyLoadFailuresNameTheCause(t, lbRuns[1:])
}

func TestLBOracleScribblingOnThePoint(t *testing.T) {
	core.OracleScribblingOnThePoint(t, lbRuns[1:])
}

func TestLBSinglePassMatchesRestartMode(t *testing.T) {
	core.SinglePassMatchesRestartMode(t, lb.New)
}

func TestLBLineMatchesItsDefinition(t *testing.T) { core.LineMatchesItsDefinition(t, lb.New) }

func TestLBFallbackLowDimensions(t *testing.T) {
	// n=2: LB modes fall back to the plain variants but must be correct.
	depths := core.DepthsOf(2, 3)
	r := rand.New(rand.NewSource(7))
	bs := core.RandBoxSet(r, 2, 3, 8)
	want := core.BruteUncovered(depths, bs)
	core.SortTuples(want)
	o := core.MustBoxOracle(depths, bs)
	for _, opts := range lbRuns {
		res, err := core.Run(o, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Tuples
		core.SortTuples(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v fallback output mismatch", opts.Mode)
		}
	}
}

func TestLBHighDimensional(t *testing.T) {
	// n=4 random instances: LB modes agree with brute force.
	r := rand.New(rand.NewSource(321))
	depths := core.DepthsOf(4, 2)
	for trial := 0; trial < 15; trial++ {
		bs := core.RandBoxSet(r, 4, 2, 12)
		want := core.BruteUncovered(depths, bs)
		core.SortTuples(want)
		o := core.MustBoxOracle(depths, bs)
		for _, opts := range lbRuns {
			res, err := core.Run(o, opts)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, opts.Mode, err)
			}
			got := res.Tuples
			core.SortTuples(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v: got %d tuples, want %d", trial, opts.Mode, len(got), len(want))
			}
		}
	}
}

func TestReloadedLBRebuilds(t *testing.T) {
	// Enough lazily-loaded boxes must trigger at least one partition
	// rebuild, and rebuilds must not corrupt the output.
	depths := core.DepthsOf(3, 4)
	var bs []dyadic.Box
	for v := uint64(0); v < 16; v++ {
		bs = append(bs, dyadic.Box{dyadic.Unit(v, 4), dyadic.Lambda, dyadic.Lambda})
	}
	o := core.MustBoxOracle(depths, bs)
	res, err := core.Run(o, core.Options{Mode: core.ReloadedLB, Space: lb.New})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Errorf("expected empty output, got %d tuples", len(res.Tuples))
	}
	if res.Stats.Rebuilds == 0 {
		t.Error("expected at least one partition rebuild")
	}
}

func TestLBModesHonorSharedBudgetOutputs(t *testing.T) {
	// A lifted run must draw output slots from an explicitly shared Budget
	// (the Budget doc says it replaces MaxOutput).
	o := core.ShardInstance(t)
	full, err := core.Run(o, core.Options{Mode: core.ReloadedLB, Space: lb.New})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Tuples) < 2 {
		t.Fatal("instance too small for the test")
	}
	res, err := core.Run(o, core.Options{Mode: core.ReloadedLB, Space: lb.New, Budget: core.NewBudget(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Errorf("shared budget ignored: got %d tuples, want 1", len(res.Tuples))
	}
	// And MaxOutput keeps working through the implicit budget.
	res, err = core.Run(o, core.Options{Mode: core.ReloadedLB, Space: lb.New, MaxOutput: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Errorf("MaxOutput ignored: got %d tuples, want 2", len(res.Tuples))
	}
}

// TestSpaceOnlyInLBModes: Options.Space is the LB modes' and only theirs.
// An LB run without it fails naming its mode, and a plain run with it
// fails, at every entry point that runs a query.
func TestSpaceOnlyInLBModes(t *testing.T) {
	const query = "R(A,B), R(B,C), R(A,C)"
	r := relation.MustNewUniform("R", []string{"X", "Y"}, 3)
	for _, e := range [][2]uint64{{1, 2}, {2, 3}, {1, 3}} {
		r.MustInsert(e[0], e[1])
	}
	q, err := join.Parse(query, map[string]*relation.Relation{"R": r})
	if err != nil {
		t.Fatal(err)
	}
	c := catalog.New()
	if _, err := c.Ingest(r); err != nil {
		t.Fatal(err)
	}
	o := core.ShardInstance(t)
	entries := []struct {
		name string
		run  func(mode core.Mode, space bool) error
	}{
		{"core.Run", func(mode core.Mode, space bool) error {
			opts := core.Options{Mode: mode}
			if space {
				opts.Space = lb.New
			}
			_, err := core.Run(o, opts)
			return err
		}},
		{"join.Execute", func(mode core.Mode, space bool) error {
			opts := join.Options{Mode: mode}
			if space {
				opts.Space = lb.New
			}
			_, err := join.Execute(q, opts)
			return err
		}},
		{"catalog.Execute", func(mode core.Mode, space bool) error {
			opts := join.Options{Mode: mode, Parallelism: 1}
			if space {
				opts.Space = lb.New
			}
			_, err := c.Execute(query, opts)
			return err
		}},
	}
	for _, row := range []struct {
		mode  core.Mode
		space bool
		want  string
	}{
		{core.PreloadedLB, false, "tetris-preloaded-lb needs Options.Space"},
		{core.ReloadedLB, false, "tetris-reloaded-lb needs Options.Space"},
		{core.Preloaded, true, "core: tetris-preloaded works in the oracle's own space; Options.Space is for the LB modes"},
		{core.Reloaded, true, "core: tetris-reloaded works in the oracle's own space; Options.Space is for the LB modes"},
	} {
		for _, e := range entries {
			if err := e.run(row.mode, row.space); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Errorf("%s %v with Space=%v: error %v, want %q", e.name, row.mode, row.space, err, row.want)
			}
		}
	}
	// So does RunShards, which a parallel plain join runs on.
	plain := core.Options{Mode: core.Reloaded, Space: lb.New}
	if _, err := core.RunShards(func() core.Oracle { return o.Clone() }, plain, 2); err == nil {
		t.Error("RunShards accepted a Space")
	}
}
