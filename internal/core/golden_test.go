package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/lb"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/workload"
)

// golden is the work a run must report, exactly.
type golden struct{ resolutions, loaded, kb, outputs int64 }

// goldenLB is a lifted run's: ReloadedLB also pins its oracle probes and
// partition rebuilds, PreloadedLB probes nothing and never rebuilds.
type goldenLB struct {
	golden
	probes, rebuilds int64
}

func checkGolden(t *testing.T, label string, s core.Stats, want golden) {
	t.Helper()
	got := golden{s.Resolutions, s.BoxesLoaded, int64(s.KnowledgeBase), s.Outputs}
	if got != want {
		t.Errorf("%s: resolutions/loaded/kb/outputs = %+v, want %+v", label, got, want)
	}
}

func checkGoldenLB(t *testing.T, label string, s core.Stats, want goldenLB) {
	t.Helper()
	checkGolden(t, label, s, want.golden)
	if s.OracleCalls != want.probes || s.Rebuilds != want.rebuilds {
		t.Errorf("%s: %d oracle probes and %d rebuilds, want %d and %d", label,
			s.OracleCalls, s.Rebuilds, want.probes, want.rebuilds)
	}
}

// execution is one run of a golden row: its tuples, in order, and its work.
type execution struct {
	tuples [][]uint64
	stats  core.Stats
}

// goldenExecutions runs the rows of TestGoldenEngineCounts, each shape on a
// fresh catalog, and returns them by label. The lifted rows of a shape run
// one after the other on its catalog, in the order lbModes gives.
func goldenExecutions(t *testing.T, lbModes ...core.Mode) (map[string]execution, []string) {
	runs := map[string]execution{}
	var labels []string
	record := func(label string, res *join.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		runs[label] = execution{res.Tuples, res.Stats}
		labels = append(labels, label)
	}
	// Both LB modes on the catalog the shape's other rows ran on: an
	// ad-hoc execution plans from the relation versions alone, so what
	// ran before it, and in which order, must not move its counts.
	lifted := func(label string, c *catalog.Catalog, query string) {
		for _, mode := range lbModes {
			res, err := c.Execute(query, join.Options{Mode: mode, Space: lb.New, Parallelism: 1})
			record(label+" "+mode.Name(), res, err)
		}
	}

	// The AGM-hard star triangle R=S=T={0}×[64] ∪ [64]×{0} at depth 12 as
	// the prepared_star workload runs it: prepared once, executed in
	// Preloaded mode over the plan's shared base, planner-chosen SAO.
	c := catalog.New()
	for _, name := range []string{"R", "S", "T"} {
		r := relation.MustNewUniform(name, []string{"X", "Y"}, 12)
		for v := uint64(0); v < 64; v++ {
			r.MustInsert(0, v)
			r.MustInsert(v, 0)
		}
		if _, err := c.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Prepare("R(A,B), S(B,C), T(A,C)", join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	for exec := 1; exec <= 2; exec++ { // the second execution reuses the base
		res, err := p.Execute(join.Options{Parallelism: 1})
		record(fmt.Sprintf("star %d", exec), res, err)
	}
	// The same query in the lifted space.
	lifted("star", c, "R(A,B), S(B,C), T(A,C)")

	// Seeded random triangles, 400 tuples per relation over 64×64, run
	// Reloaded the way an ad-hoc query is.
	for seed := int64(1); seed <= 3; seed++ {
		c := catalog.New()
		for i, name := range []string{"E0", "E1", "E2"} {
			rng := rand.New(rand.NewSource(seed*10 + int64(i)))
			r := relation.MustNewUniform(name, []string{"X", "Y"}, 6)
			for r.Len() < 400 {
				r.MustInsert(uint64(rng.Intn(64)), uint64(rng.Intn(64)))
			}
			if _, err := c.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("random triangle %d", seed)
		res, err := c.Execute("E0(A,B), E1(B,C), E2(A,C)", join.Options{Mode: core.Reloaded, Parallelism: 1})
		record(label, res, err)
		if seed == 1 {
			lifted(label, c, "E0(A,B), E1(B,C), E2(A,C)")
		}
	}

	// Example F.1, the instance the LB modes exist for (plain Tetris needs
	// ~|C|² resolutions on it, the lift ~|C|^{3/2}).
	f1 := workload.ExampleF1(8)
	res, err := core.Run(core.MustBoxOracle(f1.Depths, f1.Boxes), core.Options{Mode: core.ReloadedLB, Space: lb.New})
	if err != nil {
		t.Fatal(err)
	}
	runs[f1.Name] = execution{res.Tuples, res.Stats}
	labels = append(labels, f1.Name)
	return runs, labels
}

// TestGoldenEngineCounts pins the engine's deterministic work on the two
// shapes the serving benchmark measures. The loaded, outputs, probes and
// rebuilds columns are the restart-loop engine's and no change to how
// frames are covered may move them: the pass, the fused insert, the
// narrowed probes, the SAO-ordered tries and the lines all load the same
// boxes and report the same tuples. The resolutions column is as of the
// lines: a line over k covers charges k-1, which is the bisection's count
// unless a cover loaded late reaches back over earlier ones (the reloaded
// rows rose; the preloaded ones did not move). The kb column counts what a
// run keeps, which in the plain modes is its gap boxes and the resolvents
// larger than their frame: every row is also run with every box stored,
// and must do the same work but for that column.
func TestGoldenEngineCounts(t *testing.T) {
	runs, labels := goldenExecutions(t, core.PreloadedLB, core.ReloadedLB)
	var kept map[string]execution
	core.KeepingEverything(func() { kept, _ = goldenExecutions(t, core.PreloadedLB, core.ReloadedLB) })
	if runs["random triangle 1"].stats.KnowledgeBase == kept["random triangle 1"].stats.KnowledgeBase {
		t.Fatal("random triangle 1 kept as many boxes storing everything: the comparison is vacuous")
	}
	for _, label := range labels {
		got, all := runs[label], kept[label]
		all.stats.KnowledgeBase = got.stats.KnowledgeBase
		if !reflect.DeepEqual(got.tuples, all.tuples) || got.stats != all.stats {
			t.Errorf("%s: storing only boxes larger than their frame changed the run: %d tuples, %+v; storing every box %d tuples, %+v",
				label, len(got.tuples), got.stats, len(all.tuples), all.stats)
		}
	}
	// ReloadedLB first: every row, lifted or not, must do the same work.
	reversed, _ := goldenExecutions(t, core.ReloadedLB, core.PreloadedLB)
	for _, label := range labels {
		got, rev := runs[label], reversed[label]
		if !reflect.DeepEqual(got.tuples, rev.tuples) || got.stats != rev.stats {
			t.Errorf("%s: running ReloadedLB first changed the run: %d tuples, %+v; in the pinned order %d tuples, %+v",
				label, len(rev.tuples), rev.stats, len(got.tuples), got.stats)
		}
	}

	for _, label := range []string{"star 1", "star 2"} {
		s := runs[label].stats
		// A prepared Preloaded run keeps nothing of its own: the kb column
		// is its shared base.
		checkGolden(t, label, s, golden{2475, 2298, 2268, 190})
		if s.OracleCalls != 0 {
			t.Errorf("%s: Preloaded probed the oracle %d times", label, s.OracleCalls)
		}
	}
	checkGoldenLB(t, "star preloaded-lb", runs["star preloaded-lb"].stats, goldenLB{golden{3333, 2298, 45, 190}, 0, 0})
	checkGoldenLB(t, "star reloaded-lb", runs["star reloaded-lb"].stats, goldenLB{golden{10960, 1164, 45, 190}, 1342, 10})

	// Every uncovered unit box costs one oracle probe, as it did under the
	// restart loop. The kb column is the loaded gaps and the kept resolvents:
	// a gap load is one plain insert and sweeps nothing, so triangles 1 and
	// 3 keep the one gap each that a later gap used to subsume (2863 and
	// 2988 before), and kb equals loaded on all three.
	for seed, want := range []struct {
		golden
		probes int64
	}{
		{golden{13430, 2864, 2864, 227}, 2141},
		{golden{13282, 2974, 2974, 258}, 2275},
		{golden{13878, 2989, 2989, 250}, 2267},
	} {
		label := fmt.Sprintf("random triangle %d", seed+1)
		checkGolden(t, label, runs[label].stats, want.golden)
		if got := runs[label].stats.OracleCalls; got != want.probes {
			t.Errorf("%s: %d oracle probes, want %d", label, got, want.probes)
		}
	}
	checkGoldenLB(t, "random triangle 1 preloaded-lb", runs["random triangle 1 preloaded-lb"].stats, goldenLB{golden{9079, 3195, 1233, 227}, 0, 0})
	checkGoldenLB(t, "random triangle 1 reloaded-lb", runs["random triangle 1 reloaded-lb"].stats, goldenLB{golden{41926, 2866, 1520, 227}, 2135, 10})

	// Example F.1: no outputs, so every settled unit is a gap load, and the
	// restart loop walked back down from the lifted universe after each one.
	f1 := workload.ExampleF1(8)
	s := runs[f1.Name].stats
	checkGolden(t, f1.Name, s, golden{3371, 384, 56, 0})
	if s.Rebuilds != 8 {
		t.Errorf("%s: %d rebuilds, want 8", f1.Name, s.Rebuilds)
	}

	// The steps every row takes: skeleton calls, and the lines among them.
	// Bisecting every frame made 4951 calls on the star and 7387 on Example
	// F.1, the restart loop 12557 and 18237.
	steps := map[string]struct{ calls, lines int64 }{
		"star 1":                         {3497, 127},
		"star 2":                         {3497, 127},
		"star preloaded-lb":              {6781, 189},
		"star reloaded-lb":               {28218, 1297},
		"random triangle 1":              {18828, 1595},
		"random triangle 1 preloaded-lb": {19591, 472},
		"random triangle 1 reloaded-lb":  {62236, 2450},
		"random triangle 2":              {18718, 1571},
		"random triangle 3":              {19381, 1620},
		f1.Name:                          {7056, 276},
	}
	for _, label := range labels {
		s, want := runs[label].stats, steps[label]
		if s.SkeletonCalls != want.calls || s.Lines != want.lines {
			t.Errorf("%s: %d skeleton calls over %d lines, want %d over %d",
				label, s.SkeletonCalls, s.Lines, want.calls, want.lines)
		}
	}
}
