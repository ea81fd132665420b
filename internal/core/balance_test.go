package core_test

import (
	"slices"
	"testing"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/workload"
)

// TestStealRebalancesSkew: on the Zipf families — work piled onto the
// heavy-value corner of the first SAO attribute — a 4-worker run of the
// work-stealing scheduler in lockstep (core.SimulateSteal) must enumerate
// the sequential order, and donation must cut the busiest worker's share
// of the resolutions against the same schedule with nobody donating. The
// schedule is simulated and the shares are counted in resolutions, not
// seconds, so they are exact and pinned: a change to the pass or the
// scheduler that moves them moves this test. The floor asks a 1.5×
// better share on at least 2 of the 3 families.
func TestStealRebalancesSkew(t *testing.T) {
	const workers = 4
	type pin struct {
		static   []int64 // per-worker resolutions, nobody donating
		stealing []int64 // per-worker resolutions with donation
		steals   int64
	}
	families := []struct {
		name string
		q    *join.Query
		want pin
	}{
		{"zipf-triangle", workload.ZipfTriangle(2000, 12, 1.1, 7),
			pin{[]int64{119159, 411, 565, 1734}, []int64{10176, 13012, 12454, 13108}, 138}},
		{"zipf-star", workload.ZipfStar(3, 250, 10, 1.2, 11),
			pin{[]int64{111901, 11, 13, 21}, []int64{27727, 31849, 25138, 26911}, 43}},
		{"zipf-fourcycle", workload.ZipfFourCycle(800, 11, 1.2, 19),
			pin{[]int64{100148, 2723, 2222, 1394}, []int64{24399, 29059, 25285, 27241}, 95}},
	}
	improved := 0
	for _, fam := range families {
		plan, err := join.NewPlan(fam.q, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := plan.Execute(join.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Mode: core.Reloaded, SAO: plan.SAO()}
		mk := func() core.Oracle { return plan.NewOracle() }
		var sims [2]core.StealSim
		for i, donate := range []bool{false, true} {
			if sims[i], err = core.SimulateSteal(mk, opts, workers, donate); err != nil {
				t.Fatalf("%s donate=%v: %v", fam.name, donate, err)
			}
			if d := baseline.FirstDivergence(sims[i].Tuples, seq.Tuples); d != nil {
				t.Fatalf("%s donate=%v: order diverged from sequential at #%d (%d vs %d tuples)",
					fam.name, donate, d.Index, len(sims[i].Tuples), len(seq.Tuples))
			}
		}
		static, stealing := sims[0], sims[1]
		ss, ds := static.Share(), stealing.Share()
		t.Logf("%s: static %v share %.2f, stealing %v share %.2f (%.2f×, %d steals)",
			fam.name, static.Resolutions, ss, stealing.Resolutions, ds, ss/ds, stealing.Steals)
		got := pin{static.Resolutions, stealing.Resolutions, stealing.Steals}
		if !slices.Equal(got.static, fam.want.static) || !slices.Equal(got.stealing, fam.want.stealing) ||
			got.steals != fam.want.steals {
			t.Errorf("%s: simulated run %+v, want %+v", fam.name, got, fam.want)
		}
		if static.Steals != 0 {
			t.Errorf("%s: %d donations with every session nil", fam.name, static.Steals)
		}
		if ss >= 1.5*ds {
			improved++
		}
	}
	if improved < 2 {
		t.Fatalf("stealing improved the balance share 1.5× on only %d/3 Zipf families", improved)
	}
}
