package planner_test

import (
	"fmt"
	"reflect"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/planner"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/workload"
)

func atomsOf(q *join.Query) (int, []planner.Atom) {
	var atoms []planner.Atom
	for _, a := range q.Atoms() {
		vars := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			vars[i] = q.VarIndex(v)
		}
		atoms = append(atoms, planner.Atom{Rel: a.Relation, Vars: vars})
	}
	return len(q.Vars()), atoms
}

func stats(t *testing.T, q *join.Query, opts join.Options) core.Stats {
	t.Helper()
	opts.Mode = core.Reloaded
	opts.Parallelism = 1
	res, err := join.Execute(q, opts)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res.Stats
}

func permutations(vars []string) [][]string {
	if len(vars) <= 1 {
		return [][]string{append([]string(nil), vars...)}
	}
	var out [][]string
	for i, v := range vars {
		rest := make([]string, 0, len(vars)-1)
		rest = append(rest, vars[:i]...)
		rest = append(rest, vars[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{v}, p...))
		}
	}
	return out
}

// TestPlannerBeatsNaturalOnSkew is the acceptance gate of the planner:
// on the skewed workload families (the skew regime of "Skew Strikes Back",
// Ngo, Ré, Rudra) the planned SAO must beat the natural order by at least
// 2× in resolutions and stay within 10% of the best fixed order (checked
// exhaustively over all permutations). Both runs' resolutions and skeleton
// calls are deterministic for a fixed plan, so they are pinned exactly: a
// planner that picks a worse order, or an engine that takes more steps
// per resolution, moves a pin.
func TestPlannerBeatsNaturalOnSkew(t *testing.T) {
	type work struct{ resolutions, calls int64 }
	families := []struct {
		name             string
		q                *join.Query
		planned, natural work
	}{
		{"SkewedTriangle", workload.SkewedTriangle(64, 7), work{21, 142}, work{261, 880}},
		{"SkewedFourCycle", workload.SkewedFourCycle(64, 7), work{7, 156}, work{34710, 50214}},
		{"HeavyValueMismatch", workload.HeavyValueMismatch(64, 7), work{7, 100}, work{512, 1131}},
		{"GAOSensitive", workload.GAOSensitive(64, 7), work{7, 44}, work{512, 648}},
		{"PinnedChain", workload.PinnedChain(512, 26), work{52, 1484}, work{13866, 55890}},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			ps := stats(t, f.q, join.Options{Strategy: join.SAOPlanned})
			ns := stats(t, f.q, join.Options{Strategy: join.SAONatural})
			if got := (work{ps.Resolutions, ps.SkeletonCalls}); got != f.planned {
				t.Errorf("planned SAO: resolutions/skeleton calls = %+v, want %+v", got, f.planned)
			}
			if got := (work{ns.Resolutions, ns.SkeletonCalls}); got != f.natural {
				t.Errorf("natural SAO: resolutions/skeleton calls = %+v, want %+v", got, f.natural)
			}
			planned, natural := ps.Resolutions, ns.Resolutions
			if planned*2 > natural {
				t.Errorf("planned SAO took %d resolutions, natural %d: want >= 2x improvement", planned, natural)
			}
			best := natural
			var bestOrder []string
			for _, p := range permutations(f.q.Vars()) {
				if r := stats(t, f.q, join.Options{SAOVars: p}).Resolutions; r < best {
					best, bestOrder = r, p
				}
			}
			if float64(planned) > 1.1*float64(best) {
				t.Errorf("planned SAO took %d resolutions, best fixed order %v takes %d: want within 10%%",
					planned, bestOrder, best)
			}
		})
	}
}

// TestPlannerKeepsClassicalOrderOnSymmetricInstances pins the planner's
// stability guarantee: on the classic (symmetric or already-optimal)
// families its choice is byte-identical to the engine's classical
// elimination-based order, so enabling planning cannot perturb the
// paper-reproduction numbers.
func TestPlannerKeepsClassicalOrderOnSymmetricInstances(t *testing.T) {
	families := []struct {
		name string
		q    *join.Query
	}{
		{"TriangleAGMStar", workload.TriangleAGMStar(64, 7)},
		{"TriangleDense", workload.TriangleDense(8, 4)},
		{"TriangleMSB", workload.TriangleMSB(5)},
		{"FourCycleBlocks", workload.FourCycleBlocks(6)},
		{"Clique4", workload.CliqueQuery(4, 24, 0.4, 5, 7)},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			auto, err := join.Decide(f.q, join.Options{Strategy: join.SAOAuto})
			if err != nil {
				t.Fatal(err)
			}
			// The classical order: reverse of GYO/elimination, which the
			// planner keeps as its "elimination" candidate and prefers on
			// ties.
			h := f.q.Hypergraph()
			var elim []int
			if order, acyclic := h.GYO(); acyclic {
				elim = order
			} else {
				elim, _ = h.EliminationOrder()
			}
			n := len(f.q.Vars())
			want := make([]string, n)
			for i, v := range elim {
				want[n-1-i] = f.q.Vars()[v]
			}
			if fmt.Sprint(auto.SAOVars) != fmt.Sprint(want) {
				t.Errorf("SAOAuto chose %v, classical order is %v", auto.SAOVars, want)
			}
		})
	}
}

// TestChooseDeterministic pins that equal inputs give equal decisions:
// the same order, index families, estimate and scored candidates, in the
// same order.
func TestChooseDeterministic(t *testing.T) {
	q := workload.SkewedTriangle(32, 6)
	nvars, atoms := atomsOf(q)
	d1, err := planner.Choose(nvars, atoms)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := planner.Choose(nvars, atoms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("nondeterministic decision:\n%+v\n%+v", d1, d2)
	}
	if len(d1.Candidates) == 0 || d1.Candidates[0].Rejection != "" {
		t.Fatalf("winner must be first with no rejection: %+v", d1.Candidates)
	}
	for _, c := range d1.Candidates[1:] {
		if c.Rejection == "" {
			t.Errorf("losing candidate %v has no rejection reason", c.SAO)
		}
	}
}

// TestFamilySelection pins the index-family choice: clustered
// multidimensional relations (diagonals) get the dyadic family, spread
// relations the SAO-consistent B-tree, and arity ≥ 3 clusters the k-d
// tree.
func TestFamilySelection(t *testing.T) {
	diag := relation.MustNewUniform("D", []string{"X", "Y"}, 6)
	spread := relation.MustNewUniform("G", []string{"X", "Y"}, 6)
	for v := uint64(0); v < 64; v++ {
		diag.MustInsert(v, v)
	}
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			spread.MustInsert(a*8, b*8)
		}
	}
	diag3 := relation.MustNewUniform("E", []string{"X", "Y", "Z"}, 6)
	for v := uint64(0); v < 64; v++ {
		diag3.MustInsert(v, v, v)
	}
	d, err := planner.Choose(3, []planner.Atom{
		{Rel: diag, Vars: []int{0, 1}},
		{Rel: spread, Vars: []int{1, 2}},
		{Rel: diag3, Vars: []int{0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []index.Family{index.DyadicFamily, index.BTreeFamily, index.KDTreeFamily}
	for i, f := range want {
		if d.Families[i] != f {
			t.Errorf("atom %d family = %v, want %v", i, d.Families[i], f)
		}
	}
}
