package baseline

import (
	"math/rand"
	"reflect"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/lb"
	"tetrisjoin/internal/relation"
)

// randRelation builds a random relation.
func randRelation(r *rand.Rand, name string, attrs []string, d uint8, n int) *relation.Relation {
	rel := relation.MustNewUniform(name, attrs, d)
	for i := 0; i < n; i++ {
		vals := make([]uint64, len(attrs))
		for j := range vals {
			vals[j] = uint64(r.Intn(1 << d))
		}
		rel.MustInsert(vals...)
	}
	return rel
}

// queriesUnderTest builds a family of structurally diverse small queries
// over random data.
func queriesUnderTest(r *rand.Rand, d uint8, n int) map[string]*join.Query {
	qs := map[string]*join.Query{}

	// Path: R(A,B) ⋈ S(B,C) ⋈ T(C,D)  — α-acyclic, treewidth 1.
	qs["path"] = join.MustNewQuery(
		join.Atom{Relation: randRelation(r, "R", []string{"X", "Y"}, d, n), Vars: []string{"A", "B"}},
		join.Atom{Relation: randRelation(r, "S", []string{"X", "Y"}, d, n), Vars: []string{"B", "C"}},
		join.Atom{Relation: randRelation(r, "T", []string{"X", "Y"}, d, n), Vars: []string{"C", "D"}},
	)
	// Triangle: cyclic, treewidth 2.
	qs["triangle"] = join.MustNewQuery(
		join.Atom{Relation: randRelation(r, "R", []string{"X", "Y"}, d, n), Vars: []string{"A", "B"}},
		join.Atom{Relation: randRelation(r, "S", []string{"X", "Y"}, d, n), Vars: []string{"B", "C"}},
		join.Atom{Relation: randRelation(r, "T", []string{"X", "Y"}, d, n), Vars: []string{"A", "C"}},
	)
	// Star: R(A,B) ⋈ S(A,C) ⋈ T(A,D) — α-acyclic.
	qs["star"] = join.MustNewQuery(
		join.Atom{Relation: randRelation(r, "R", []string{"X", "Y"}, d, n), Vars: []string{"A", "B"}},
		join.Atom{Relation: randRelation(r, "S", []string{"X", "Y"}, d, n), Vars: []string{"A", "C"}},
		join.Atom{Relation: randRelation(r, "T", []string{"X", "Y"}, d, n), Vars: []string{"A", "D"}},
	)
	// Bowtie with unary endpoints: R(A) ⋈ S(A,B) ⋈ T(B).
	qs["bowtie"] = join.MustNewQuery(
		join.Atom{Relation: randRelation(r, "R", []string{"X"}, d, n), Vars: []string{"A"}},
		join.Atom{Relation: randRelation(r, "S", []string{"X", "Y"}, d, n), Vars: []string{"A", "B"}},
		join.Atom{Relation: randRelation(r, "T", []string{"X"}, d, n), Vars: []string{"B"}},
	)
	// Ternary atom: R(A,B,C) ⋈ S(B,C,D) — α-acyclic.
	qs["ternary"] = join.MustNewQuery(
		join.Atom{Relation: randRelation(r, "R", []string{"X", "Y", "Z"}, d, n), Vars: []string{"A", "B", "C"}},
		join.Atom{Relation: randRelation(r, "S", []string{"X", "Y", "Z"}, d, n), Vars: []string{"B", "C", "D"}},
	)
	// Four-cycle: treewidth 2, cyclic.
	qs["fourcycle"] = join.MustNewQuery(
		join.Atom{Relation: randRelation(r, "R", []string{"X", "Y"}, d, n), Vars: []string{"A", "B"}},
		join.Atom{Relation: randRelation(r, "S", []string{"X", "Y"}, d, n), Vars: []string{"B", "C"}},
		join.Atom{Relation: randRelation(r, "T", []string{"X", "Y"}, d, n), Vars: []string{"C", "D"}},
		join.Atom{Relation: randRelation(r, "U", []string{"X", "Y"}, d, n), Vars: []string{"D", "A"}},
	)
	return qs
}

// equalTuples compares tuple lists treating nil and empty as equal.
func equalTuples(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestAllAlgorithmsAgree is the central cross-validation: on each query
// shape, nested loop, hash join, generic join, leapfrog, (yannakakis
// where applicable) and all four Tetris modes produce identical output.
func TestAllAlgorithmsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 6; trial++ {
		d := uint8(2)
		n := 3 + r.Intn(12)
		for name, q := range queriesUnderTest(r, d, n) {
			want, err := NestedLoop(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check := func(algo string, got [][]uint64, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("trial %d %s/%s: %v", trial, name, algo, err)
				}
				if !equalTuples(got, want) {
					t.Fatalf("trial %d %s/%s: got %d tuples, want %d\n got: %v\nwant: %v",
						trial, name, algo, len(got), len(want), got, want)
				}
			}
			hj, _, err := HashJoin(q)
			check("hashjoin", hj, err)
			gj, err := GenericJoin(q, nil)
			check("genericjoin", gj, err)
			lf, err := Leapfrog(q, nil)
			check("leapfrog", lf, err)
			// Randomized variable orders for the WCOJ algorithms.
			order := r.Perm(len(q.Vars()))
			gj, err = GenericJoin(q, order)
			check("genericjoin-perm", gj, err)
			lf, err = Leapfrog(q, order)
			check("leapfrog-perm", lf, err)
			if _, acyclic := q.Hypergraph().GYO(); acyclic {
				y, err := Yannakakis(q)
				check("yannakakis", y, err)
			}
			for _, mode := range []core.Mode{core.Reloaded, core.Preloaded, core.PreloadedLB, core.ReloadedLB} {
				opts := join.Options{Mode: mode}
				if !mode.Plain() {
					opts.Space = lb.New
				}
				res, err := join.Execute(q, opts)
				if err != nil {
					t.Fatalf("trial %d %s/%v: %v", trial, name, mode, err)
				}
				got := res.Tuples
				sortTuples(got)
				check(mode.String(), got, nil)
			}
		}
	}
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	q := queriesUnderTest(r, 2, 5)["triangle"]
	if _, err := Yannakakis(q); err == nil {
		t.Error("yannakakis accepted a cyclic query")
	}
}

func TestHashJoinPeakBlowupOnAGMInstance(t *testing.T) {
	// The classic AGM-hard triangle instance: R=S=T = {0}×[m] ∪ [m]×{0}.
	// Binary plans materialize Θ(m²) intermediates; the output is Θ(m).
	const m = 64
	mk := func(name string) *relation.Relation {
		rel := relation.MustNewUniform(name, []string{"X", "Y"}, 8)
		for i := uint64(0); i < m; i++ {
			rel.MustInsert(0, i)
			rel.MustInsert(i, 0)
		}
		return rel
	}
	q := join.MustNewQuery(
		join.Atom{Relation: mk("R"), Vars: []string{"A", "B"}},
		join.Atom{Relation: mk("S"), Vars: []string{"B", "C"}},
		join.Atom{Relation: mk("T"), Vars: []string{"A", "C"}},
	)
	out, peak, err := HashJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3*m-2 {
		t.Errorf("output size %d, want %d", len(out), 3*m-2)
	}
	if peak < m*m {
		t.Errorf("peak intermediate %d, expected at least %d", peak, m*m)
	}
	// Generic join and leapfrog produce the same output without the
	// blowup (their work is output-sensitive here, not checked directly).
	gj, err := GenericJoin(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gj, out) {
		t.Error("generic join disagrees on AGM instance")
	}
}

func TestGenericJoinOrderValidation(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	q := queriesUnderTest(r, 2, 4)["path"]
	if _, err := GenericJoin(q, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := Leapfrog(q, []int{0, 0, 1, 2}); err == nil {
		t.Error("non-permutation accepted")
	}
}

func TestNestedLoopSizeGuard(t *testing.T) {
	big := relation.MustNewUniform("R", []string{"X", "Y"}, 16)
	q := join.MustNewQuery(join.Atom{Relation: big, Vars: []string{"A", "B"}})
	if _, err := NestedLoop(q); err == nil {
		t.Error("nested loop accepted a huge domain")
	}
}

func TestSingleAtomQuery(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	rel := randRelation(r, "R", []string{"X", "Y"}, 3, 10)
	q := join.MustNewQuery(join.Atom{Relation: rel, Vars: []string{"A", "B"}})
	want := make([][]uint64, 0, rel.Len())
	for _, t0 := range rel.Tuples() {
		want = append(want, append([]uint64(nil), t0...))
	}
	sortTuples(want)
	got, _, err := HashJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTuples(got, want) {
		t.Error("hash join on single atom")
	}
	y, err := Yannakakis(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(y, want) {
		t.Error("yannakakis on single atom")
	}
	res, err := join.Execute(q, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotT := res.Tuples
	sortTuples(gotT)
	if !reflect.DeepEqual(gotT, want) {
		t.Error("tetris on single atom")
	}
}

func TestDisconnectedQueryCrossProduct(t *testing.T) {
	// R(A) ⋈ S(B): a cross product; checks disconnected handling in
	// every algorithm.
	ra := relation.MustNewUniform("R", []string{"X"}, 2)
	ra.MustInsert(1)
	ra.MustInsert(2)
	sb := relation.MustNewUniform("S", []string{"X"}, 2)
	sb.MustInsert(0)
	sb.MustInsert(3)
	q := join.MustNewQuery(
		join.Atom{Relation: ra, Vars: []string{"A"}},
		join.Atom{Relation: sb, Vars: []string{"B"}},
	)
	want := [][]uint64{{1, 0}, {1, 3}, {2, 0}, {2, 3}}
	nl, err := NestedLoop(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nl, want) {
		t.Fatalf("nested loop: %v", nl)
	}
	for algo, f := range map[string]func() ([][]uint64, error){
		"hash":       func() ([][]uint64, error) { o, _, e := HashJoin(q); return o, e },
		"generic":    func() ([][]uint64, error) { return GenericJoin(q, nil) },
		"leapfrog":   func() ([][]uint64, error) { return Leapfrog(q, nil) },
		"yannakakis": func() ([][]uint64, error) { return Yannakakis(q) },
		"tetris": func() ([][]uint64, error) {
			res, e := join.Execute(q, join.Options{})
			if e != nil {
				return nil, e
			}
			sortTuples(res.Tuples)
			return res.Tuples, nil
		},
	} {
		got, err := f()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !equalTuples(got, want) {
			t.Errorf("%s: %v, want %v", algo, got, want)
		}
	}
}

func TestEmptyRelationShortCircuits(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	rel := randRelation(r, "R", []string{"X", "Y"}, 2, 6)
	empty := relation.MustNewUniform("E", []string{"X", "Y"}, 2)
	q := join.MustNewQuery(
		join.Atom{Relation: rel, Vars: []string{"A", "B"}},
		join.Atom{Relation: empty, Vars: []string{"B", "C"}},
	)
	for algo, f := range map[string]func() ([][]uint64, error){
		"hash":       func() ([][]uint64, error) { o, _, e := HashJoin(q); return o, e },
		"generic":    func() ([][]uint64, error) { return GenericJoin(q, nil) },
		"leapfrog":   func() ([][]uint64, error) { return Leapfrog(q, nil) },
		"yannakakis": func() ([][]uint64, error) { return Yannakakis(q) },
	} {
		got, err := f()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(got) != 0 {
			t.Errorf("%s: expected empty output, got %v", algo, got)
		}
	}
}
