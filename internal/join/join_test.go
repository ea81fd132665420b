package join

import (
	"reflect"
	"sort"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/lb"
	"tetrisjoin/internal/relation"
)

func triangleRelations(d uint8) (*relation.Relation, *relation.Relation, *relation.Relation) {
	// The Figure 5 instance: tuples whose MSBs differ.
	half := uint64(1) << (d - 1)
	mk := func(name string, attrs []string) *relation.Relation {
		r := relation.MustNewUniform(name, attrs, d)
		for a := uint64(0); a < half; a++ {
			for b := uint64(0); b < half; b++ {
				r.MustInsert(a, half+b)
				r.MustInsert(half+a, b)
			}
		}
		return r
	}
	return mk("R", []string{"A", "B"}), mk("S", []string{"B", "C"}), mk("T", []string{"A", "C"})
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

func TestNewQueryValidation(t *testing.T) {
	r := relation.MustNewUniform("R", []string{"X", "Y"}, 3)
	s := relation.MustNewUniform("S", []string{"X"}, 4)
	cases := []struct {
		name  string
		atoms []Atom
	}{
		{"no-atoms", nil},
		{"nil-relation", []Atom{{Vars: []string{"A", "B"}}}},
		{"arity", []Atom{{Relation: r, Vars: []string{"A"}}}},
		{"dup-var", []Atom{{Relation: r, Vars: []string{"A", "A"}}}},
		{"empty-var", []Atom{{Relation: r, Vars: []string{"A", ""}}}},
		{"depth-conflict", []Atom{
			{Relation: r, Vars: []string{"A", "B"}},
			{Relation: s, Vars: []string{"A"}},
		}},
		{"foreign-index", []Atom{{
			Relation: r, Vars: []string{"A", "B"},
			Indexes: []index.Index{index.MustSorted(relation.MustNewUniform("Z", []string{"X", "Y"}, 3))},
		}}},
	}
	for _, c := range cases {
		if _, err := NewQuery(c.atoms...); err == nil {
			t.Errorf("%s: invalid query accepted", c.name)
		}
	}
}

func TestQueryAccessors(t *testing.T) {
	r := relation.MustNewUniform("R", []string{"X", "Y"}, 3)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, 3)
	q := MustNewQuery(
		Atom{Relation: r, Vars: []string{"A", "B"}},
		Atom{Relation: s, Vars: []string{"B", "C"}},
	)
	if !reflect.DeepEqual(q.Vars(), []string{"A", "B", "C"}) {
		t.Errorf("Vars = %v", q.Vars())
	}
	if q.VarIndex("C") != 2 || q.VarIndex("Z") != -1 {
		t.Error("VarIndex")
	}
	if q.String() != "R(A,B) ⋈ S(B,C)" {
		t.Errorf("String = %s", q.String())
	}
	h := q.Hypergraph()
	if h.N() != 3 || len(h.Edges()) != 2 {
		t.Error("Hypergraph shape")
	}
}

func TestParse(t *testing.T) {
	r := relation.MustNewUniform("R", []string{"X", "Y"}, 3)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, 3)
	cat := map[string]*relation.Relation{"R": r, "S": s}
	q, err := Parse("R(A,B), S(B,C)", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "R(A,B) ⋈ S(B,C)" {
		t.Errorf("parsed: %s", q.String())
	}
	// Self-join.
	q, err = Parse("R(A,B), R(B,A)", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms()) != 2 {
		t.Error("self-join atom count")
	}
	for _, bad := range []string{"R", "R(A,B", "Q(A,B)", "R(,B)"} {
		if _, err := Parse(bad, cat); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestChooseSAO(t *testing.T) {
	r := relation.MustNewUniform("R", []string{"X", "Y"}, 3)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, 3)
	q := MustNewQuery(
		Atom{Relation: r, Vars: []string{"A", "B"}},
		Atom{Relation: s, Vars: []string{"B", "C"}},
	)
	// Explicit.
	sao, err := ChooseSAO(q, Options{SAOVars: []string{"C", "A", "B"}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sao, []int{2, 0, 1}) {
		t.Errorf("explicit SAO = %v", sao)
	}
	// Invalid explicit.
	for _, bad := range [][]string{{"A"}, {"A", "B", "Z"}, {"A", "A", "B"}} {
		if _, err := ChooseSAO(q, Options{SAOVars: bad}); err == nil {
			t.Errorf("SAO %v accepted", bad)
		}
	}
	// Natural.
	sao, err = ChooseSAO(q, Options{Strategy: SAONatural})
	if err != nil || !reflect.DeepEqual(sao, []int{0, 1, 2}) {
		t.Errorf("natural SAO = %v, %v", sao, err)
	}
	// Auto on acyclic query: a permutation.
	sao, err = ChooseSAO(q, Options{})
	if err != nil || len(sao) != 3 {
		t.Fatalf("auto SAO = %v, %v", sao, err)
	}
}

func TestExecuteTriangleEmptyAndCounts(t *testing.T) {
	r, s, tt := triangleRelations(3)
	q := MustNewQuery(
		Atom{Relation: r, Vars: []string{"A", "B"}},
		Atom{Relation: s, Vars: []string{"B", "C"}},
		Atom{Relation: tt, Vars: []string{"A", "C"}},
	)
	for _, mode := range []core.Mode{core.Reloaded, core.Preloaded, core.PreloadedLB, core.ReloadedLB} {
		opts := Options{Mode: mode}
		if !mode.Plain() {
			opts.Space = lb.New
		}
		res, err := Execute(q, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Tuples) != 0 {
			t.Errorf("%v: triangle output should be empty, got %d tuples", mode, len(res.Tuples))
		}
	}
}

func TestExecuteTriangleNonEmpty(t *testing.T) {
	// Replace T by T' containing matching-MSB pairs (Figure 6).
	const d = 2
	r, s, _ := triangleRelations(d)
	half := uint64(1) << (d - 1)
	tp := relation.MustNewUniform("T", []string{"A", "C"}, d)
	for a := uint64(0); a < half; a++ {
		for c := uint64(0); c < half; c++ {
			tp.MustInsert(a, c)
			tp.MustInsert(half+a, half+c)
		}
	}
	q := MustNewQuery(
		Atom{Relation: r, Vars: []string{"A", "B"}},
		Atom{Relation: s, Vars: []string{"B", "C"}},
		Atom{Relation: tp, Vars: []string{"A", "C"}},
	)
	var want [][]uint64
	for a := uint64(0); a < 1<<d; a++ {
		for b := uint64(0); b < 1<<d; b++ {
			for c := uint64(0); c < 1<<d; c++ {
				if r.Contains(a, b) && s.Contains(b, c) && tp.Contains(a, c) {
					want = append(want, []uint64{a, b, c})
				}
			}
		}
	}
	sortTuples(want)
	if len(want) == 0 {
		t.Fatal("fixture produced empty output")
	}
	for _, mode := range []core.Mode{core.Reloaded, core.Preloaded, core.PreloadedLB, core.ReloadedLB} {
		opts := Options{Mode: mode}
		if !mode.Plain() {
			opts.Space = lb.New
		}
		res, err := Execute(q, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got := res.Tuples
		sortTuples(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: got %d tuples, want %d", mode, len(got), len(want))
		}
	}
}

func TestExecuteWithExplicitIndices(t *testing.T) {
	// The bowtie query with a dyadic index: same answer as default.
	r := relation.MustNewUniform("R", []string{"X"}, 3)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, 3)
	tt := relation.MustNewUniform("T", []string{"Y"}, 3)
	for v := uint64(0); v < 4; v++ {
		r.MustInsert(v)
		tt.MustInsert(v + 2)
	}
	for a := uint64(0); a < 8; a += 2 {
		for b := uint64(0); b < 8; b += 3 {
			s.MustInsert(a, b)
		}
	}
	build := func(useDyadic bool) *Query {
		var sIdx []index.Index
		if useDyadic {
			sIdx = []index.Index{index.NewDyadic(s), index.MustSorted(s, "Y", "X")}
		}
		return MustNewQuery(
			Atom{Relation: r, Vars: []string{"A"}},
			Atom{Relation: s, Vars: []string{"A", "B"}, Indexes: sIdx},
			Atom{Relation: tt, Vars: []string{"B"}},
		)
	}
	resDefault, err := Execute(build(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	resDyadic, err := Execute(build(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := resDefault.Tuples, resDyadic.Tuples
	sortTuples(a)
	sortTuples(b)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("index choice changed the answer: %v vs %v", a, b)
	}
}

func TestExecuteStreamsAndStats(t *testing.T) {
	r, s, tt := triangleRelations(2)
	q := MustNewQuery(
		Atom{Relation: r, Vars: []string{"A", "B"}},
		Atom{Relation: s, Vars: []string{"B", "C"}},
		Atom{Relation: tt, Vars: []string{"A", "C"}},
	)
	res, err := Execute(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Resolutions == 0 {
		t.Error("no resolutions recorded")
	}
	if len(res.SAO) != 3 {
		t.Errorf("SAO = %v", res.SAO)
	}
}

func TestOracleContract(t *testing.T) {
	// The query oracle must return gaps exactly for non-output points.
	r := relation.MustNewUniform("R", []string{"X", "Y"}, 2)
	r.MustInsert(1, 2)
	r.MustInsert(3, 0)
	s := relation.MustNewUniform("S", []string{"Y"}, 2)
	s.MustInsert(2)
	q := MustNewQuery(
		Atom{Relation: r, Vars: []string{"A", "B"}},
		Atom{Relation: s, Vars: []string{"B"}},
	)
	p, err := NewPlan(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := p.NewOracle()
	if o.Dims() != 2 {
		t.Fatalf("Dims = %d", o.Dims())
	}
	for a := uint64(0); a < 4; a++ {
		for b := uint64(0); b < 4; b++ {
			isOut := r.Contains(a, b) && s.Contains(b)
			gaps := o.GapsContaining([]uint64{a, b})
			if isOut && len(gaps) != 0 {
				t.Errorf("output point (%d,%d) got gaps %v", a, b, gaps)
			}
			if !isOut && len(gaps) == 0 {
				t.Errorf("non-output point (%d,%d) got no gaps", a, b)
			}
			for _, g := range gaps {
				if !g.ContainsPoint([]uint64{a, b}, o.Depths()) {
					t.Errorf("gap %v does not contain (%d,%d)", g, a, b)
				}
			}
		}
	}
	if len(o.AllGaps()) == 0 {
		t.Error("AllGaps empty")
	}
}
