package boxtree

import (
	"math/rand"
	"sort"
	"testing"

	"tetrisjoin/internal/dyadic"
)

func mustBox(s string) dyadic.Box { return dyadic.MustParseBox(s) }

func TestInsertAndContains(t *testing.T) {
	tr := New(2)
	boxes := []string{"λ,0", "00,λ", "λ,11", "10,1", "01,10"}
	for _, s := range boxes {
		if !tr.Insert(mustBox(s)) {
			t.Errorf("Insert(%s) reported duplicate", s)
		}
	}
	if tr.Len() != len(boxes) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(boxes))
	}
	if tr.Insert(mustBox("λ,0")) {
		t.Error("duplicate insert succeeded")
	}
	if tr.Len() != len(boxes) {
		t.Errorf("Len changed on duplicate insert")
	}
	for _, s := range boxes {
		if !tr.Contains(mustBox(s)) {
			t.Errorf("Contains(%s) = false", s)
		}
	}
	if tr.Contains(mustBox("λ,λ")) {
		t.Error("Contains reported absent box")
	}
}

func TestSupersetQueries(t *testing.T) {
	tr := New(2)
	for _, s := range []string{"λ,0", "00,λ", "λ,11", "10,1"} {
		tr.Insert(mustBox(s))
	}
	cases := []struct {
		q    string
		want []string // all supersets
	}{
		{"00,01", []string{"λ,0", "00,λ"}},
		{"01,10", nil},
		{"10,11", []string{"λ,11", "10,1"}},
		{"λ,λ", nil},
		{"λ,0", []string{"λ,0"}},
		{"00,00", []string{"λ,0", "00,λ"}},
		{"11,110", []string{"λ,11"}},
	}
	for _, c := range cases {
		got := tr.Supersets(mustBox(c.q))
		var gotS []string
		for _, b := range got {
			gotS = append(gotS, b.String())
		}
		var wantS []string
		for _, s := range c.want {
			wantS = append(wantS, mustBox(s).String())
		}
		sort.Strings(gotS)
		sort.Strings(wantS)
		if len(gotS) != len(wantS) {
			t.Errorf("Supersets(%s) = %v, want %v", c.q, gotS, wantS)
			continue
		}
		for i := range gotS {
			if gotS[i] != wantS[i] {
				t.Errorf("Supersets(%s) = %v, want %v", c.q, gotS, wantS)
				break
			}
		}
		_, ok := tr.ContainsSuperset(mustBox(c.q))
		if ok != (len(c.want) > 0) {
			t.Errorf("ContainsSuperset(%s) = %v, want %v", c.q, ok, len(c.want) > 0)
		}
	}
}

func TestContainedInAndDelete(t *testing.T) {
	tr := New(2)
	all := []string{"λ,0", "00,λ", "00,01", "01,10", "0,1", "1,λ"}
	for _, s := range all {
		tr.Insert(mustBox(s))
	}
	removed := tr.DeleteContainedIn(mustBox("0,λ"))
	if removed != 4 {
		t.Errorf("DeleteContainedIn removed %d, want 4", removed)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d after delete, want 2", tr.Len())
	}
	if tr.Contains(mustBox("00,λ")) {
		t.Error("deleted box still present")
	}
	if !tr.Contains(mustBox("λ,0")) || !tr.Contains(mustBox("1,λ")) {
		t.Error("unrelated boxes were deleted")
	}
	// Supersets still work after pruning.
	if _, ok := tr.ContainsSuperset(mustBox("11,00")); !ok {
		t.Error("ContainsSuperset broken after delete")
	}
}

func TestInsertSubsuming(t *testing.T) {
	tr := New(2)
	tr.Insert(mustBox("00,01"))
	tr.Insert(mustBox("01,1"))
	tr.Insert(mustBox("1,λ"))
	// Covered by an existing box: not inserted.
	if tr.InsertSubsuming(mustBox("10,0")) {
		t.Error("InsertSubsuming inserted a covered box")
	}
	// Covers two existing boxes: they are replaced.
	if !tr.InsertSubsuming(mustBox("0,λ")) {
		t.Error("InsertSubsuming refused a new box")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	if tr.Contains(mustBox("00,01")) || tr.Contains(mustBox("01,1")) {
		t.Error("subsumed boxes not removed")
	}
}

func TestAll(t *testing.T) {
	tr := New(3)
	in := []string{"λ,λ,λ", "0,1,λ", "01,10,11"}
	for _, s := range in {
		tr.Insert(mustBox(s))
	}
	got := tr.All()
	if len(got) != len(in) {
		t.Fatalf("All returned %d boxes, want %d", len(got), len(in))
	}
	seen := map[string]bool{}
	for _, b := range got {
		seen[b.String()] = true
	}
	for _, s := range in {
		if !seen[mustBox(s).String()] {
			t.Errorf("All missing %s", s)
		}
	}
}

func randInterval(r *rand.Rand, d uint8) dyadic.Interval {
	l := uint8(r.Intn(int(d) + 1))
	var b uint64
	if l > 0 {
		b = r.Uint64() & (1<<l - 1)
	}
	return dyadic.Interval{Bits: b, Len: l}
}

func randBox(r *rand.Rand, n int, d uint8) dyadic.Box {
	b := make(dyadic.Box, n)
	for i := range b {
		b[i] = randInterval(r, d)
	}
	return b
}

// TestRandomAgainstBruteForce cross-checks every tree operation against a
// plain slice implementation under a random workload.
func TestRandomAgainstBruteForce(t *testing.T) {
	// What the tree answers does not depend on its level order.
	for _, order := range [][]int{nil, {2, 0, 1}, {1, 2, 0}} {
		randomAgainstBruteForce(t, order)
	}
}

func randomAgainstBruteForce(t *testing.T, order []int) {
	const n, d = 3, 4
	r := rand.New(rand.NewSource(42))
	tr := New(n)
	tr.SetOrder(order)
	var ref []dyadic.Box

	refContains := func(b dyadic.Box) bool {
		for _, x := range ref {
			if x.Equal(b) {
				return true
			}
		}
		return false
	}
	for step := 0; step < 3000; step++ {
		b := randBox(r, n, d)
		switch r.Intn(8) {
		case 0, 1, 2, 3: // insert
			inserted := tr.Insert(b)
			if inserted == refContains(b) {
				t.Fatalf("step %d: Insert(%s) = %v inconsistent with reference", step, b, inserted)
			}
			if inserted {
				ref = append(ref, b)
			}
		case 4, 5: // superset queries
			var want []string
			for _, x := range ref {
				if x.Contains(b) {
					want = append(want, x.String())
				}
			}
			var got []string
			for _, x := range tr.Supersets(b) {
				got = append(got, x.String())
			}
			sort.Strings(want)
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("step %d: Supersets(%s) = %v, want %v", step, b, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: Supersets(%s) = %v, want %v", step, b, got, want)
				}
			}
			if _, ok := tr.ContainsSuperset(b); ok != (len(want) > 0) {
				t.Fatalf("step %d: ContainsSuperset mismatch", step)
			}
		case 6: // intersection probe
			want := false
			for _, x := range ref {
				if x.Intersects(b) {
					want = true
					break
				}
			}
			if got := tr.IntersectsAny(b); got != want {
				t.Fatalf("step %d: IntersectsAny(%s) = %v, want %v", step, b, got, want)
			}
		case 7: // delete contained
			removed := tr.DeleteContainedIn(b)
			var kept []dyadic.Box
			wantRemoved := 0
			for _, x := range ref {
				if b.Contains(x) {
					wantRemoved++
				} else {
					kept = append(kept, x)
				}
			}
			if removed != wantRemoved {
				t.Fatalf("step %d: DeleteContainedIn removed %d, want %d", step, removed, wantRemoved)
			}
			ref = kept
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(ref))
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	tr := New(2)
	for name, f := range map[string]func(){
		"Insert":            func() { tr.Insert(mustBox("λ,λ,λ")) },
		"ContainsSuperset":  func() { tr.ContainsSuperset(mustBox("λ")) },
		"Supersets":         func() { tr.Supersets(mustBox("λ")) },
		"DeleteContainedIn": func() { tr.DeleteContainedIn(mustBox("λ")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with wrong dimension did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkInsert(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	boxes := make([]dyadic.Box, 4096)
	for i := range boxes {
		boxes[i] = randBox(r, 3, 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tr := New(3)
	for i := 0; i < b.N; i++ {
		tr.Insert(boxes[i%len(boxes)])
	}
}

// BenchmarkInsertFresh measures steady-state insertion into a warmed-up
// arena: the tree is Reset once its slabs have grown, so every insert is
// genuinely stored (no duplicate short-circuit) yet allocation-free.
func BenchmarkInsertFresh(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	boxes := make([]dyadic.Box, 4096)
	for i := range boxes {
		boxes[i] = randBox(r, 3, 16)
	}
	tr := New(3)
	for _, bx := range boxes {
		tr.Insert(bx) // warm the slabs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(boxes) == 0 {
			tr.Reset()
		}
		tr.Insert(boxes[i%len(boxes)])
	}
}

func BenchmarkContainsSuperset(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	tr := New(3)
	for i := 0; i < 10000; i++ {
		tr.Insert(randBox(r, 3, 16))
	}
	queries := make([]dyadic.Box, 1024)
	for i := range queries {
		queries[i] = randBox(r, 3, 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ContainsSuperset(queries[i%len(queries)])
	}
}

// BenchmarkFrontierProbe is BenchmarkContainsSuperset's probe as a child
// frame asks it: its parent's nodes at the split level, stepped by one bit,
// then probed below. The level cycles through the three.
func BenchmarkFrontierProbe(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	tr := New(3)
	for i := 0; i < 10000; i++ {
		tr.Insert(randBox(r, 3, 16))
	}
	type frame struct {
		box    dyadic.Box
		level  int
		bit    uint64
		parent []uint32 // the nodes spelling the parent's component
	}
	frames := make([]frame, 0, 1024)
	for len(frames) < cap(frames) {
		q, level := randBox(r, 3, 16), len(frames)%3
		if q[level].Len == 0 {
			continue
		}
		roots := tr.RootsAt(nil, []uint32{tr.Root()}, 0, q, level)
		frames = append(frames, frame{q, level, q[level].Bits & 1, tr.Spell(nil, roots, q[level].Parent())})
	}
	nodes := make([]uint32, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &frames[i%len(frames)]
		nodes = tr.Step(nodes[:0], f.parent, f.bit)
		tr.SupersetBelow(nodes, f.level, f.box)
	}
}

func BenchmarkIntersectsAny(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	tr := New(3)
	for i := 0; i < 10000; i++ {
		tr.Insert(randBox(r, 3, 16))
	}
	queries := make([]dyadic.Box, 1024)
	for i := range queries {
		queries[i] = randBox(r, 3, 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.IntersectsAny(queries[i%len(queries)])
	}
}

// BenchmarkInsertSubsuming exercises the full knowledge-base insert path:
// superset probe, budgeted subsume-delete, insert.
func BenchmarkInsertSubsuming(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	boxes := make([]dyadic.Box, 4096)
	for i := range boxes {
		boxes[i] = randBox(r, 3, 12)
	}
	tr := New(3)
	for _, bx := range boxes {
		tr.InsertSubsuming(bx) // warm the slabs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(boxes) == 0 {
			tr.Reset()
		}
		tr.InsertSubsuming(boxes[i%len(boxes)])
	}
}
