package boxtree

import (
	"math/rand"
	"reflect"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// composedInsertSubsuming is InsertSubsuming spelled out as the three
// public operations it fuses.
func composedInsertSubsuming(t *Tree, b dyadic.Box) bool {
	if _, ok := t.ContainsSuperset(b); ok {
		return false
	}
	t.DeleteContainedInBudget(b, subsumeBudget)
	return t.Insert(b)
}

// TestInsertSubsumingMatchesComposition drives the fused insert and the
// literal probe → budgeted sweep → insert composition over the same
// seeded sequences and requires the two trees to stay indistinguishable
// after every step: same return value and Len, and the same node slab,
// free-list and payload slab — so the same boxes were swept in the same
// order, the same slots were recycled, and the level summaries agree.
// InsertUncovered stands in for InsertSubsuming whenever the box is in
// fact uncovered.
func TestInsertSubsumingMatchesComposition(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		d := uint8(2 + r.Intn(5))
		fused, composed := New(n), New(n)
		if seed%2 == 0 { // half the sequences under a random level order
			order := r.Perm(n)
			fused.SetOrder(order)
			composed.SetOrder(order)
		}
		for step := 0; step < 2500; step++ {
			b := randBox(r, n, d)
			switch r.Intn(20) {
			case 0: // an unbudgeted sweep empties whole regions
				fused.DeleteContainedIn(b)
				composed.DeleteContainedIn(b)
			case 1:
				if r.Intn(8) == 0 {
					fused.Reset()
					composed.Reset()
				}
			default:
				_, covered := composed.ContainsSuperset(b)
				want := composedInsertSubsuming(composed, b)
				if !covered && r.Intn(2) == 0 {
					fused.InsertUncovered(b)
				} else if got := fused.InsertSubsuming(b); got != want {
					t.Fatalf("seed %d step %d: InsertSubsuming(%v) = %v, composition %v", seed, step, b, got, want)
				}
			}
			if fused.Len() != composed.Len() {
				t.Fatalf("seed %d step %d: Len %d, composition %d", seed, step, fused.Len(), composed.Len())
			}
			if fused.free != composed.free || !reflect.DeepEqual(fused.nodes, composed.nodes) {
				t.Fatalf("seed %d step %d: node slabs diverged after %v", seed, step, b)
			}
			if !reflect.DeepEqual(fused.ivs, composed.ivs) {
				t.Fatalf("seed %d step %d: payload slabs diverged after %v", seed, step, b)
			}
			checkSummaries(t, fused, rootNode, 0)
		}
	}
}

// checkSummaries verifies, for the level root r and every level root
// below it, that [lo, hi] bounds the lengths of the components stored in
// its trie.
func checkSummaries(t *testing.T, tr *Tree, r uint32, level int) {
	t.Helper()
	root := tr.nodes[r]
	var walk func(ni uint32, depth int)
	walk = func(ni uint32, depth int) {
		nd := tr.nodes[ni]
		if ni == nilNode || nd.count == 0 {
			return
		}
		if nd.link != 0 {
			if depth < int(root.lo) || depth > int(root.hi) {
				t.Fatalf("level %d root %d: component of length %d stored outside summary [%d,%d]",
					level, r, depth, root.lo, root.hi)
			}
			if level < tr.n-1 {
				checkSummaries(t, tr, nd.link, level+1)
			}
		}
		walk(nd.children[0], depth+1)
		walk(nd.children[1], depth+1)
	}
	walk(r, 0)
}

// TestContainsSupersetExactAt checks the restricted probe against its
// definition, and that it agrees with the full probe whenever the box's
// parent along the dimension is uncovered — the only situation the
// skeleton uses it in.
func TestContainsSupersetExactAt(t *testing.T) {
	for _, order := range [][]int{nil, {1, 2, 0}} { // dim names a dimension under any level order
		containsSupersetExactAt(t, order)
	}
}

func containsSupersetExactAt(t *testing.T, order []int) {
	const n, d = 3, 4
	r := rand.New(rand.NewSource(11))
	tr := New(n)
	tr.SetOrder(order)
	for step := 0; step < 4000; step++ {
		b := randBox(r, n, d)
		if r.Intn(3) == 0 {
			tr.InsertSubsuming(b)
			continue
		}
		if r.Intn(40) == 0 {
			tr.DeleteContainedIn(b)
			continue
		}
		dim := r.Intn(n)
		want := false
		for _, a := range tr.All() {
			if a.Contains(b) && a[dim] == b[dim] {
				want = true
				break
			}
		}
		got, ok := tr.ContainsSupersetExactAt(b, dim)
		if ok != want || (ok && (!got.Contains(b) || got[dim] != b[dim])) {
			t.Fatalf("step %d: ContainsSupersetExactAt(%v, %d) = %v, %v; want found=%v", step, b, dim, got, ok, want)
		}
		if b[dim].Len == 0 {
			continue
		}
		parent := b.Clone()
		parent[dim] = b[dim].Parent()
		if _, covered := tr.ContainsSuperset(parent); !covered {
			full, fullOK := tr.ContainsSuperset(b)
			if fullOK != ok || (ok && !full.Equal(got)) {
				t.Fatalf("step %d: parent %v uncovered, yet exact probe of %v gave %v, %v and full probe %v, %v",
					step, parent, b, got, ok, full, fullOK)
			}
		}
	}
}

// TestCheckedPreconditionsPanic: with CheckPreconditions set, a caller
// breaking any of the promises is caught: an exact or frontier probe of a
// box whose parent is covered answers wrong, and is caught as such.
func TestCheckedPreconditionsPanic(t *testing.T) {
	CheckPreconditions = true
	defer func() { CheckPreconditions = false }()
	tr := New(2)
	tr.Insert(mustBox("0,λ"))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: broken precondition not caught", name)
			}
		}()
		f()
	}
	mustPanic("InsertUncovered", func() { tr.InsertUncovered(mustBox("01,1")) })
	mustPanic("ContainsSupersetExactAt", func() { tr.ContainsSupersetExactAt(mustBox("01,1"), 0) })
	// ⟨01,1⟩'s frontier at level 0 is the node spelling 01, under which
	// nothing is stored; ⟨0,λ⟩ contains its parent.
	b := mustBox("01,1")
	nodes := tr.Spell(nil, []uint32{tr.Root()}, b[0])
	mustPanic("SupersetBelow", func() { tr.SupersetBelow(nodes, 0, b) })
	tr.InsertUncovered(mustBox("1,1")) // kept promises pass
	if _, ok := tr.ContainsSupersetExactAt(mustBox("0,1"), 0); !ok {
		t.Error("exact probe missed ⟨0,λ⟩")
	}
	b = mustBox("0,1")
	if _, ok := tr.SupersetBelow(tr.Spell(nil, []uint32{tr.Root()}, b[0]), 0, b); !ok {
		t.Error("frontier probe missed ⟨0,λ⟩")
	}
}
