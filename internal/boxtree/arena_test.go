package boxtree

import (
	"math/rand"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// TestDeleteContainedCountFixup is the regression test for the ancestor
// count fixup at the tail of deleteContained: after deleting a subtree
// reached through a non-empty prefix path, the counts along that path
// must reflect the removal, or later probes (which prune on count == 0)
// would either miss surviving boxes or resurrect deleted regions.
func TestDeleteContainedCountFixup(t *testing.T) {
	tr := New(2)
	for _, s := range []string{"00,λ", "00,1", "01,λ", "0,0", "1,λ"} {
		tr.Insert(mustBox(s))
	}
	// w = ⟨00,λ⟩ has a two-step prefix path at level 0; it contains
	// exactly ⟨00,λ⟩ and ⟨00,1⟩.
	if removed := tr.DeleteContainedIn(mustBox("00,λ")); removed != 2 {
		t.Fatalf("DeleteContainedIn removed %d, want 2", removed)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	// Unrelated boxes sharing the level-0 prefix path must survive and
	// stay reachable (count fixup must not zero their subtrees)…
	for _, s := range []string{"01,λ", "0,0", "1,λ"} {
		if !tr.Contains(mustBox(s)) {
			t.Errorf("box %s lost by count fixup", s)
		}
	}
	if _, ok := tr.ContainsSuperset(mustBox("01,11")); !ok {
		t.Error("ContainsSuperset misses surviving sibling after delete")
	}
	// …while the deleted region must be gone for probes that rely on
	// counts for pruning.
	if _, ok := tr.ContainsSuperset(mustBox("00,11")); ok {
		t.Error("ContainsSuperset found a deleted box")
	}
	if tr.IntersectsAny(mustBox("00,10")) {
		t.Error("IntersectsAny found a deleted box")
	}
	// The structure must remain fully usable: re-insert into the emptied
	// region and find it again.
	if !tr.Insert(mustBox("00,1")) {
		t.Fatal("re-insert into emptied region rejected")
	}
	if _, ok := tr.ContainsSuperset(mustBox("00,11")); !ok {
		t.Error("re-inserted box not found")
	}
}

// TestAliasStabilityAcrossDeletes checks the append-only slab guarantee
// the core skeleton depends on: a box returned by a query stays intact
// even after it is deleted from the tree and new boxes are inserted over
// the recycled node slots.
func TestAliasStabilityAcrossDeletes(t *testing.T) {
	tr := New(2)
	tr.Insert(mustBox("01,10"))
	w, ok := tr.ContainsSuperset(mustBox("01,10"))
	if !ok {
		t.Fatal("stored box not found")
	}
	tr.DeleteContainedIn(mustBox("01,λ"))
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		tr.Insert(randBox(r, 2, 8))
	}
	if !w.Equal(mustBox("01,10")) {
		t.Fatalf("alias mutated after delete+reinserts: %v", w)
	}
}

// TestResetReusesSlabs checks Reset semantics: the tree empties, stays
// fully usable, and steady-state churn after warmup does not grow the
// node slab (the free-list recycles slots).
func TestResetReusesSlabs(t *testing.T) {
	tr := New(3)
	r := rand.New(rand.NewSource(5))
	boxes := make([]dyadic.Box, 500)
	for i := range boxes {
		boxes[i] = randBox(r, 3, 6)
	}
	insertAll := func() int {
		n := 0
		for _, b := range boxes {
			if tr.Insert(b) {
				n++
			}
		}
		return n
	}
	first := insertAll()
	if tr.Len() != first {
		t.Fatalf("Len = %d, want %d", tr.Len(), first)
	}
	warmNodes := cap(tr.nodes)
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tr.Len())
	}
	if tr.Contains(boxes[0]) {
		t.Error("Reset left a box behind")
	}
	second := insertAll()
	if second != first {
		t.Fatalf("re-insert after Reset stored %d, want %d", second, first)
	}
	if cap(tr.nodes) != warmNodes {
		t.Errorf("node slab grew across Reset: %d -> %d", warmNodes, cap(tr.nodes))
	}
	for _, b := range boxes {
		if !tr.Contains(b) {
			t.Fatalf("box %v missing after Reset+reinsert", b)
		}
	}
}

// TestNodeRecycling checks that delete returns node slots to the
// free-list: repeated insert/delete cycles of the same region must not
// grow the node slab.
func TestNodeRecycling(t *testing.T) {
	tr := New(2)
	fill := func() {
		for x := uint64(0); x < 16; x++ {
			for y := uint64(0); y < 16; y++ {
				tr.Insert(dyadic.Box{dyadic.Unit(x, 4), dyadic.Unit(y, 4)})
			}
		}
	}
	fill()
	if removed := tr.DeleteContainedIn(mustBox("λ,λ")); removed != 256 {
		t.Fatalf("delete removed %d, want 256", removed)
	}
	warm := cap(tr.nodes)
	for cycle := 0; cycle < 5; cycle++ {
		fill()
		if tr.Len() != 256 {
			t.Fatalf("cycle %d: Len = %d", cycle, tr.Len())
		}
		if removed := tr.DeleteContainedIn(mustBox("λ,λ")); removed != 256 {
			t.Fatalf("cycle %d: delete removed %d", cycle, removed)
		}
	}
	if cap(tr.nodes) != warm {
		t.Errorf("node slab grew across churn cycles: %d -> %d", warm, cap(tr.nodes))
	}
}

// TestZeroAllocOps verifies the arena promise directly: steady-state
// Insert, ContainsSuperset, IntersectsAny and budgeted subsume-delete
// perform zero heap allocations, and so do a line's walks and a frontier's
// steps and probe into buffers that have grown.
func TestZeroAllocOps(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	boxes := make([]dyadic.Box, 256)
	for i := range boxes {
		boxes[i] = randBox(r, 3, 8)
	}
	tr := New(3)
	for _, b := range boxes {
		tr.Insert(b) // warm the slabs
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if i%len(boxes) == 0 {
			tr.Reset()
		}
		b := boxes[i%len(boxes)]
		tr.Insert(b)
		tr.ContainsSuperset(b)
		tr.IntersectsAny(b)
		tr.DeleteContainedInBudget(b, 8)
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state ops allocate %.1f times per run, want 0", allocs)
	}
	// The two walks of a line, into a root buffer that has grown once.
	roots := tr.LastRoots(nil, boxes[0])
	allocs = testing.AllocsPerRun(500, func() {
		b := boxes[i%len(boxes)]
		roots = tr.LastRoots(roots[:0], b)
		for _, root := range roots {
			tr.SupersetUnder(root, b)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("LastRoots + SupersetUnder allocate %.1f times per run, want 0", allocs)
	}
	// A frontier moving to level 1 and stepping there, into an arena that
	// has grown once.
	front := make([]uint32, 0, 4*len(boxes))
	allocs = testing.AllocsPerRun(500, func() {
		b := boxes[i%len(boxes)]
		front = append(front[:0], tr.Root())
		front = tr.RootsAt(front, front[:1], 0, b, 1)
		roots := len(front)
		front = tr.Spell(front, front[1:roots], b[1])
		nodes := len(front)
		front = tr.Step(front, front[roots:nodes], uint64(i&1))
		tr.SupersetBelow(front[nodes:], 1, b)
		i++
	})
	if allocs != 0 {
		t.Errorf("RootsAt + Spell + Step + SupersetBelow allocate %.1f times per run, want 0", allocs)
	}
}
