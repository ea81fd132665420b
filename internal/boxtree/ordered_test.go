package boxtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// permuted is b as an identity-order tree has to see it to lay it out the
// way a tree of the given level order lays out b: component i is b's
// component in dimension order[i].
func permuted(b dyadic.Box, order []int) dyadic.Box {
	p := make(dyadic.Box, len(b))
	for level, dim := range order {
		p[level] = b[dim]
	}
	return p
}

// orderedAgainstPermuted drives a tree with a random level order over
// random boxes, and an identity-order tree over the same boxes permuted,
// through every operation, and requires the two to answer alike — the
// ordered tree in dimension order, the other permuted — and to stay the
// same trie: equal node slabs and free-lists, payloads equal up to the
// permutation. The level order is then a relabelling of dimensions and
// nothing else.
func orderedAgainstPermuted(t *testing.T, seed int64, steps int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n := 1 + r.Intn(4)
	d := uint8(1 + r.Intn(5))
	order := r.Perm(n)
	ordered, plain := New(n), New(n)
	ordered.SetOrder(order)
	if !reflect.DeepEqual(ordered.Order(), order) {
		t.Fatalf("seed %d: Order() = %v after SetOrder(%v)", seed, ordered.Order(), order)
	}
	same := func(step int, op string, got dyadic.Box, gotOK bool, want dyadic.Box, wantOK bool) {
		t.Helper()
		if gotOK != wantOK || (gotOK && !permuted(got, order).Equal(want)) {
			t.Fatalf("seed %d step %d order %v: %s = %v, %v; the permuted tree says %v, %v", seed, step, order, op, got, gotOK, want, wantOK)
		}
	}
	sameAll := func(step int, op string, got, want []dyadic.Box) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d order %v: %s returns %d boxes, the permuted tree %d", seed, step, order, op, len(got), len(want))
		}
		for i := range got {
			same(step, op, got[i], true, want[i], true)
		}
	}
	for step := 0; step < steps; step++ {
		b := randBox(r, n, d)
		pb := permuted(b, order)
		switch op := r.Intn(15); op {
		case 0, 1:
			if got, want := ordered.Insert(b), plain.Insert(pb); got != want {
				t.Fatalf("seed %d step %d: Insert(%v) = %v, permuted %v", seed, step, b, got, want)
			}
		case 2, 3, 4:
			if got, want := ordered.InsertSubsuming(b), plain.InsertSubsuming(pb); got != want {
				t.Fatalf("seed %d step %d: InsertSubsuming(%v) = %v, permuted %v", seed, step, b, got, want)
			}
		case 5:
			if _, covered := plain.ContainsSuperset(pb); !covered {
				ordered.InsertUncovered(b)
				plain.InsertUncovered(pb)
			}
		case 6:
			got, gotOK := ordered.ContainsSuperset(b)
			want, wantOK := plain.ContainsSuperset(pb)
			same(step, "ContainsSuperset", got, gotOK, want, wantOK)
			for level, dim := range order {
				got, gotOK := ordered.ContainsSupersetExactAt(b, dim)
				want, wantOK := plain.ContainsSupersetExactAt(pb, level)
				same(step, "ContainsSupersetExactAt", got, gotOK, want, wantOK)
			}
		case 7:
			sameAll(step, "SupersetsAppend", ordered.SupersetsAppend(nil, b), plain.SupersetsAppend(nil, pb))
		case 8:
			if got, want := ordered.IntersectsAny(b), plain.IntersectsAny(pb); got != want {
				t.Fatalf("seed %d step %d: IntersectsAny(%v) = %v, permuted %v", seed, step, b, got, want)
			}
		case 9:
			budget := r.Intn(40) - 1 // -1: unbounded
			if got, want := ordered.DeleteContainedInBudget(b, budget), plain.DeleteContainedInBudget(pb, budget); got != want {
				t.Fatalf("seed %d step %d: DeleteContainedInBudget(%v, %d) = %d, permuted %d", seed, step, b, budget, got, want)
			}
		case 10:
			if got, want := ordered.Contains(b), plain.Contains(pb); got != want {
				t.Fatalf("seed %d step %d: Contains(%v) = %v, permuted %v", seed, step, b, got, want)
			}
		case 11:
			sameAll(step, "All", ordered.All(), plain.All())
		case 12:
			roots, proots := ordered.LastRoots(nil, b), plain.LastRoots(nil, pb)
			if !reflect.DeepEqual(roots, proots) {
				t.Fatalf("seed %d step %d: LastRoots(%v) = %v, permuted %v", seed, step, b, roots, proots)
			}
			// In order, the roots answer as the whole probe does.
			var first dyadic.Box
			for _, root := range roots {
				got, gotOK := ordered.SupersetUnder(root, b)
				want, wantOK := plain.SupersetUnder(root, pb)
				same(step, "SupersetUnder", got, gotOK, want, wantOK)
				if gotOK && first == nil {
					first = got
				}
			}
			whole, wholeOK := ordered.ContainsSuperset(b)
			if wholeOK != (first != nil) || (wholeOK && !whole.Equal(first)) {
				t.Fatalf("seed %d step %d: the roots of %v find %v first, ContainsSuperset %v, %v", seed, step, b, first, whole, wholeOK)
			}
		case 13:
			sameDescent(t, seed, step, ordered, plain, b, d, r.Int63())
		case 14:
			if r.Intn(20) == 0 {
				ordered.Reset()
				plain.Reset()
			}
		}
		if ordered.Len() != plain.Len() || ordered.free != plain.free || !reflect.DeepEqual(ordered.nodes, plain.nodes) {
			t.Fatalf("seed %d step %d order %v: the tries diverged after %v", seed, step, order, b)
		}
		if len(ordered.ivs) != len(plain.ivs) {
			t.Fatalf("seed %d step %d: payload slabs of %d and %d intervals", seed, step, len(ordered.ivs), len(plain.ivs))
		}
		for at := 0; at < len(plain.ivs); at += n {
			if !permuted(ordered.ivs[at:at+n], order).Equal(plain.ivs[at : at+n]) {
				t.Fatalf("seed %d step %d order %v: payload %d is %v, permuted tree's %v", seed, step, order, at/n, ordered.ivs[at:at+n], plain.ivs[at:at+n])
			}
		}
	}
	if !reflect.DeepEqual(ordered.Order(), order) {
		t.Fatalf("seed %d: the level order %v did not survive, now %v", seed, order, ordered.Order())
	}
}

func TestOrderedTreeIsPermutedIdentityTree(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		orderedAgainstPermuted(t, seed, 1500)
	}
}

// FuzzOrderedTree fuzzes the seed of orderedAgainstPermuted.
func FuzzOrderedTree(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		orderedAgainstPermuted(t, seed, 400)
	})
}

func TestSetOrderRefusals(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", name)
			}
		}()
		f()
	}
	tr := New(3)
	for _, order := range [][]int{{0, 1}, {0, 1, 1}, {0, 1, 3}, {-1, 0, 1}, {0, 1, 2, 3}} {
		mustPanic(fmt.Sprintf("SetOrder(%v)", order), func() { tr.SetOrder(order) })
	}
	tr.SetOrder([]int{2, 0, 1})
	tr.Insert(mustBox("0,1,λ"))
	mustPanic("SetOrder on a non-empty tree", func() { tr.SetOrder(nil) })
	tr.Reset()
	if !reflect.DeepEqual(tr.Order(), []int{2, 0, 1}) {
		t.Errorf("Reset changed the level order to %v", tr.Order())
	}
	tr.SetOrder(nil)
	if !reflect.DeepEqual(tr.Order(), []int{0, 1, 2}) {
		t.Errorf("SetOrder(nil) left %v, want the identity", tr.Order())
	}
}
