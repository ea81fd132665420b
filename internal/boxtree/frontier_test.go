package boxtree

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// descend runs one random descent of the skeleton over tr from the entry
// box e, carrying its frontier the way the skeleton does: an entry frame
// sits at level 0 under the tree's root; each frame splits its first thick
// level, walking on from the carried roots (RootsAt, Spell) when that level
// is a later one, and a child steps its parent's nodes by its bit (Step).
// visit sees every child frame: its box, its split level, the level's roots
// and the stepped nodes. e is refined in place, down to a unit box.
func descend(tr *Tree, r *rand.Rand, e dyadic.Box, d uint8, visit func(b dyadic.Box, level int, roots, nodes []uint32)) {
	order := tr.Order()
	level, roots := 0, []uint32{tr.Root()}
	nodes := tr.Spell(nil, roots, e[order[0]])
	for {
		next := level
		for next < len(order) && e[order[next]].Len == d {
			next++
		}
		if next == len(order) {
			return
		}
		if next != level {
			roots = tr.RootsAt(nil, roots, level, e, next)
			nodes = tr.Spell(nil, roots, e[order[next]])
			level = next
		}
		bit := uint64(r.Intn(2))
		e[order[level]] = e[order[level]].Child(bit)
		nodes = tr.Step(nil, nodes, bit)
		visit(e, level, roots, nodes)
	}
}

// TestFrontierProbe checks the frontier primitives along random descents
// against their definitions: the stepped nodes are those a walk from the
// tree's root spells, the roots carried down give the line's last-level
// tries, and the probe from the nodes answers as ContainsSupersetExactAt —
// by brute force over All(), the first cover in probe order — and as the
// full probe whenever the frame's parent is uncovered.
func TestFrontierProbe(t *testing.T) {
	for _, order := range [][]int{nil, {1, 2, 0}} { // levels are not dimensions
		frontierProbe(t, order)
	}
}

func frontierProbe(t *testing.T, order []int) {
	const n, d = 3, 4
	r := rand.New(rand.NewSource(13))
	tr := New(n)
	tr.SetOrder(order)
	frames := 0
	for step := 0; step < 1500; step++ {
		if r.Intn(3) == 0 {
			tr.InsertSubsuming(randBox(r, n, d))
			continue
		}
		if r.Intn(40) == 0 {
			tr.DeleteContainedIn(randBox(r, n, d))
			continue
		}
		all := tr.All()
		descend(tr, r, randBox(r, n, d), d, func(b dyadic.Box, level int, roots, nodes []uint32) {
			frames++
			dim := tr.Order()[level]
			if walked := tr.Spell(nil, tr.RootsAt(nil, []uint32{tr.Root()}, 0, b, level), b[dim]); !slices.Equal(nodes, walked) {
				t.Fatalf("step %d: %v at level %d stepped to nodes %v, a walk from the root spells %v", step, b, level, nodes, walked)
			}
			if got, want := tr.RootsAt(nil, roots, level, b, n-1), tr.LastRoots(nil, b); !slices.Equal(got, want) {
				t.Fatalf("step %d: %v walks on from level %d to last-level roots %v, LastRoots %v", step, b, level, got, want)
			}
			got, ok := tr.SupersetBelow(nodes, level, b)
			want, wantOK := tr.ContainsSupersetExactAt(b, dim)
			if ok != wantOK || (ok && !got.Equal(want)) {
				t.Fatalf("step %d: frontier probe of %v at level %d = %v, %v; ContainsSupersetExactAt %v, %v", step, b, level, got, ok, want, wantOK)
			}
			found := false
			for _, a := range all {
				if a.Contains(b) && a[dim] == b[dim] {
					found = true
					break
				}
			}
			if ok != found || (ok && (!got.Contains(b) || got[dim] != b[dim])) {
				t.Fatalf("step %d: frontier probe of %v at level %d = %v, %v; a stored cover exact there exists: %v", step, b, level, got, ok, found)
			}
			parent := b.Clone()
			parent[dim] = b[dim].Parent()
			if _, covered := tr.ContainsSuperset(parent); !covered {
				full, fullOK := tr.ContainsSuperset(b)
				if fullOK != ok || (ok && !full.Equal(got)) {
					t.Fatalf("step %d: parent %v uncovered, yet frontier probe of %v gave %v, %v and full probe %v, %v", step, parent, b, got, ok, full, fullOK)
				}
			}
		})
	}
	if frames < 5000 {
		t.Fatalf("only %d frames probed", frames)
	}
}

// sameDescent runs one random descent (its bits drawn from bits), from e
// and its permutation, over the ordered tree and the identity-order tree
// that lays the same boxes out permuted, and requires both to carry the
// same node indices and to answer alike at every frame.
func sameDescent(t *testing.T, seed int64, step int, ordered, plain *Tree, e dyadic.Box, d uint8, bits int64) {
	t.Helper()
	type frame struct {
		roots, nodes []uint32
		cover        dyadic.Box
		ok           bool
	}
	record := func(tr *Tree, e dyadic.Box, bits int64, perm []int) []frame {
		var out []frame
		descend(tr, rand.New(rand.NewSource(bits)), e, d, func(b dyadic.Box, level int, roots, nodes []uint32) {
			c, ok := tr.SupersetBelow(nodes, level, b)
			if ok && perm != nil {
				c = permuted(c, perm)
			}
			out = append(out, frame{slices.Clone(roots), slices.Clone(nodes), c, ok})
		})
		return out
	}
	order := ordered.Order()
	got, want := record(ordered, e.Clone(), bits, order), record(plain, permuted(e, order), bits, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d step %d order %v: the descent from %v carried %+v, over the permuted tree %+v", seed, step, order, e, got, want)
	}
}
