// Package boxtree implements the multilevel dyadic tree of Appendix C.1
// of the Tetris paper: the data structure backing the knowledge base A.
//
// Each level is a binary trie over the bits of one box component. A node
// whose path spells the i-th component of a stored box either links to the
// root of the next level's trie (i < n-1) or stores the box itself
// (i == n-1). Because a box a contains a box b exactly when every a_i is a
// prefix of b_i, the boxes containing b lie on the ≤ d+1 prefix paths per
// level, giving Õ(1) superset queries; the boxes contained in a box w form
// whole subtrees, giving cheap subsumption pruning.
//
// # Level order
//
// "The i-th component" is taken in the tree's level order, a permutation
// mapping level to dimension (identity unless SetOrder says otherwise).
// Appendix C.1 orders the levels by the splitting attribute order, and a
// knowledge base probed by the skeleton is set up that way: the frames of
// a descent are units in an SAO prefix and λ in an SAO suffix, so with the
// SAO on top a probe follows one full-length path through the first levels
// and fans out only below, the subsume sweep of an insert starts at the
// first SAO component, and everything stored over a line of the last SAO
// dimension sits in a handful of last-level tries (LastRoots, the
// last-level case of the roots-at-level walk RootsAt). The order is about
// levels only: stored and returned boxes keep their components in
// dimension order, and every dim argument names a dimension.
//
// # Frontiers
//
// A skeleton frame split at level L is a unit box at the levels above L,
// and its children differ from it by one bit there. So a read-only tree
// can be probed from a frontier the frames carry instead of from its root
// each time: the level-L roots that the frame's components above L reach
// (RootsAt, from the tree's Root), and under them, in the same order, the
// nodes that spell the frame's component at L (Spell). A child steps those
// nodes by its bit (Step) and probes below them (SupersetBelow), which
// answers as ContainsSupersetExactAt does, box for box, without the walk
// down to L; when the split moves on to a later level, RootsAt walks on
// from the carried roots. Frontiers are node indices, so they hold only
// while the tree is not written to.
//
// # Arena layout
//
// The paper's cost model (Lemma 4.5) charges Õ(1) *word operations* per
// resolution; for the implementation to track that bound the per-operation
// constant must not be dominated by allocator and GC traffic. The tree is
// therefore backed by two slabs owned by the Tree value:
//
//   - a node slab ([]node addressed by uint32 indices, with an intrusive
//     free-list threaded through deleted slots), so trie descent walks
//     contiguous 20-byte records instead of chasing heap pointers, and
//     inserts/deletes recycle slots without touching the allocator; and
//   - an append-only interval slab holding the payload of every stored
//     box, so Insert copies its argument with a bulk append instead of a
//     per-box Clone.
//
// In steady state (slab capacity warmed up) Insert, superset probes,
// intersection probes and subsume-deletes perform zero heap allocations.
//
// Boxes returned by queries (ContainsSuperset, Supersets, All) alias the
// interval slab. Because the slab is append-only — deleting a box
// abandons its payload rather than reusing it — such aliases remain
// valid for the lifetime of the Tree even across later inserts and
// deletes. Only Reset invalidates them. Callers must not modify returned
// boxes.
package boxtree

import (
	"fmt"
	"slices"

	"tetrisjoin/internal/dyadic"
)

// nilNode is the null node index. Slot 0 of the node slab is reserved so
// the zero value of links means "absent".
const nilNode = 0

// node is one trie node. A node that spells a stored component carries a
// link: below the last level the root of the next level's trie, on the
// last level 1 + (start index into the interval slab) of the stored box —
// a node is never both. Zero means "nothing stored here", so freshly
// allocated slots need no initialization.
//
// lo and hi matter on level roots only (rootNode and every link target):
// every component stored in that level's trie has a length in [lo, hi].
// They are bounds — inserts widen them, deletes leave them alone, an
// insert into an emptied trie (count 0) starts them afresh — which is all
// a probe needs to skip a level that cannot hold a prefix of its component
// and to stop walking at the longest stored length.
type node struct {
	children [2]uint32 // same-level trie children (nilNode = absent)
	link     uint32    // next level's root, or 1 + slab offset of the stored box; 0 = none
	count    int32     // boxes stored in this subtree, including deeper levels
	lo, hi   uint8     // level roots: bounds on the component lengths stored at this level
}

// rootNode is the slab index of the level-0 trie root.
const rootNode = 1

// Tree stores a set of n-dimensional dyadic boxes.
type Tree struct {
	n     int
	order []int             // level → dimension; a permutation of 0..n-1
	nodes []node            // nodes[0] reserved; nodes[rootNode] is the root
	ivs   []dyadic.Interval // append-only payload slab, n intervals per stored box
	free  uint32            // head of the node free-list (nilNode = empty)
	size  int
	path  []uint32 // Insert path scratch, reused across calls
}

// New returns an empty tree for n-dimensional boxes.
func New(n int) *Tree {
	if n < 1 {
		panic("boxtree: dimension must be positive")
	}
	t := &Tree{n: n, order: make([]int, n)}
	t.nodes = make([]node, 2, 64)
	t.SetOrder(nil)
	return t
}

// SetOrder sets the level order of an empty tree: level i holds the
// component of dimension order[i]. Nil is the identity. The order is
// copied, survives Reset, and must be a permutation of 0..n-1.
func (t *Tree) SetOrder(order []int) {
	if t.size != 0 {
		panic("boxtree: SetOrder on a non-empty tree")
	}
	if order == nil {
		for i := range t.order {
			t.order[i] = i
		}
		return
	}
	ok := len(order) == t.n
	for i := 0; ok && i < t.n; i++ {
		ok = order[i] >= 0 && order[i] < t.n && !slices.Contains(order[:i], order[i])
	}
	if !ok {
		panic(fmt.Sprintf("boxtree: level order %v is not a permutation of 0..%d", order, t.n-1))
	}
	copy(t.order, order)
}

// Order returns the level order. Callers must not modify it.
func (t *Tree) Order() []int { return t.order }

// Dims returns the dimensionality of the stored boxes.
func (t *Tree) Dims() int { return t.n }

// Len returns the number of stored boxes.
func (t *Tree) Len() int { return t.size }

// Reset empties the tree, retaining the slab capacity for reuse. Boxes
// previously returned by queries become invalid: their storage will be
// overwritten by subsequent inserts.
func (t *Tree) Reset() {
	t.nodes = t.nodes[:2]
	t.nodes[rootNode] = node{}
	t.ivs = t.ivs[:0]
	t.free = nilNode
	t.size = 0
}

// SlabCaps returns the capacities of the node and payload slabs, in
// entries: what the tree keeps allocated across Reset.
func (t *Tree) SlabCaps() (nodes, intervals int) { return cap(t.nodes), cap(t.ivs) }

// alloc returns a fresh zeroed node slot, recycling the free-list first.
func (t *Tree) alloc() uint32 {
	if t.free != nilNode {
		i := t.free
		t.free = t.nodes[i].children[0]
		t.nodes[i] = node{}
		return i
	}
	t.nodes = append(t.nodes, node{})
	return uint32(len(t.nodes) - 1)
}

// release pushes a single node slot onto the free-list.
func (t *Tree) release(i uint32) {
	t.nodes[i] = node{children: [2]uint32{t.free}}
	t.free = i
}

// releaseSubtree returns an entire empty subtree (all counts zero) to the
// free-list, including the deeper-level tries hanging off next links.
// Cost is amortized against the insertions that created the nodes.
func (t *Tree) releaseSubtree(i uint32, level int) {
	if i == nilNode {
		return
	}
	nd := t.nodes[i]
	t.releaseSubtree(nd.children[0], level)
	t.releaseSubtree(nd.children[1], level)
	if level < t.n-1 {
		t.releaseSubtree(nd.link, level+1)
	}
	t.release(i)
}

// storeBox appends the box payload to the interval slab and returns the
// last-level node.link reference (offset+1).
func (t *Tree) storeBox(b dyadic.Box) uint32 {
	start := len(t.ivs)
	t.ivs = append(t.ivs, b...)
	return uint32(start) + 1
}

// boxAt returns the stored box for a last-level node.link reference. The result
// aliases the slab; see the package comment for the validity guarantee.
func (t *Tree) boxAt(ref uint32) dyadic.Box {
	start := int(ref) - 1
	return dyadic.Box(t.ivs[start : start+t.n : start+t.n])
}

// Insert adds the box and reports whether it was not already present.
func (t *Tree) Insert(b dyadic.Box) bool {
	return t.insert(b, 0)
}

// noteLen records on level root r that a component of length l is being
// stored in its trie.
func (t *Tree) noteLen(r uint32, l uint8) {
	nd := &t.nodes[r]
	if nd.count == 0 {
		nd.lo, nd.hi = l, l
		return
	}
	nd.lo, nd.hi = min(nd.lo, l), max(nd.hi, l)
}

// insert is the one descent behind Insert and InsertSubsuming. A positive
// budget asks for the subsume sweep of DeleteContainedInBudget(b, budget)
// on the way down: it starts at the node spelling b's first-level
// component, which the descent reaches anyway, so it runs from there and
// fixes the ancestors' counts from the recorded path — and not at all when
// the descent had to create that node, since nothing is stored below a
// node that did not exist.
func (t *Tree) insert(b dyadic.Box, budget int) bool {
	if len(b) != t.n {
		panic(fmt.Sprintf("boxtree: inserting %d-dimensional box into %d-dimensional tree", len(b), t.n))
	}
	// Descend, creating missing nodes, recording the path in the reused
	// scratch buffer. If the full path already ends in a stored box,
	// nothing was created. Counts are bumped only once the insertion is
	// known to happen, by replaying the recorded path.
	path := t.path[:0]
	cur, levelRoot := uint32(rootNode), uint32(rootNode)
	path = append(path, cur)
	for level := 0; level < t.n; level++ {
		iv := b[t.order[level]]
		for i := int(iv.Len) - 1; i >= 0; i-- {
			bit := iv.Bits >> uint(i) & 1
			nxt := t.nodes[cur].children[bit]
			if nxt == nilNode {
				nxt = t.alloc()
				t.nodes[cur].children[bit] = nxt
				budget = 0
			}
			cur = nxt
			path = append(path, cur)
		}
		if level == 0 && budget > 0 {
			if removed := t.deleteBelow(cur, 0, b, &budget); removed > 0 {
				for _, ni := range path[:len(path)-1] {
					t.nodes[ni].count -= int32(removed)
				}
				t.size -= removed
			}
		}
		t.noteLen(levelRoot, iv.Len)
		if level == t.n-1 {
			if t.nodes[cur].link != 0 {
				t.path = path
				return false // exact duplicate
			}
			t.nodes[cur].link = t.storeBox(b)
		} else {
			nxt := t.nodes[cur].link
			if nxt == nilNode {
				nxt = t.alloc()
				t.nodes[cur].link = nxt
			}
			cur, levelRoot = nxt, nxt
			path = append(path, cur)
		}
	}
	for _, ni := range path {
		t.nodes[ni].count++
	}
	t.path = path
	t.size++
	return true
}

// ContainsSuperset returns a stored box containing b, if any. Shorter
// prefixes (bigger boxes) are preferred, so the first match found tends to
// be a large cover.
func (t *Tree) ContainsSuperset(b dyadic.Box) (dyadic.Box, bool) {
	if len(b) != t.n {
		panic("boxtree: dimension mismatch in ContainsSuperset")
	}
	return t.findSuperset(rootNode, 0, b, -1)
}

// ContainsSupersetExactAt is ContainsSuperset restricted to stored boxes
// whose component in dimension dim equals b[dim]. That is the whole answer
// when no stored box contains the parent of b along dim (b[dim] minus its
// last bit): a superset of b with a shorter component there would contain
// the parent too. The skeleton's child frames are in that position and
// skip the next-level walks at every proper prefix of b[dim]. With
// CheckPreconditions set, the claim is checked against the full probe.
func (t *Tree) ContainsSupersetExactAt(b dyadic.Box, dim int) (dyadic.Box, bool) {
	if len(b) != t.n {
		panic("boxtree: dimension mismatch in ContainsSupersetExactAt")
	}
	sb, ok := t.findSuperset(rootNode, 0, b, dim)
	if CheckPreconditions {
		if full, fullOK := t.findSuperset(rootNode, 0, b, -1); fullOK != ok || (ok && !full.Equal(sb)) {
			panic(fmt.Sprintf("boxtree: exact probe of %v at dimension %d found %v, full probe %v", b, dim, sb, full))
		}
	}
	return sb, ok
}

// findSuperset probes the trie rooted at level root ni. exact, when not
// -1, is the dimension at whose level only the node spelling b's full
// component may be a storage point.
func (t *Tree) findSuperset(ni uint32, level int, b dyadic.Box, exact int) (dyadic.Box, bool) {
	nodes := t.nodes
	root := &nodes[ni]
	if root.count == 0 {
		return nil, false
	}
	// Storage points that can hold a prefix of b's component sit at depths
	// first..last of the walk; the level root's summary narrows the range
	// and empties it for a level that cannot hold a cover.
	dim := t.order[level]
	iv := b[dim]
	first, last := int(root.lo), min(int(iv.Len), int(root.hi))
	if dim == exact {
		first = int(iv.Len)
	}
	if first > last {
		return nil, false
	}
	nd := root
	for depth := 0; ; depth++ {
		if depth >= first && nd.link != 0 {
			if level < t.n-1 {
				if found, ok := t.findSuperset(nd.link, level+1, b, exact); ok {
					return found, ok
				}
			} else {
				return t.boxAt(nd.link), true
			}
		}
		if depth == last {
			return nil, false
		}
		next := nd.children[iv.Bits>>uint(int(iv.Len)-1-depth)&1]
		if next == nilNode {
			return nil, false
		}
		nd = &nodes[next]
	}
}

// Supersets returns all stored boxes containing b.
func (t *Tree) Supersets(b dyadic.Box) []dyadic.Box {
	return t.SupersetsAppend(nil, b)
}

// SupersetsAppend appends all stored boxes containing b to out and returns
// the extended slice, allocating only when out lacks capacity. The
// appended boxes alias the slab (see the package comment).
func (t *Tree) SupersetsAppend(out []dyadic.Box, b dyadic.Box) []dyadic.Box {
	if len(b) != t.n {
		panic("boxtree: dimension mismatch in Supersets")
	}
	return t.collectSupersets(rootNode, 0, b, out)
}

func (t *Tree) collectSupersets(ni uint32, level int, b dyadic.Box, out []dyadic.Box) []dyadic.Box {
	if ni == nilNode || t.nodes[ni].count == 0 {
		return out
	}
	iv := b[t.order[level]]
	cur := ni
	for depth := 0; ; depth++ {
		nd := t.nodes[cur]
		if nd.link != 0 {
			if level == t.n-1 {
				out = append(out, t.boxAt(nd.link))
			} else {
				out = t.collectSupersets(nd.link, level+1, b, out)
			}
		}
		if depth == int(iv.Len) {
			return out
		}
		bit := iv.Bits >> uint(int(iv.Len)-1-depth) & 1
		cur = nd.children[bit]
		if cur == nilNode {
			return out
		}
	}
}

// Root returns the root of the level-0 trie: the one frontier root of
// level 0.
func (t *Tree) Root() uint32 { return rootNode }

// RootsAt appends to out, in probe order, the roots of the level-to tries
// reached from the given level-level roots over every combination of
// prefixes of b's components at levels level through to-1: the tries that
// a ContainsSuperset of any box agreeing with b at those levels descends,
// in the order it reaches them, after its walk above level has reached the
// given roots in order. b's components at level to and below are not
// read; with to == level the given roots come back, less the empty ones.
// The roots are node indices, good until the tree is next written to.
func (t *Tree) RootsAt(out, roots []uint32, level int, b dyadic.Box, to int) []uint32 {
	if len(b) != t.n || level < 0 || level > to || to >= t.n {
		panic(fmt.Sprintf("boxtree: RootsAt from level %d to %d of a %d-dimensional box in a %d-dimensional tree", level, to, len(b), t.n))
	}
	for _, ni := range roots {
		out = t.rootsAt(ni, level, b, to, out)
	}
	return out
}

// LastRoots is RootsAt from the tree's root to the last level: the
// last-level tries, in probe order, that a ContainsSuperset of any box
// agreeing with b above the last level descends. b's last-level component
// is not read.
func (t *Tree) LastRoots(out []uint32, b dyadic.Box) []uint32 {
	if len(b) != t.n {
		panic("boxtree: dimension mismatch in LastRoots")
	}
	return t.rootsAt(rootNode, 0, b, t.n-1, out)
}

// rootsAt is the one roots-at-level walk: findSuperset's descent from the
// level root ni, stopping at the level-to roots instead of probing them.
func (t *Tree) rootsAt(ni uint32, level int, b dyadic.Box, to int, out []uint32) []uint32 {
	nodes := t.nodes
	root := &nodes[ni]
	if root.count == 0 {
		return out
	}
	if level == to {
		return append(out, ni)
	}
	iv := b[t.order[level]]
	first, last := int(root.lo), min(int(iv.Len), int(root.hi))
	nd := root
	for depth := 0; depth <= last; depth++ {
		if depth >= first && nd.link != 0 {
			out = t.rootsAt(nd.link, level+1, b, to, out)
		}
		if depth == last {
			break
		}
		next := nd.children[iv.Bits>>uint(int(iv.Len)-1-depth)&1]
		if next == nilNode {
			break
		}
		nd = &nodes[next]
	}
	return out
}

// Spell appends to out, for each of the given level roots in order, the
// node of its trie that spells iv, skipping the roots under which no stored
// component has iv as a prefix.
func (t *Tree) Spell(out, roots []uint32, iv dyadic.Interval) []uint32 {
	nodes := t.nodes
next:
	for _, ni := range roots {
		for i := int(iv.Len) - 1; i >= 0; i-- {
			if ni = nodes[ni].children[iv.Bits>>uint(i)&1]; ni == nilNode {
				continue next
			}
		}
		if nodes[ni].count > 0 {
			out = append(out, ni)
		}
	}
	return out
}

// Step appends to out the bit child of each of the given nodes, in order,
// skipping the absent and empty ones: where the nodes spell an interval
// iv under their roots, the result spells iv.Child(bit) under the same
// roots — Spell of the child interval, one bit per node instead of a walk.
func (t *Tree) Step(out, nodes []uint32, bit uint64) []uint32 {
	for _, ni := range nodes {
		if c := t.nodes[ni].children[bit&1]; c != nilNode && t.nodes[c].count > 0 {
			out = append(out, c)
		}
	}
	return out
}

// SupersetBelow is the probe from a frontier: nodes spell b's component at
// level under the level roots that RootsAt finds for b, in that order
// (Spell, Step), and the answer is ContainsSupersetExactAt(b, dim) for the
// level's dimension dim — the first stored box, in probe order, that
// contains b and has exactly b's component there — without the walk down
// to level. That is the full probe's answer whenever no stored box
// contains b's parent along dim; with CheckPreconditions set, it is checked
// against the full probe.
func (t *Tree) SupersetBelow(nodes []uint32, level int, b dyadic.Box) (dyadic.Box, bool) {
	if len(b) != t.n {
		panic("boxtree: dimension mismatch in SupersetBelow")
	}
	sb, ok := t.supersetBelow(nodes, level, b)
	if CheckPreconditions {
		if full, fullOK := t.findSuperset(rootNode, 0, b, -1); fullOK != ok || (ok && !full.Equal(sb)) {
			panic(fmt.Sprintf("boxtree: frontier probe of %v at level %d found %v, full probe %v", b, level, sb, full))
		}
	}
	return sb, ok
}

func (t *Tree) supersetBelow(nodes []uint32, level int, b dyadic.Box) (dyadic.Box, bool) {
	for _, ni := range nodes {
		switch link := t.nodes[ni].link; {
		case link == 0:
		case level == t.n-1:
			return t.boxAt(link), true
		default:
			if sb, ok := t.findSuperset(link, level+1, b, -1); ok {
				return sb, true
			}
		}
	}
	return nil, false
}

// SupersetUnder is the last step of ContainsSuperset(b) below one of
// LastRoots(b): the first box stored in that trie whose last-level
// component contains b's. Probing the roots in order and stopping at the
// first hit answers exactly as ContainsSuperset does.
func (t *Tree) SupersetUnder(root uint32, b dyadic.Box) (dyadic.Box, bool) {
	return t.findSuperset(root, t.n-1, b, -1)
}

// IntersectsAny reports whether any stored box shares at least one point
// with b. A box intersects b exactly when every pair of corresponding
// components is prefix-comparable, so the search explores the prefixes of
// b's component (supersets at this level) plus the whole subtree below it
// (extensions), pruned by subtree counts.
func (t *Tree) IntersectsAny(b dyadic.Box) bool {
	if len(b) != t.n {
		panic("boxtree: dimension mismatch in IntersectsAny")
	}
	return t.intersectsAny(rootNode, 0, b)
}

func (t *Tree) intersectsAny(ni uint32, level int, b dyadic.Box) bool {
	if ni == nilNode || t.nodes[ni].count == 0 {
		return false
	}
	iv := b[t.order[level]]
	// Prefix path: nodes whose interval contains b's component.
	cur := ni
	for depth := 0; ; depth++ {
		nd := t.nodes[cur]
		if nd.link != 0 && (level == t.n-1 || t.intersectsAny(nd.link, level+1, b)) {
			return true
		}
		if depth == int(iv.Len) {
			break
		}
		bit := iv.Bits >> uint(int(iv.Len)-1-depth) & 1
		cur = nd.children[bit]
		if cur == nilNode {
			return false
		}
	}
	// cur spells b's component exactly; every descendant extends it and
	// is therefore comparable. Explore the whole subtree (skipping cur
	// itself, already handled above).
	return t.intersectsBelow(t.nodes[cur].children[0], level, b) ||
		t.intersectsBelow(t.nodes[cur].children[1], level, b)
}

func (t *Tree) intersectsBelow(ni uint32, level int, b dyadic.Box) bool {
	if ni == nilNode || t.nodes[ni].count == 0 {
		return false
	}
	nd := t.nodes[ni]
	if nd.link != 0 && (level == t.n-1 || t.intersectsAny(nd.link, level+1, b)) {
		return true
	}
	return t.intersectsBelow(nd.children[0], level, b) ||
		t.intersectsBelow(nd.children[1], level, b)
}

// DeleteContainedIn removes every stored box that is contained in w and
// returns the number removed. Subtrees emptied by the removal are pruned
// and their node slots recycled.
func (t *Tree) DeleteContainedIn(w dyadic.Box) int {
	return t.DeleteContainedInBudget(w, -1)
}

// DeleteContainedInBudget is DeleteContainedIn with a bound on the number
// of trie nodes visited: once the budget is exhausted the sweep stops,
// leaving any not-yet-visited contained boxes in place. A negative budget
// means unlimited. Partial deletion keeps the tree consistent — the
// operation is pure compaction — while bounding the cost of subsuming
// very wide boxes, which would otherwise sweep the entire structure
// (Lemma 4.5's accounting charges only Õ(1) per resolution).
func (t *Tree) DeleteContainedInBudget(w dyadic.Box, budget int) int {
	if len(w) != t.n {
		panic("boxtree: dimension mismatch in DeleteContainedIn")
	}
	if budget < 0 {
		budget = int(^uint(0) >> 1)
	}
	removed := t.deleteContained(rootNode, 0, w, &budget)
	t.size -= removed
	return removed
}

func (t *Tree) deleteContained(ni uint32, level int, w dyadic.Box, budget *int) int {
	if ni == nilNode || t.nodes[ni].count == 0 {
		return 0
	}
	// Descend along w's component to the subtree of contained boxes.
	iv := w[t.order[level]]
	cur := ni
	for depth := 0; depth < int(iv.Len); depth++ {
		bit := iv.Bits >> uint(int(iv.Len)-1-depth) & 1
		cur = t.nodes[cur].children[bit]
		if cur == nilNode {
			return 0
		}
	}
	removed := t.deleteBelow(cur, level, w, budget)
	if removed > 0 {
		// deleteBelow fixed cur's count; re-walk the prefix path to fix
		// the ancestors (ni up to but excluding cur) without materializing
		// a path slice.
		fix := ni
		for depth := 0; depth < int(iv.Len); depth++ {
			t.nodes[fix].count -= int32(removed)
			bit := iv.Bits >> uint(int(iv.Len)-1-depth) & 1
			fix = t.nodes[fix].children[bit]
		}
	}
	return removed
}

func (t *Tree) deleteBelow(ni uint32, level int, w dyadic.Box, budget *int) int {
	if ni == nilNode || t.nodes[ni].count == 0 || *budget <= 0 {
		return 0
	}
	*budget--
	var rem int
	if link := t.nodes[ni].link; link != 0 {
		if level == t.n-1 {
			t.nodes[ni].link = 0 // payload is abandoned: the slab is append-only
			rem++
		} else if rem += t.deleteContained(link, level+1, w, budget); t.nodes[link].count == 0 {
			t.nodes[ni].link = nilNode
			t.releaseSubtree(link, level+1)
		}
	}
	for i := 0; i < 2; i++ {
		c := t.nodes[ni].children[i]
		if c == nilNode {
			continue
		}
		rem += t.deleteBelow(c, level, w, budget)
		if t.nodes[c].count == 0 {
			t.nodes[ni].children[i] = nilNode
			t.releaseSubtree(c, level)
		}
	}
	t.nodes[ni].count -= int32(rem)
	return rem
}

// subsumeBudget bounds the per-insertion compaction sweep; see
// DeleteContainedInBudget.
const subsumeBudget = 32

// InsertSubsuming inserts b unless it is already covered by a stored box;
// when inserted, stored boxes contained in b are removed (best-effort,
// bounded by subsumeBudget trie nodes per insertion). It reports whether
// b was inserted. This keeps the knowledge base compact without changing
// the region covered or breaking the Õ(1)-per-resolution cost accounting.
func (t *Tree) InsertSubsuming(b dyadic.Box) bool {
	if _, ok := t.ContainsSuperset(b); ok {
		return false
	}
	return t.insert(b, subsumeBudget)
}

// CheckPreconditions makes InsertUncovered, ContainsSupersetExactAt and
// SupersetBelow verify what their callers promise and panic when it does
// not hold.
// Only tests set it (from TestMain, before any tree exists).
var CheckPreconditions bool

// InsertUncovered is InsertSubsuming for a box the caller knows no stored
// box contains, without the cover probe. The skeleton's resolvents are
// such boxes: a stored superset of a frame's box would have come back as
// that frame's witness before the resolution.
func (t *Tree) InsertUncovered(b dyadic.Box) {
	if CheckPreconditions {
		if sb, ok := t.ContainsSuperset(b); ok {
			panic(fmt.Sprintf("boxtree: InsertUncovered(%v) but %v is stored", b, sb))
		}
	}
	t.insert(b, subsumeBudget)
}

// All returns every stored box.
func (t *Tree) All() []dyadic.Box {
	out := make([]dyadic.Box, 0, t.size)
	return t.appendAll(rootNode, 0, out)
}

func (t *Tree) appendAll(ni uint32, level int, out []dyadic.Box) []dyadic.Box {
	if ni == nilNode || t.nodes[ni].count == 0 {
		return out
	}
	nd := t.nodes[ni]
	if nd.link != 0 {
		if level == t.n-1 {
			out = append(out, t.boxAt(nd.link))
		} else {
			out = t.appendAll(nd.link, level+1, out)
		}
	}
	out = t.appendAll(nd.children[0], level, out)
	return t.appendAll(nd.children[1], level, out)
}

// Contains reports whether the exact box b is stored.
func (t *Tree) Contains(b dyadic.Box) bool {
	cur := uint32(rootNode)
	for level := 0; level < t.n; level++ {
		iv := b[t.order[level]]
		for i := int(iv.Len) - 1; i >= 0; i-- {
			bit := iv.Bits >> uint(i) & 1
			cur = t.nodes[cur].children[bit]
			if cur == nilNode {
				return false
			}
		}
		if level == t.n-1 {
			return t.nodes[cur].link != 0
		}
		cur = t.nodes[cur].link
		if cur == nilNode {
			return false
		}
	}
	return false
}
