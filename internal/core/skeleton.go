package core

import (
	"context"
	"errors"
	"sync"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// errResolutionBudget is returned (wrapped) when Options.MaxResolutions
// is exceeded.
var errResolutionBudget = errors.New("core: resolution budget exhausted")

// skeleton is the state of Algorithm 1: the knowledge base A, the
// splitting attribute order, and instrumentation. A single skeleton is
// reused across the re-entries of tetris.go's pass (after a work donation
// or a Space rebuild), so the knowledge base persists exactly as the
// paper's global A does.
//
// # Scratch discipline
//
// Every box the skeleton manufactures — the two halves of each split and
// each resolvent — lives in a single per-skeleton interval arena
// (scratch), managed with per-frame watermarks instead of the heap:
//
//   - a frame that splits reserves 2n intervals at its watermark for the
//     split halves (a line: its witness and the unit box it moves along);
//   - the resolvent is composed above the live region, so the callback's
//     reads of w1/w2 see intact data even when a witness aliases the
//     frame's own scratch;
//   - on return the surviving witness is compacted down to the frame's
//     watermark and the arena is truncated just past it, so the arena
//     high-water mark is O(recursion depth · n) no matter how many
//     resolutions a run performs.
//
// Witnesses handed back by root are therefore valid only until the next
// call on the same skeleton; tetris.go consumes each witness inside the
// pass, and boolean.go and count.go enter once. Boxes that must outlive
// the recursion — the knowledge-base contents — are copied into the
// boxtree's own append-only slab by Insert, which is what makes the
// aliasing safe: knowledge-base boxes returned by ContainsSuperset stay
// valid even if a later subsume-delete drops them from the tree.
//
// In steady state (arena and knowledge-base slabs warmed up) the entire
// recursion allocates nothing.
type skeleton struct {
	kb *boxtree.Tree
	// base, when non-nil, is a read-only knowledge base consulted after
	// kb: the input boxes, or a Reloaded run's prior knowledge. The
	// skeleton never writes to it (whatever the run stores goes to kb),
	// which is what makes sharing it across worker goroutines safe.
	base    *boxtree.Tree
	sao     []int
	depths  []uint8
	n       int
	noCache bool
	// keepAll stores every resolvent, line witness and output cover, also
	// those equal to their frame, which no later probe of a plain pass can
	// hit (see keeps).
	keepAll bool
	// wrote records that an insert reached kb since it was last cleared.
	wrote bool

	// walk settles a frame that is thick only in the last SAO dimension
	// (line). Nil when the run counts or observes binary steps — count.go,
	// NoCache, onResolve — and so splits such frames like any other; tests
	// put the line's definition here.
	walk func(b dyadic.Box, dim int, fr frontier) (bool, dyadic.Box, error)
	// kbRoots and baseRoots are line's last-level tries, reused across lines.
	kbRoots, baseRoots []uint32

	scratch []dyadic.Interval // split/resolvent arena, watermark-managed
	front   []uint32          // the frames' frontiers in base, watermark-managed
	// The arenas' first backing stores, inside the skeleton so that a run
	// within them — the star triangle's: 192 intervals, 42 frontier entries,
	// 2 roots — grows none per execution.
	scratch0 [256]dyadic.Interval
	front0   [64]uint32
	roots0   [2][16]uint32

	budget    *Budget         // shared resolution/output quota; nil = unlimited
	ctx       context.Context // cooperative cancellation; nil = never cancelled
	stats     *Stats
	onResolve func(w1, w2, resolvent dyadic.Box, dim int)

	// settleUnit, when set, turns the skeleton into TetrisSkeleton2
	// (footnote 13): the driver makes an uncovered unit box covered on the
	// spot — an output, or gap boxes loaded around it — and returns a
	// witness containing it that outlives the callback (the unit box, the
	// class box an LB run's Space covers its tuple with, or a
	// knowledge-base box), so the enumeration is one depth-first pass.
	// An error aborts the pass.
	settleUnit func(b dyadic.Box) (dyadic.Box, error)
	// settleFrame, when set, is offered each thick frame whose probes
	// missed before it is split, and reports whether it accounted for
	// every point of it; such a frame is handed up as its own witness.
	// Only CountUncovered sets it: a frame no stored box meets counts its
	// whole volume.
	settleFrame func(b dyadic.Box) bool
}

// errStopped signals an early stop requested by the output callback or
// the output quota; errDonate an unwind to the work-stealing checkpoint;
// errRelift an unwind to rebuild an LB run's Space.
var (
	errStopped = errors.New("core: enumeration stopped by caller")
	errDonate  = errors.New("core: unwinding to donate work")
	errRelift  = errors.New("core: unwinding to rebuild the working space")
)

func newSkeleton(n int, depths []uint8, sao []int, opts Options, stats *Stats) *skeleton {
	s := &skeleton{
		kb:        getTree(n),
		sao:       sao,
		depths:    depths,
		n:         n,
		noCache:   opts.NoCache,
		budget:    effectiveBudget(opts),
		ctx:       opts.Context,
		stats:     stats,
		onResolve: opts.onResolve,
	}
	s.scratch, s.front = s.scratch0[:0], s.front0[:0]
	s.kbRoots, s.baseRoots = s.roots0[0][:0], s.roots0[1][:0]
	// Appendix C.1: the levels of the knowledge base follow the SAO.
	s.kb.SetOrder(sao)
	binary := opts.NoCache || opts.onResolve != nil
	if !binary {
		s.walk = s.line
	}
	// The storage rule. A plain pass reaches every frame once, along one
	// path, and never probes inside a frame it has finished, so only a box
	// strictly larger than its frame can be hit again. The LB modes keep
	// everything: after a Space rebuild the pass walks back down from the
	// universe.
	s.keepAll = binary || !opts.Mode.Plain() || keepEverything
	return s
}

// keepEverything sets keepAll on every skeleton. Only tests set it, to run
// a pass beside the same pass storing everything.
var keepEverything bool

// treePool recycles knowledge-base trees between runs, whatever their
// space (getTree matches on dimensionality): regrowing the slabs on every
// execution was a tenth of a prepared statement's time and nearly all of
// its garbage. Only runPlain, release, CountUncovered and
// (*PreparedBase).Count put trees back (a cover's witness may alias either
// of its trees).
var treePool sync.Pool

// maxPooledSlab is the slab capacity, in nodes or intervals, above which
// putTree lets a tree go: well over ten times what the benchmark shapes'
// trees grow to (15 k nodes, 60 k intervals), so those are always
// recycled, while one huge query does not pin its slabs (20 and 16 bytes
// an entry) for the life of the daemon.
const maxPooledSlab = 1 << 20

// getTree returns an empty n-dimensional tree in identity level order,
// recycled when one fits.
func getTree(n int) *boxtree.Tree {
	if t, _ := treePool.Get().(*boxtree.Tree); t != nil && t.Dims() == n {
		t.Reset()
		t.SetOrder(nil)
		return t
	}
	return boxtree.New(n)
}

// putTree hands a tree the run is done with back to the pool.
func putTree(t *boxtree.Tree) {
	if nodes, ivs := t.SlabCaps(); nodes <= maxPooledSlab && ivs <= maxPooledSlab {
		treePool.Put(t)
	}
}

// add inserts a box into the knowledge base unless a stored box contains
// it, sweeping out the stored boxes it contains.
func (s *skeleton) add(b dyadic.Box) {
	s.kb.InsertSubsuming(b)
	s.wrote = true
}

// addResolvent caches the resolvent w of the frame with box b ⊆ w (line
// 19) without a cover probe. No stored box contains w: it would contain
// b, b's own probe missed, and every box stored since that contains b — a
// resolvent or a settled unit's witness from one of b's halves — came back
// up as a witness and ended the frame before it resolved.
func (s *skeleton) addResolvent(w dyadic.Box) {
	s.kb.InsertUncovered(w)
	s.wrote = true
}

// keeps reports whether w, found for the frame b ⊆ w — its resolvent, a
// line's witness, or an output's cover — goes into the knowledge base: only
// when it is strictly larger than b, unless keepAll. A box equal to its
// frame can contain only frames inside it, and the pass never probes inside
// a finished frame again.
func (s *skeleton) keeps(w, b dyadic.Box) bool {
	if s.keepAll {
		return true
	}
	for i, iv := range w {
		if iv.Len < b[i].Len {
			return true
		}
	}
	return false
}

// frontier is a frame's position in the shared base, held in the arena
// front: front[roots:rootsEnd] are the roots of the level-lvl tries that
// the frame's components above level lvl reach, in probe order, and the
// entries from nodes to the top of the arena, as it stands when the frame
// is entered, are the nodes under them, in the same order, that spell the
// frame's component at lvl. An entry frame's lvl is 0, its one root the
// base's; below it, lvl is a frame's split level: a child frame is its
// parent one bit longer there, and steps the parent's nodes by that bit
// (child) instead of walking the base from its root; a frame whose split
// moves to a later level walks on from the carried roots (moveTo).
//
// The arena is watermark-managed like scratch: a frame's nodes sit on top
// of it when the frame is entered, a frame that moves on pushes its new
// roots and nodes above them, and each child's nodes go just above its
// parent's, over the previous child's. A run without a base keeps the
// zero frontier and touches nothing.
type frontier struct{ lvl, roots, rootsEnd, nodes int }

// root invokes run on fresh arenas. Drivers must enter through root so
// the arenas do not grow across invocations. The entry frame's frontier is
// the base's root and, under it, the node spelling b's first SAO
// component.
func (s *skeleton) root(b dyadic.Box) (bool, dyadic.Box, error) {
	s.scratch = s.scratch[:0]
	var fr frontier
	if s.base != nil {
		s.front = append(s.front[:0], s.base.Root())
		s.front = s.base.Spell(s.front, s.front[:1], b[s.sao[0]])
		fr = frontier{rootsEnd: 1, nodes: 1}
	}
	return s.run(b, -1, fr)
}

// child pushes the frontier of the bit half of a frame at fr (split at
// fr.lvl), whose nodes end at top: fr's nodes stepped by the bit, just
// above them.
func (s *skeleton) child(fr frontier, top int, bit uint64) frontier {
	if s.base == nil {
		return fr
	}
	s.front = s.base.Step(s.front[:top], s.front[fr.nodes:top], bit)
	return frontier{lvl: fr.lvl, roots: fr.roots, rootsEnd: fr.rootsEnd, nodes: top}
}

// moveTo pushes the frontier of the frame b at fr whose split moves on to
// dim, at a later level: the roots there, walked on from fr's over b's
// components in between (units, as the SAO splits them first), and the
// nodes that spell b[dim] under them.
func (s *skeleton) moveTo(fr frontier, b dyadic.Box, dim int) frontier {
	lvl := fr.lvl + 1
	for s.sao[lvl] != dim {
		lvl++
	}
	roots := len(s.front)
	s.front = s.base.RootsAt(s.front, s.front[fr.roots:fr.rootsEnd], fr.lvl, b, lvl)
	nodes := len(s.front)
	s.front = s.base.Spell(s.front, s.front[roots:nodes], b[dim])
	return frontier{lvl: lvl, roots: roots, rootsEnd: nodes, nodes: nodes}
}

// settle compacts the witness into the frame's watermark slot and
// truncates the arena just past it. The frame is guaranteed to have
// reserved at least n intervals at mark (the split halves), and copy is a
// memmove, so this is safe even when w already occupies [mark, mark+n).
func (s *skeleton) settle(mark int, w dyadic.Box) dyadic.Box {
	dst := dyadic.Box(s.scratch[mark : mark+s.n])
	copy(dst, w)
	s.scratch = s.scratch[:mark+s.n]
	return dst
}

// call counts one skeleton call — a frame probed, or a position of a line
// — and polls for cancellation: recursions have no natural check point
// (Covers runs one giant root call, and a pass may go a long way between
// settled units; a Reloaded line alone can be 2^d probes long). The counter
// gate keeps the hot path at one branch per call and one channel poll
// every 1024 calls.
func (s *skeleton) call() error {
	s.stats.SkeletonCalls++
	if s.ctx != nil && s.stats.SkeletonCalls&1023 == 0 {
		select {
		case <-s.ctx.Done():
			return s.ctx.Err()
		default:
		}
	}
	return nil
}

// run is TetrisSkeleton (Algorithm 1). Given a target box b it returns
// (true, w) where w ⊇ b is covered by the union of the knowledge base, or
// (false, p) where p ∈ b is a unit box not covered by any stored box.
// split is the dimension the parent frame split on to produce b, -1 for
// the root of a descent; fr is b's frontier in the base.
func (s *skeleton) run(b dyadic.Box, split int, fr frontier) (bool, dyadic.Box, error) {
	if err := s.call(); err != nil {
		return false, nil, err
	}
	// Line 1: a stored box covering b is a ready-made witness.
	if a, ok := s.probe(b, split, fr); ok {
		s.stats.CoverHits++
		return true, a, nil
	}
	// Line 3: an uncovered unit box witnesses non-coverage — or, for a
	// driver that settles units in place, is made covered on the spot.
	dim := b.FirstThick(s.sao, s.depths)
	if dim == -1 {
		if s.settleUnit == nil {
			return false, b, nil
		}
		w, err := s.settleUnit(b)
		return err == nil, w, err
	}
	if s.walk != nil && dim == s.sao[s.n-1] {
		return s.walk(b, dim, fr)
	}
	if s.settleFrame != nil && s.settleFrame(b) {
		return true, b, nil
	}
	// Line 6: Split-First-Thick-Dimension. The two halves are carved from
	// the arena at this frame's watermark; append copies b, so this is
	// safe even though b itself usually lives lower in the same arena.
	s.stats.Splits++
	mark := len(s.scratch)
	s.scratch = append(s.scratch, b...)
	s.scratch = append(s.scratch, b...)
	b1 := dyadic.Box(s.scratch[mark : mark+s.n])
	b2 := dyadic.Box(s.scratch[mark+s.n : mark+2*s.n])
	b1[dim] = b[dim].Child(0)
	b2[dim] = b[dim].Child(1)
	if s.base != nil && dim != s.sao[fr.lvl] {
		fr = s.moveTo(fr, b, dim)
	}
	ftop := len(s.front)
	v1, w1, err := s.run(b1, dim, s.child(fr, ftop, 0))
	if err != nil {
		return false, nil, err
	}
	if !v1 {
		return false, s.settle(mark, w1), nil
	}
	if w1.Contains(b) {
		return true, s.settle(mark, w1), nil
	}
	v2, w2, err := s.run(b2, dim, s.child(fr, ftop, 1))
	if err != nil {
		return false, nil, err
	}
	if !v2 {
		return false, s.settle(mark, w2), nil
	}
	if w2.Contains(b) {
		return true, s.settle(mark, w2), nil
	}
	// Line 18: geometric resolution of the two half-witnesses. By Lemma
	// C.1 this is always an ordered resolution on dim. The resolvent is
	// composed above the live region so w1 and w2 stay intact for the
	// callback.
	top := len(s.scratch)
	s.scratch = append(s.scratch, b...)
	w := dyadic.Box(s.scratch[top : top+s.n])
	resolveOrderedInto(w, w1, w2, dim)
	s.stats.Resolutions++
	if s.onResolve != nil {
		s.onResolve(w1, w2, w, dim)
	}
	if !s.budget.AddResolution() {
		return false, nil, errResolutionBudget
	}
	// Line 19: cache the resolvent (skipped in Tree Ordered mode) if it
	// can be hit again.
	if !s.noCache && s.keeps(w, b) {
		s.addResolvent(w)
	}
	return true, s.settle(mark, w), nil
}

// probe is line 1. The private kb (learned resolvents, outputs, lazily
// loaded gaps) is probed first — unless it is empty, as a Preloaded run's
// is until it keeps a box — then the read-only base if the run has one. A
// child frame (split != -1) only asks for covers whose component in
// the split dimension is exactly b's: a shorter one would contain the
// parent's box, which no stored box does — the parent's probes missed, and
// every box stored since that contains it was handed up and ended the
// parent frame (see addResolvent; for gap boxes loaded in place that is the
// shallowest-frame rule of tetris.go). The kb answers from its root; the
// base, which no run writes to, from the frame's frontier.
func (s *skeleton) probe(b dyadic.Box, split int, fr frontier) (dyadic.Box, bool) {
	if s.kb.Len() > 0 {
		var a dyadic.Box
		var ok bool
		if split == -1 {
			a, ok = s.kb.ContainsSuperset(b)
		} else {
			a, ok = s.kb.ContainsSupersetExactAt(b, split)
		}
		if ok {
			return a, true
		}
	}
	switch {
	case s.base == nil:
		return nil, false
	case split == -1:
		return s.base.ContainsSuperset(b)
	}
	return s.base.SupersetBelow(s.front[fr.nodes:], fr.lvl, b)
}

// line settles a frame b whose probe missed and that is thick only in
// dim, the last SAO dimension, without bisecting it: every finer frame
// below b is a segment of the one line b[dim], so the stored boxes that
// can cover any of them sit in the last-level tries under the prefix
// combinations of b's other components — collected once per tree — and a
// left-to-right walk over b[dim] finds at each position p what the probes
// of a descent to the unit box at p would: the first stored box containing
// it in probe order (kb, then base), or none, in which case the unit is
// uncovered and settled as ever. The walk jumps past each cover's segment;
// the k covers it used resolve on dim, k-1 ordered resolutions (Lemma C.1)
// charged one by one, into ⟨the meet of their other components, b[dim]⟩,
// which is handed up as the frame's witness and cached if it is larger than
// b (keeps). A cover containing b is handed up as is instead, at once —
// only a settled unit's witness can be one: b's probe missed, and the
// shallowest-frame rule brings up whatever was loaded since that contains
// b — so no stored box contains the cached witness, and the parent's exact
// probes stay complete.
func (s *skeleton) line(b dyadic.Box, dim int, fr frontier) (bool, dyadic.Box, error) {
	s.stats.Splits++
	s.stats.Lines++
	mark := len(s.scratch)
	s.scratch = dyadic.AppendLambdas(s.scratch, s.n)
	s.scratch = append(s.scratch, b...)
	w := dyadic.Box(s.scratch[mark : mark+s.n])       // the meet of the covers so far
	u := dyadic.Box(s.scratch[mark+s.n : mark+2*s.n]) // the unit box at p
	s.kbRoots = s.kb.LastRoots(s.kbRoots[:0], b)
	if s.base != nil {
		s.baseRoots = s.base.RootsAt(s.baseRoots[:0], s.front[fr.roots:fr.rootsEnd], fr.lvl, b, s.n-1)
	}
	s.wrote = false
	d, covers := s.depths[dim], 0
	for p, end := b[dim].Lo(d), b[dim].Hi(d); p <= end; {
		if err := s.call(); err != nil {
			return false, nil, err
		}
		u[dim] = dyadic.Interval{Bits: p, Len: d}
		c, ok := s.coverAt(u)
		if ok {
			s.stats.CoverHits++
		} else {
			if s.settleUnit == nil {
				return false, s.settle(mark, u), nil
			}
			var err error
			if c, err = s.settleUnit(u); err != nil {
				return false, nil, err
			}
		}
		// c contains u, which is b everywhere but in dim.
		if c[dim].Len <= b[dim].Len {
			return true, s.settle(mark, c), nil
		}
		// The line goes on. Loaded gaps or a stored cover may have created a
		// trie in kb, or subsumed one away.
		if s.wrote {
			s.wrote = false
			s.kbRoots = s.kb.LastRoots(s.kbRoots[:0], b)
		}
		if covers++; covers > 1 {
			s.stats.Resolutions++
			if !s.budget.AddResolution() {
				return false, nil, errResolutionBudget
			}
		}
		for i, iv := range c {
			if iv.Len > w[i].Len {
				w[i] = iv
			}
		}
		p = c[dim].Hi(d) + 1
	}
	w[dim] = b[dim]
	if s.keeps(w, b) {
		s.addResolvent(w)
	}
	return true, s.settle(mark, w), nil
}

// coverAt is line 1 for the unit box u of the line being walked, answered
// from the collected last-level tries.
func (s *skeleton) coverAt(u dyadic.Box) (dyadic.Box, bool) {
	for _, r := range s.kbRoots {
		if c, ok := s.kb.SupersetUnder(r, u); ok {
			return c, true
		}
	}
	for _, r := range s.baseRoots {
		if c, ok := s.base.SupersetUnder(r, u); ok {
			return c, true
		}
	}
	return nil, false
}
