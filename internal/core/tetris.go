package core

import (
	"fmt"
	"slices"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// Run executes Tetris (Algorithm 2) over the given oracle and returns all
// output tuples of the box cover problem together with work statistics.
// The Mode in opts selects between the Preloaded, Reloaded and
// load-balanced variants; see the Mode documentation for the runtime
// guarantees of each. The load-balanced ones need opts.Space.
func Run(o Oracle, opts Options) (*Result, error) {
	n, err := validateOracle(o)
	if err != nil {
		return nil, err
	}
	if !opts.Mode.known() {
		return nil, fmt.Errorf("core: unknown mode %v", opts.Mode)
	}
	if err := opts.checkSpace(); err != nil {
		return nil, err
	}
	if !opts.Mode.Plain() {
		if n >= 3 {
			return runPlain(o, opts, nil, nil, nil, nil)
		}
		// The Balance map is defined for n >= 3; below that the plain
		// variants already meet the Õ(|C|^{n/2}) target (for n <= 2,
		// n-1 <= n/2+1/2 and the 2-dimensional bound Õ(|C|+Z) of Lemma
		// E.9 applies). Like every LB run, the fallback takes no base.
		opts.Mode, opts.Base = opts.Mode.Unlifted(), nil
	}
	sao, err := checkSAO(opts.SAO, n)
	if err != nil {
		return nil, err
	}
	return runWithBase(o, opts, sao, []dyadic.Box{dyadic.Universe(n)})
}

// RunBox is Tetris restricted to the given root boxes, reporting exactly
// the output tuples inside them, root by root in the order given. By the
// decomposition of Proposition 3.6 the BCP output over pairwise disjoint
// dyadic root boxes is the disjoint union of the per-root outputs, which
// is what makes sharded execution (RunShards) correct and lets a delta
// pass start at the boxes of its changed tuples. The roots are one pass's
// work list over one knowledge base: what a root's descent loads or
// resolves is certified empty or already reported everywhere, so later
// roots start from it. Overlapping roots are refused — a point in two
// would be reported twice. Only the plain modes are supported (see
// Mode.Plain).
func RunBox(o Oracle, opts Options, roots ...dyadic.Box) (*Result, error) {
	n, err := validateOracle(o)
	if err != nil {
		return nil, err
	}
	if !opts.Mode.Plain() {
		return nil, errNotPlain("RunBox", opts.Mode)
	}
	if len(roots) == 0 {
		return &Result{}, nil
	}
	seen := boxtree.New(n)
	for _, root := range roots {
		if err := root.Check(o.Depths()); err != nil {
			return nil, fmt.Errorf("core: invalid root box %v: %w", root, err)
		}
		if seen.IntersectsAny(root) {
			return nil, fmt.Errorf("core: root box %v overlaps an earlier root", root)
		}
		seen.Insert(root)
	}
	sao, err := checkSAO(opts.SAO, n)
	if err != nil {
		return nil, err
	}
	return runWithBase(o, opts, sao, roots)
}

// runWithBase dispatches a plain run through runPlain over the base it
// probes (runBase), charging a Preloaded run with that base.
func runWithBase(o Oracle, opts Options, sao []int, roots []dyadic.Box) (*Result, error) {
	base, err := opts.runBase(o, sao)
	if err != nil {
		return nil, err
	}
	defer opts.release(base)
	res, err := runPlain(o, opts, sao, roots, base, nil)
	if err != nil {
		return nil, err
	}
	base.charge(opts.Mode, &res.Stats)
	return res, nil
}

// validateOracle checks the oracle's dimension/depth report and returns
// the dimensionality.
func validateOracle(o Oracle) (int, error) {
	n := o.Dims()
	depths := o.Depths()
	if n < 1 {
		return 0, fmt.Errorf("core: oracle reports %d dimensions", n)
	}
	if len(depths) != n {
		return 0, fmt.Errorf("core: oracle reports %d depths for %d dimensions", len(depths), n)
	}
	return n, checkDepths(depths)
}

// checkDepths refuses a space of no dimensions or a depth outside
// 1..MaxDepth.
func checkDepths(depths []uint8) error {
	if len(depths) == 0 {
		return fmt.Errorf("core: the space needs at least one dimension")
	}
	for i, d := range depths {
		if d == 0 || d > dyadic.MaxDepth {
			return fmt.Errorf("core: dimension %d has invalid depth %d", i, d)
		}
	}
	return nil
}

func checkSAO(sao []int, n int) ([]int, error) {
	if sao == nil {
		sao = make([]int, n)
		for i := range sao {
			sao[i] = i
		}
		return sao, nil
	}
	if len(sao) != n {
		return nil, fmt.Errorf("core: SAO has %d entries for %d dimensions", len(sao), n)
	}
	seen := make([]bool, n)
	for _, dim := range sao {
		if dim < 0 || dim >= n || seen[dim] {
			return nil, fmt.Errorf("core: SAO %v is not a permutation of 0..%d", sao, n-1)
		}
		seen[dim] = true
	}
	return sao, nil
}

// runPlain is Algorithm 2 under every mode, enumerating the outputs inside
// the pairwise disjoint roots (the whole universe for sequential runs, one
// fragment per worker turn under RunShards, the changed tuples' boxes of a
// delta pass), entered in order as the single depth-first pass of
// TetrisSkeleton2 (footnote 13, proof of Theorem D.2): an uncovered unit
// box is settled where the descent found it instead of restarting the
// skeleton from root. Under the preloaded modes the base (lifted, the
// knowledge base) holds every gap box, so the unit is an output. Under
// the reloaded ones the oracle is probed at the point: no gap box there
// makes it an output, otherwise the gap boxes are loaded and one of them
// is the unit's witness (see loadGaps for which; DESIGN.md, "One driver",
// for why the run is the restart loop's, resolution for resolution).
//
// The LB modes are the same pass in the working space opts.Space builds
// (the Balance lift, internal/lb): sao and roots are then that space's
// identity order and universe, whatever the caller passed, and base and
// steal must be nil. The oracle keeps speaking base space; the Space
// carries points down and boxes up.
//
// base is the read-only knowledge base the pass probes after its private
// one (runBase): under Preloaded the full gap set, which the pass never
// copies — RunShards shares one across every fragment — and under
// Reloaded prior knowledge or nil. steal, when
// non-nil, is the run's work-stealing session — its run has exactly one
// root, the fragment it was handed: when an idle worker wants
// work the pass unwinds at the next settled unit, replaces the region it
// was in by the untouched right siblings along that unit's path — points
// are settled in increasing SAO-lexicographic order, so everything before
// it is done and nothing after it has been touched — donates the SAO-latest
// of them, and enters the others one by one. Nothing is walked twice, so
// nothing relies on the knowledge base to remember what was settled.
func runPlain(o Oracle, opts Options, sao []int, roots []dyadic.Box, base *PreparedBase, steal *stealSession) (*Result, error) {
	_, run, err := newPass(o, opts, sao, roots, base, steal)
	if err != nil {
		return nil, err
	}
	return run()
}

// newPass is runPlain in two steps: it returns the skeleton, loaded and
// wired to the driver that settles its units, and the function that runs
// the pass over it. Only tests take the steps apart, to run the same pass
// over the definition of a line (skeleton.walk).
func newPass(o Oracle, opts Options, sao []int, roots []dyadic.Box, base *PreparedBase, steal *stealSession) (*skeleton, func() (*Result, error), error) {
	n, depths := o.Dims(), o.Depths()
	res := &Result{}
	// Resolve the budget once and share it with the skeleton, so the
	// output claims and the recursion's resolution charges draw from the
	// same quota.
	opts.Budget = effectiveBudget(opts)
	budget := opts.Budget

	// sp is the space the pass works in, wn and wdepths its shape: the
	// oracle's own (nil), or the one opts.Space builds.
	var sp Space
	var gaps []dyadic.Box
	wn, wdepths := n, depths
	if !opts.Mode.Plain() {
		if opts.Mode == PreloadedLB {
			gaps = o.AllGaps()
			if err := checkGaps(depths, gaps); err != nil {
				return nil, nil, err
			}
			res.Stats.BoxesLoaded += int64(len(gaps))
		}
		var err error
		if sp, err = opts.Space(opts.Mode, depths, gaps); err != nil {
			return nil, nil, err
		}
		wdepths = sp.Depths()
		wn = len(wdepths)
		sao, _ = checkSAO(nil, wn)
		roots = []dyadic.Box{dyadic.Universe(wn)}
	}
	sk := newSkeleton(wn, wdepths, sao, opts, &res.Stats)
	if base != nil {
		sk.base = base.tree
	}
	for _, g := range gaps {
		sk.add(sp.Image(g))
	}
	// Only the reloaded modes probe: preloaded, every gap box is in the
	// base (lifted, its image is in the knowledge base), so an uncovered
	// unit box is an output.
	lazy := opts.Mode.Unlifted() == Reloaded

	point := make([]uint64, n)    // base tuple, reused per settled unit; OnOutput must copy
	probe := make([]uint64, n)    // the oracle's copy of point, which it may overwrite
	var last []uint64             // point once a unit has been settled
	var root dyadic.Box           // the work-list entry being run
	frame := make(dyadic.Box, wn) // loadGaps scratch

	// loadGaps inserts the oracle's answer for the uncovered unit box b
	// (at point) and returns the witness a restart from root — the entry
	// being run — would have hit first: the stored cover of the shallowest
	// frame of the current descent that the answer covers. The frames are
	// root with b's bits filled in in SAO order, so a gap box g containing
	// b — its image in the working space, where the frames live — covers
	// exactly the frames from (j, g[sao[j]].Len) down, j being the last SAO
	// position where g is longer than root. The witness is the knowledge
	// base's own copy: the oracle's slice is overwritten by its next probe.
	//
	// A gap must contain b, or the oracle broke its contract; then a plain
	// insert loads it. b's probes missed, so no stored box contains b or the
	// gap: the insert's answer alone tells a new box from a repeat, and no
	// sweep is needed (a probe returns the length-lexicographically least
	// cover, never a box inside a stored gap).
	// A space due for a rebuild ends the descent with errRelift instead.
	loadGaps := func(b dyadic.Box, gaps []dyadic.Box) (dyadic.Box, error) {
		if boxtree.CheckPreconditions {
			if sb, ok := sk.kb.ContainsSuperset(b); ok {
				panic(fmt.Sprintf("core: settling unit box %v, but %v is stored", b, sb))
			}
		}
		fresh, due := false, false
		bestJ, bestLen := wn, uint8(0)
		for _, g := range gaps {
			if err := g.Check(depths); err != nil {
				return nil, fmt.Errorf("core: oracle returned invalid gap box %v: %w", g, err)
			}
			img := g
			if sp != nil {
				img = sp.Image(g)
			}
			if !img.Contains(b) {
				return nil, fmt.Errorf("core: oracle contract violation: gap box %v does not contain probe point %v", g, point)
			}
			j := wn - 1
			for j >= 0 && img[sao[j]].Len <= root[sao[j]].Len {
				j--
			}
			l := uint8(0)
			if j >= 0 {
				l = img[sao[j]].Len
			}
			if j < bestJ || j == bestJ && l < bestLen {
				bestJ, bestLen = j, l
			}
			if sk.kb.Insert(img) {
				res.Stats.BoxesLoaded++
				fresh, sk.wrote = true, true
				if sp != nil {
					due = sp.Load(g)
				}
			}
		}
		if !fresh { // an engine bug: b's probes missed a stored box
			return nil, fmt.Errorf("core: no progress: every gap box for uncovered point %v is stored", point)
		}
		copy(frame, root)
		for j := 0; j < bestJ; j++ {
			frame[sao[j]] = b[sao[j]]
		}
		if bestJ >= 0 {
			iv := b[sao[bestJ]]
			frame[sao[bestJ]] = dyadic.Interval{Bits: iv.Bits >> (iv.Len - bestLen), Len: bestLen}
		}
		w, ok := sk.kb.ContainsSuperset(frame)
		if !ok {
			return nil, fmt.Errorf("core: internal error: loaded gap boxes do not cover frame %v", frame)
		}
		if due {
			return nil, errRelift
		}
		return w, nil
	}

	sk.settleUnit = func(b dyadic.Box) (dyadic.Box, error) {
		if err := checkContext(opts); err != nil {
			return nil, err
		}
		// Once the shared output quota is fully claimed (possibly by
		// sibling shards), further search here cannot report anything.
		if budget.outputsExhausted() {
			return nil, errStopped
		}
		if sp == nil {
			b.ValuesInto(point, wdepths)
		} else {
			sp.Decode(b, point)
		}
		last = point
		var w dyadic.Box
		var gaps []dyadic.Box
		if lazy {
			res.Stats.OracleCalls++
			copy(probe, point)
			gaps = o.GapsContaining(probe)
		}
		if len(gaps) > 0 {
			var err error
			if w, err = loadGaps(b, gaps); err != nil {
				return nil, err
			}
		} else {
			// point is an output tuple: report it and amend A with the
			// box that covers it.
			emit, stop := budget.ClaimOutput()
			if !emit {
				return nil, errStopped
			}
			res.Stats.Outputs++
			if opts.OnOutput != nil {
				if !opts.OnOutput(point) {
					stop = true
				}
			} else {
				res.Tuples = append(res.Tuples, slices.Clone(point))
			}
			// The cover is stored only if it can be hit again: a class box
			// of the working space, never a plain unit box.
			w = b
			if sp != nil {
				w = sp.Cover(point)
			}
			if sk.keeps(w, b) {
				sk.add(w)
			}
			if stop {
				return nil, errStopped
			}
		}
		if steal != nil && steal.wanted() {
			return nil, errDonate
		}
		return w, nil
	}
	// The one re-entry loop, over a work list of untouched boxes, seeded
	// with the roots: a pass that unwound to donate work goes on from the
	// right siblings of the unit it had settled last; one that unwound to
	// rebuild its working space walks back down from that space's universe
	// over the refilled knowledge base (its learned resolvents belong to the
	// discarded space).
	return sk, func() (*Result, error) {
		// Nothing outlives the run inside the knowledge base: tuples are
		// copied out and every witness is consumed within the pass.
		defer putTree(sk.kb)
		work := make([]entry, len(roots))
		for i, r := range roots {
			work[i].box = r
		}
		if steal != nil {
			work[0].path = steal.key
		}
		for len(work) > 0 {
			if steal != nil {
				work = steal.offer(work)
			}
			root = work[0].box
			_, _, err := sk.root(root)
			switch err {
			case nil:
				work = work[1:]
			case errDonate:
				work = append(work[0].after(last, sk.sao, sk.depths), work[1:]...)
			case errRelift:
				res.Stats.Rebuilds++
				// The old space's boxes go; every witness handed out
				// before becomes invalid.
				sk.kb.Reset()
				if err := sp.Rebuild(sk.add); err != nil {
					return nil, err
				}
			case errStopped:
				work = nil
			default:
				return nil, err
			}
		}
		res.Stats.KnowledgeBase = sk.kb.Len()
		return res, nil
	}, nil
}
