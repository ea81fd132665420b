package experiments

import (
	"math"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/klee"
	"tetrisjoin/internal/lb"
	"tetrisjoin/internal/workload"
)

// runBCP runs Tetris on a raw box set.
func runBCP(inst workload.BCP, opts core.Options) core.Stats {
	o, err := core.NewBoxOracle(inst.Depths, inst.Boxes)
	if err != nil {
		panic(err)
	}
	res, err := core.Run(o, opts)
	if err != nil {
		panic(err)
	}
	return res.Stats
}

// Fig2TreeOrderedAGM reproduces Figure 2's "Õ(AGM): any" upper bound for
// Tree Ordered Geometric Resolution (Thm 5.1): Tetris with caching
// disabled still meets the AGM shape on the dense triangle.
func Fig2TreeOrderedAGM() Experiment {
	e := Experiment{
		ID:       "F2-U1",
		Artifact: "Figure 2, Tree Ordered upper bound Õ(AGM) (Thm 5.1)",
		Claim:    "no-cache Tetris (Cor D.3's TetrisSkeleton2, the engine's one driver) stays within the AGM shape",
		Columns:  []string{"m", "N", "AGM=N^1.5", "resolutions (no cache)"},
	}
	// Theorem 5.1 / Corollary D.3 are stated for TetrisSkeleton2 (footnote
	// 13): outputs reported inside the skeleton, so each output does not
	// restart the search — which is how every plain run enumerates.
	var xs, ys []float64
	for _, m := range []uint64{8, 12, 16, 24, 32} {
		q := workload.TriangleDense(m, 10)
		st := run(q, join.Options{Mode: core.Preloaded, NoCache: true})
		n := float64(m * m)
		xs = append(xs, n)
		ys = append(ys, float64(st.Resolutions))
		e.Rows = append(e.Rows, []string{f("%d", m), f("%.0f", n),
			f("%.0f", math.Pow(n, 1.5)), f("%d", st.Resolutions)})
	}
	slope := FitExponent(xs, ys)
	e.Findings = append(e.Findings,
		f("no-cache resolutions vs N fitted exponent %.2f (paper: ≤ 1.5)", slope))
	return e
}

// Fig2TreeOrderedLower reproduces Figure 2's Ω(N^{n/2}) lower bound for
// Tree Ordered resolution on treewidth-1 queries (Thm 5.2): on the
// cache-reuse family, caching pays ~N while no-cache pays ~N^{3/2}.
// (The paper's own construction is in its truncated Appendix G; this
// family realizes the same mechanism — an A-independent sub-proof that
// caching derives once and tree resolution re-derives per subtree.)
func Fig2TreeOrderedLower() Experiment {
	e := Experiment{
		ID:       "F2-L1",
		Artifact: "Figure 2, Tree Ordered lower bound Ω(N^{n/2}) for tw 1 (Thm 5.2)",
		Claim:    "separation: cached ~N vs tree-ordered ~N^{3/2} on the cache-reuse family",
		Columns:  []string{"m", "N", "cached res.", "no-cache res.", "ratio"},
	}
	// Preloaded on both arms: the output is empty, so a single skeleton
	// pass measures the pure resolution-proof size with no outer-loop
	// restarts confounding the count.
	var xs, ysC, ysN []float64
	for _, m := range []uint64{4, 8, 16, 32} {
		q := workload.TreeOrderedHard(m)
		opts := join.Options{SAOVars: []string{"A", "B", "C"}, Mode: core.Preloaded}
		cached := run(q, opts)
		optsN := opts
		optsN.NoCache = true
		uncached := run(q, optsN)
		n := float64(3 * m * m) // |S| dominates
		xs = append(xs, n)
		ysC = append(ysC, float64(cached.Resolutions))
		ysN = append(ysN, float64(uncached.Resolutions))
		e.Rows = append(e.Rows, []string{f("%d", m), f("%.0f", n),
			f("%d", cached.Resolutions), f("%d", uncached.Resolutions),
			f("%.1f", float64(uncached.Resolutions)/float64(cached.Resolutions))})
	}
	sc := FitExponent(xs, ysC)
	sn := FitExponent(xs, ysN)
	e.Findings = append(e.Findings,
		f("cached exponent %.2f (paper: ~1 via Thm 4.7), no-cache exponent %.2f (paper: ~1.5 = n/2)", sc, sn))
	return e
}

// Fig2OrderedLower reproduces Figure 2's Ω(|C|^{n-1}) lower bound for
// Ordered Geometric Resolution (Thm 5.4) on Example F.1: every SAO of
// plain Tetris pays ~|C|² (n=3).
func Fig2OrderedLower() Experiment {
	e := Experiment{
		ID:       "F2-L2",
		Artifact: "Figure 2, Ordered lower bound Ω(|C|^{n-1}) (Thm 5.4, Example F.1)",
		Claim:    "plain Tetris needs ~|C|² resolutions on Example F.1 under its best SAO",
		Columns:  []string{"d", "|C|", "best-SAO resolutions", "best/|C|²"},
	}
	saos := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	var xs, ys []float64
	for _, d := range []uint8{4, 5, 6, 7, 8} {
		inst := workload.ExampleF1(d)
		best := int64(math.MaxInt64)
		for _, sao := range saos {
			st := runBCP(inst, core.Options{Mode: core.Preloaded, SAO: sao})
			if st.Resolutions < best {
				best = st.Resolutions
			}
		}
		c := float64(len(inst.Boxes))
		xs = append(xs, c)
		ys = append(ys, float64(best))
		e.Rows = append(e.Rows, []string{f("%d", d), f("%.0f", c),
			f("%d", best), f("%.3f", float64(best)/(c*c))})
	}
	slope := FitExponent(xs, ys)
	e.Findings = append(e.Findings,
		f("best-SAO resolutions vs |C| fitted exponent %.2f (paper: 2 = n-1)", slope))
	return e
}

// Fig2LBUpper reproduces Figure 2's Õ(|C|^{n/2}+Z) upper bound
// (Thm 4.11): the Balance-lifted Tetris beats the ordered lower bound on
// the same Example F.1 family.
func Fig2LBUpper() Experiment {
	e := Experiment{
		ID:       "F2-U4",
		Artifact: "Figure 2, Geometric upper bound Õ(|C|^{n/2}+Z) (Thm 4.11)",
		Claim:    "Tetris-LB's exponent on Example F.1 is below Ordered's (≈ n/2 vs n-1)",
		Columns:  []string{"d", "|C|", "LB resolutions", "plain-best resolutions"},
	}
	saos := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	var xs, ysLB []float64
	for _, d := range []uint8{4, 5, 6, 7} {
		inst := workload.ExampleF1(d)
		lifted := runBCP(inst, core.Options{Mode: core.PreloadedLB, Space: lb.New})
		best := int64(math.MaxInt64)
		for _, sao := range saos {
			st := runBCP(inst, core.Options{Mode: core.Preloaded, SAO: sao})
			if st.Resolutions < best {
				best = st.Resolutions
			}
		}
		c := float64(len(inst.Boxes))
		xs = append(xs, c)
		ysLB = append(ysLB, float64(lifted.Resolutions))
		e.Rows = append(e.Rows, []string{f("%d", d), f("%.0f", c),
			f("%d", lifted.Resolutions), f("%d", best)})
	}
	slope := FitExponent(xs, ysLB)
	e.Findings = append(e.Findings,
		f("LB resolutions vs |C| fitted exponent %.2f (paper: ≤ 1.5 = n/2; ordered needs 2)", slope),
		"Thm 5.5 states no Geometric Resolution algorithm beats |C|^{n/2}: the measured exponent staying ≈ n/2 on this family is consistent with that tightness")
	return e
}

// KleeBoolean reproduces Corollary F.8: Boolean Klee's measure via
// Tetris-LB on random box sets, with work well below the naive m·2^{dn}
// sweep and the answer cross-checked against exact measure.
func KleeBoolean() Experiment {
	e := Experiment{
		ID:       "KLEE",
		Artifact: "Corollary F.8: Klee's measure problem (Boolean semiring)",
		Claim:    "CoversSpace decides coverage in Õ(|B|^{n/2})",
		Columns:  []string{"family", "boxes", "covered", "resolutions"},
	}
	// Covering instances (random dyadic partitions) exercise the full
	// merge; dropping one box flips the answer with little work.
	var xs, ys []float64
	for i, m := range []int{32, 64, 128, 256, 512} {
		inst := workload.RandomDyadicPartition(3, m, 8, int64(1000+i))
		rep, err := klee.CoversSpace(inst.Depths, inst.Boxes)
		if err != nil {
			panic(err)
		}
		if !rep.Covered {
			panic("partition must cover the space")
		}
		xs = append(xs, float64(len(inst.Boxes)))
		ys = append(ys, float64(rep.Stats.Resolutions)+1)
		e.Rows = append(e.Rows, []string{"partition", f("%d", len(inst.Boxes)),
			f("%v", rep.Covered), f("%d", rep.Stats.Resolutions)})

		hole, err := klee.CoversSpace(inst.Depths, inst.Boxes[1:])
		if err != nil {
			panic(err)
		}
		e.Rows = append(e.Rows, []string{"minus-one", f("%d", len(inst.Boxes)-1),
			f("%v", hole.Covered), f("%d", hole.Stats.Resolutions)})
	}
	slope := FitExponent(xs, ys)
	e.Findings = append(e.Findings,
		f("covering-instance resolutions vs |B| fitted exponent %.2f (paper: ≤ 1.5 = n/2)", slope))
	return e
}

// CertIndexPower reproduces Appendix B.2's point (Prop B.6, Figure 13):
// the certificate — and hence Tetris-Reloaded's work — depends on the
// available indices. The GAO-sensitive family has an Õ(1) certificate
// under a (B,A)-ordered index but Ω(N) under (A,B).
func CertIndexPower() Experiment {
	e := Experiment{
		ID:       "CERT/GAO",
		Artifact: "Appendix B.2, Figure 13: GAO-dependence of certificates",
		Claim:    "boxes loaded: Ω(N) with the (A,B)-ordered index on S, Õ(1) with (B,A)",
		Columns:  []string{"m", "N", "boxes loaded (A,B)", "boxes loaded (B,A)"},
	}
	for _, m := range []uint64{8, 16, 32, 64} {
		d := uint8(8)
		makeQ := func(order ...string) *join.Query {
			q := workload.GAOSensitive(m, d)
			atoms := q.Atoms()
			s := atoms[1].Relation
			atoms[1].Indexes = []index.Index{index.MustSorted(s, order...)}
			return join.MustNewQuery(atoms...)
		}
		ab := run(makeQ("X", "Y"), join.Options{SAOVars: []string{"A", "B"}})
		ba := run(makeQ("Y", "X"), join.Options{SAOVars: []string{"B", "A"}})
		e.Rows = append(e.Rows, []string{f("%d", m), f("%d", 1<<d),
			f("%d", ab.BoxesLoaded), f("%d", ba.BoxesLoaded)})
	}
	e.Findings = append(e.Findings,
		"the (A,B)-indexed runs load Θ(m) boxes; the (B,A)-indexed runs load Õ(1) — the certificate is a property of the index, not just the data")
	return e
}

// CertIndexFamilies reproduces Example B.7/B.8 (Figure 14): on the
// diagonal bowtie, B-tree indices in *both* attribute orders force Ω(N)
// loaded boxes while a dyadic index needs O(d) — multidimensional gap
// boxes are strictly more powerful than any B-tree's.
func CertIndexFamilies() Experiment {
	e := Experiment{
		ID:       "CERT/DYADIC",
		Artifact: "Examples B.7/B.8, Figure 14: B-trees vs dyadic indices",
		Claim:    "boxes loaded: Ω(N) with B-trees in both orders, O(d) with the dyadic index",
		Columns:  []string{"depth", "N", "boxes (btree both orders)", "boxes (dyadic)"},
	}
	for _, d := range []uint8{5, 7, 9, 11} {
		withIndexes := func(mk func(q *join.Query) []index.Index) core.Stats {
			q := workload.DiagonalBowtie(d)
			atoms := q.Atoms()
			atoms[1].Indexes = mk(q)
			return run(join.MustNewQuery(atoms...), join.Options{})
		}
		btree := withIndexes(func(q *join.Query) []index.Index {
			s := q.Atoms()[1].Relation
			u, err := index.NewUnion(index.MustSorted(s, "X", "Y"), index.MustSorted(s, "Y", "X"))
			if err != nil {
				panic(err)
			}
			return []index.Index{u}
		})
		dy := withIndexes(func(q *join.Query) []index.Index {
			return []index.Index{index.NewDyadic(q.Atoms()[1].Relation)}
		})
		e.Rows = append(e.Rows, []string{f("%d", d), f("%d", 1<<d),
			f("%d", btree.BoxesLoaded), f("%d", dy.BoxesLoaded)})
	}
	e.Findings = append(e.Findings,
		"B-tree loads grow linearly with N while dyadic loads stay at a handful — the multidimensional gaps of Example B.8 that B-trees cannot return")
	return e
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		Table1Acyclic(),
		Table1AGM(),
		Table1FHTW(),
		Table1TreewidthW(),
		Table1Treewidth1(),
		Fig2TreeOrderedAGM(),
		Fig2TreeOrderedLower(),
		Fig2OrderedLower(),
		Fig2LBUpper(),
		KleeBoolean(),
		CertIndexPower(),
		CertIndexFamilies(),
	}
}
