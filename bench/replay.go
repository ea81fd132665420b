package main

import (
	"fmt"
	"os"
	"time"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/segment"
	"tetrisjoin/internal/wal"
)

// Rung 4: the bottom layers replayed on the instance the rungs above
// ran on — the plan's gap boxes, its first atom's index and relation,
// and the op's output points.

// keep defeats dead-code elimination of the timed micro loops.
var keep int

// perCall times fn over enough rounds to reach at least minCalls calls
// and returns nanoseconds per call, as the median of five such batches.
func perCall(calls, minCalls int, fn func()) float64 {
	if calls == 0 {
		return 0
	}
	rounds := (minCalls + calls - 1) / calls
	batches := make([]float64, 5)
	for b := range batches {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			fn()
		}
		batches[b] = float64(time.Since(start)) / float64(rounds*calls)
	}
	return medianFloat(batches)
}

// medianRun times fn reps times and returns the median in microseconds.
func medianRun(reps int, fn func()) float64 {
	took := make([]time.Duration, reps)
	for i := range took {
		start := time.Now()
		fn()
		took[i] = time.Since(start)
	}
	return medianUs(took)
}

func (l *ladder) replays(plan *join.Plan, outs [][]uint64) error {
	q := plan.Query()
	depths := q.Depths()
	n := len(depths)
	gaps := plan.AllGaps()
	r := rng(uint64(l.rep.Seed) + 0x5eed)

	// boxtree: the knowledge base built the way a Preloaded base is.
	var tree *boxtree.Tree
	build := func() {
		tree = boxtree.New(n)
		for _, g := range gaps {
			tree.InsertSubsuming(g)
		}
	}
	if len(gaps) > 0 {
		l.set("boxtree.insert_subsuming_ns", medianRun(9, build)*1e3/float64(len(gaps)))
		l.set("boxtree.size", float64(tree.Len()))
		l.set("boxtree.subsumed_ratio", 1-float64(tree.Len())/float64(len(gaps)))
	} else {
		build()
	}
	// Probes: every gap box is covered (hits); output points are not
	// (misses). Seeded random points land on whichever side they fall.
	hits := append([]dyadic.Box(nil), gaps...)
	var misses []dyadic.Box
	point := make([]uint64, n)
	for i := 0; i < len(outs)+256; i++ {
		if i < len(outs) {
			copy(point, outs[i])
		} else {
			for d := range point {
				point[d] = r.next() & (1<<depths[d] - 1)
			}
		}
		unit := dyadic.Point(point, depths)
		if _, ok := tree.ContainsSuperset(unit); ok {
			hits = append(hits, unit)
		} else {
			misses = append(misses, unit)
		}
	}
	probe := func(boxes []dyadic.Box) func() {
		return func() {
			for _, b := range boxes {
				if _, ok := tree.ContainsSuperset(b); ok {
					keep++
				}
			}
		}
	}
	l.set("boxtree.superset_hit_ns", perCall(len(hits), 200_000, probe(hits)))
	l.set("boxtree.superset_miss_ns", perCall(len(misses), 200_000, probe(misses)))

	// dyadic: box algebra over consecutive gap boxes.
	if len(gaps) > 1 {
		sao := plan.SAO()
		l.set("dyadic.meet_ns", perCall(len(gaps)-1, 1_000_000, func() {
			for i := 1; i < len(gaps); i++ {
				if _, ok := gaps[i-1].Meet(gaps[i]); ok {
					keep++
				}
			}
		}))
		l.set("dyadic.contains_ns", perCall(len(gaps)-1, 1_000_000, func() {
			for i := 1; i < len(gaps); i++ {
				if gaps[i-1].Contains(gaps[i]) {
					keep++
				}
			}
		}))
		var thick []dyadic.Box
		var dims []int
		for _, g := range gaps {
			if d := g.FirstThick(sao, depths); d >= 0 {
				thick, dims = append(thick, g), append(dims, d)
			}
		}
		l.set("dyadic.split_ns", perCall(len(thick), 1_000_000, func() {
			for i, g := range thick {
				lo, _ := g.SplitAt(dims[i])
				keep += len(lo)
			}
		}))
	}

	// index, relation: the first atom's access path and snapshot.
	atom := q.Atoms()[0]
	rel := atom.Relation
	cursor := plan.Indices()[0].NewCursor()
	var points [][]uint64
	for _, t := range outs {
		p := make([]uint64, len(atom.Vars))
		for i, v := range atom.Vars {
			p[i] = t[q.VarIndex(v)]
		}
		points = append(points, p)
	}
	for i := 0; i < 1024; i++ {
		p := make([]uint64, rel.Arity())
		for d := range p {
			p[d] = r.next() & (1<<rel.Depths()[d] - 1)
		}
		points = append(points, p)
	}
	found := 0
	for _, p := range points {
		found += len(cursor.GapsAt(p))
	}
	l.set("index.gaps_per_probe", float64(found)/float64(len(points)))
	l.set("index.gaps_at_ns", perCall(len(points), 200_000, func() {
		for _, p := range points {
			keep += len(cursor.GapsAt(p))
		}
	}))

	spec := index.BTreeSpec(join.SAOIndexOrder(q, atom, plan.SAO())...)
	var buildErr error
	l.set("index.build_us", medianRun(5, func() {
		if _, err := spec.Build(rel); err != nil {
			buildErr = err
		}
	}))
	if buildErr != nil {
		return buildErr
	}
	l.set("relation.stats_us", medianRun(5, func() {
		keep += int(rel.Clone("stats").Stats().Fingerprint() & 1)
	}))

	// A tuple the relation does not hold, for the copy-on-write and
	// delta-layer paths a write takes.
	fresh := make(relation.Tuple, rel.Arity())
	for {
		for d := range fresh {
			fresh[d] = r.next() & (1<<rel.Depths()[d] - 1)
		}
		if !rel.Contains(fresh...) {
			break
		}
	}
	var next *relation.Relation
	var werr error
	l.set("relation.with_inserted_us", medianRun(9, func() {
		if next, werr = rel.WithInserted(fresh); werr == nil {
			next.Tuples()
		}
	}))
	if werr != nil {
		return werr
	}
	l.set("relation.with_deleted_us", medianRun(9, func() {
		if _, err := next.WithDeleted(fresh); err != nil {
			werr = err
		}
	}))
	set := index.NewSet(rel, nil)
	if err := set.Ensure(spec); err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	delta, ok := next.DeltaSince(rel.Version())
	if !ok {
		return fmt.Errorf("replay: no delta from version %d of %s to its successor", rel.Version(), rel.Name())
	}
	l.set("index.derive_us", medianRun(9, func() {
		if _, _, _, err := set.Derive(next, delta); err != nil {
			werr = err
		}
	}))
	if werr != nil {
		return werr
	}

	if l.w.durable {
		// segment: the relation frozen the way a checkpoint freezes it.
		words := rel.AppendWords(nil)
		var enc []byte
		l.set("segment.encode_us", medianRun(9, func() {
			var w segment.Writer
			w.AddSection(1, words)
			enc = w.Encode()
		}))
		l.set("segment.load_verify_us", medianRun(9, func() {
			f, err := segment.Load(enc)
			if err == nil {
				err = f.Verify(0)
			}
			if err != nil {
				werr = err
			}
		}))
		l.set("segment.bytes_per_tuple", float64(len(enc))/float64(rel.Len()))
	}
	return werr
}

// walReplay times the log's append+sync pair on its own, with a payload
// the size of a one-tuple append record, in a directory next to the
// run's data directory (the same disk).
func (l *ladder) walReplay() error {
	dir, err := os.MkdirTemp(l.cfg.scratch, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		return err
	}
	lg, err := wal.OpenLog(fsys, "bench.log", 0, 0)
	if err != nil {
		return err
	}
	defer lg.Close()
	payload := []byte(`{"op":"append","name":"W0R2","tuples":[[1234,2345]]}`)
	for i := 0; i < 64; i++ {
		start := time.Now()
		if _, _, err := lg.Append(payload); err != nil {
			return err
		}
		if err := lg.Sync(); err != nil {
			return err
		}
		l.timing("wal.append_sync_us", time.Since(start))
	}
	return nil
}
