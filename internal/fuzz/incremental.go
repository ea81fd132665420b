package fuzz

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// incrementalOps is the script length of the IncrementalMaintained
// configuration: enough steps to compose appends, deletes, duplicates
// and absent-deletes into every interesting span shape (pure spans →
// patched, folded mixed spans → recompute fallback) without dominating
// the per-case check budget.
const incrementalOps = 6

// checkIncrementalMaintained is the IncrementalMaintained engine
// configuration: the case's relations are ingested into a fresh
// catalog, the query is maintained, and a deterministic random
// append/delete script derived from the case runs against it. After
// every operation the maintained result must be byte-identical — same
// tuples, same enumeration order — to a from-scratch recompute over the
// catalog's current versions under the same SAO, and set-identical to
// the Generic Join baseline. Patched refreshes must also respect the
// delta cost bound: index builds no more than the changed relation's
// atom count.
func (ck *Checker) checkIncrementalMaintained(c Case) *Discrepancy {
	q, err := c.BuildQuery()
	if err != nil {
		return &Discrepancy{Config: "incremental-maintained", Detail: fmt.Sprintf("rebuild: %v", err)}
	}
	cat := catalog.New()
	ingested := map[string]*relation.Relation{}
	var names []string
	var atoms []string
	for _, a := range q.Atoms() {
		if _, ok := ingested[a.Relation.Name()]; !ok {
			ingested[a.Relation.Name()] = a.Relation
			names = append(names, a.Relation.Name())
			if _, err := cat.Ingest(a.Relation); err != nil {
				return &Discrepancy{Config: "incremental-maintained", Detail: fmt.Sprintf("ingest %s: %v", a.Relation.Name(), err)}
			}
		}
		atoms = append(atoms, a.Relation.Name()+"("+strings.Join(a.Vars, ",")+")")
	}
	text := strings.Join(atoms, ", ")

	m, err := cat.Maintain(text, join.Options{Mode: core.Preloaded})
	if err != nil {
		return &Discrepancy{Config: "incremental-maintained", Detail: fmt.Sprintf("maintain: %v", err)}
	}

	// The script is a pure function of the case bytes, so corpus replay
	// and campaign reruns exercise identical mutation sequences.
	h := fnv.New64a()
	h.Write(c.Marshal())
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	atomsOf := map[string]int{}
	for _, a := range q.Atoms() {
		atomsOf[a.Relation.Name()]++
	}

	span := map[string]bool{}
	for op := 0; op < incrementalOps; op++ {
		name := names[rng.Intn(len(names))]
		desc, err := mutateRelation(cat, name, rng)
		if err != nil {
			return &Discrepancy{Config: "incremental-maintained",
				Detail: fmt.Sprintf("script op %d (%s): %v", op, desc, err)}
		}
		span[name] = true
		// A third of the writes fold into the next span unrefreshed, so
		// the script also exercises multi-write spans: multi-relation
		// patches and the mixed insert+delete recompute fallback.
		if op < incrementalOps-1 && rng.Intn(3) == 0 {
			continue
		}
		res, err := m.Execute(join.Options{})
		if err != nil {
			return &Discrepancy{Config: "incremental-maintained",
				Detail: fmt.Sprintf("refresh after op %d (%s): %v", op, desc, err)}
		}
		if d := ck.compareMaintained(cat, m, text, res, op, desc); d != nil {
			return d
		}
		if last := m.LastRefresh(); last.Kind == "patched" {
			// Delta indexes are bounded by the changed atoms; a pass that
			// keys an unwritten relation by its own order builds that order
			// in full once, and reports it.
			bound := last.Rekeyed
			for n := range span {
				bound += atomsOf[n]
			}
			if res.Stats.IndexBuilds > int64(bound) {
				return &Discrepancy{Config: "incremental-maintained",
					Detail: fmt.Sprintf("op %d (%s): patched refresh built %d indexes, changed relations bind %d atoms",
						op, desc, res.Stats.IndexBuilds, bound),
					Got: int(res.Stats.IndexBuilds), Want: bound}
			}
		}
		span = map[string]bool{}
	}
	return nil
}

// compareMaintained cross-checks one maintained result against the
// scratch recompute (byte-identical under the maintained SAO) and the
// Generic Join baseline (set-identical).
func (ck *Checker) compareMaintained(cat *catalog.Catalog, m *catalog.Maintained, text string,
	res *join.Result, op int, desc string) *Discrepancy {

	config := fmt.Sprintf("incremental-maintained op=%d(%s) refresh=%s", op, desc, m.LastRefresh().Kind)
	cur, err := cat.Parse(text)
	if err != nil {
		return &Discrepancy{Config: config, Detail: fmt.Sprintf("parse: %v", err)}
	}
	scratch, err := join.Execute(cur, join.Options{
		Mode:        core.Preloaded,
		Parallelism: 1,
		SAOVars:     m.Plan().SAOVars(),
	})
	if err != nil {
		return &Discrepancy{Config: config, Detail: fmt.Sprintf("scratch recompute: %v", err)}
	}
	if d := baseline.FirstDivergence(res.Tuples, scratch.Tuples); d != nil {
		return &Discrepancy{Config: config,
			Detail: fmt.Sprintf("maintained result differs from scratch recompute (%d tuples vs %d)",
				len(res.Tuples), len(scratch.Tuples)),
			Got: len(res.Tuples), Want: len(scratch.Tuples), Diff: d}
	}
	ref, err := baseline.GenericJoin(cur, nil)
	if err != nil {
		return &Discrepancy{Config: config, Detail: fmt.Sprintf("generic join: %v", err)}
	}
	if d := diffTuples(config, res.Tuples, sortedCopy(ref)); d != nil {
		return d
	}
	return nil
}

// mutateRelation applies one random catalog write to the named relation
// and describes it. The op mix deliberately includes the degenerate
// cases — duplicate appends and absent deletes (empty effective deltas)
// and multi-tuple batches — alongside plain single-tuple writes.
func mutateRelation(cat *catalog.Catalog, name string, rng *rand.Rand) (string, error) {
	rel, ok := cat.Relation(name)
	if !ok {
		return "?", fmt.Errorf("relation %q vanished", name)
	}
	depths := rel.Depths()
	randTuple := func() relation.Tuple {
		t := make(relation.Tuple, len(depths))
		for i, d := range depths {
			t[i] = uint64(rng.Intn(1 << d))
		}
		return t
	}
	switch k := rng.Intn(6); {
	case k == 0 && rel.Len() > 0: // delete an existing tuple
		victim := rel.Tuples()[rng.Intn(rel.Len())]
		_, err := cat.Delete(name, victim)
		return fmt.Sprintf("delete %s%v", name, victim), err
	case k == 1: // delete a (likely) absent tuple
		t := randTuple()
		_, err := cat.Delete(name, t)
		return fmt.Sprintf("delete-absent %s%v", name, t), err
	case k == 2 && rel.Len() > 0: // append a duplicate
		dup := rel.Tuples()[rng.Intn(rel.Len())]
		_, err := cat.Append(name, dup)
		return fmt.Sprintf("append-dup %s%v", name, dup), err
	case k == 3: // batch append
		batch := []relation.Tuple{randTuple(), randTuple(), randTuple()}
		_, err := cat.Append(name, batch...)
		return fmt.Sprintf("append-batch %s x%d", name, len(batch)), err
	default: // single append
		t := randTuple()
		_, err := cat.Append(name, t)
		return fmt.Sprintf("append %s%v", name, t), err
	}
}
