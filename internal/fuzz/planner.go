package fuzz

import (
	"fmt"
	"reflect"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/workload"
)

// checkPlanner is the PlannerDifferential configuration: the
// statistics-driven planner is free to choose any splitting attribute
// order and index family, so its one binding contract is semantic
// transparency — a planned execution must produce exactly the reference
// output, a fixed-SAO execution must too (the planner cannot leak into
// explicitly ordered runs), and decisions must be deterministic.
func (ck *Checker) checkPlanner(c Case) *Discrepancy {
	q, err := c.BuildQuery()
	if err != nil {
		return &Discrepancy{Config: "planner", Detail: fmt.Sprintf("rebuild: %v", err)}
	}
	ref, err := baseline.GenericJoin(q, nil)
	if err != nil {
		return &Discrepancy{Config: "planner", Detail: fmt.Sprintf("reference: %v", err)}
	}

	// Decision determinism: equal inputs, equal order, families,
	// estimate and scored candidates.
	d1, err := join.Decide(q, join.Options{Strategy: join.SAOPlanned})
	if err != nil {
		return &Discrepancy{Config: "planner/decide", Detail: fmt.Sprintf("engine error: %v", err)}
	}
	d2, err := join.Decide(q, join.Options{Strategy: join.SAOPlanned})
	if err != nil {
		return &Discrepancy{Config: "planner/decide", Detail: fmt.Sprintf("engine error: %v", err)}
	}
	if !reflect.DeepEqual(d1, d2) {
		return &Discrepancy{Config: "planner/decide",
			Detail: fmt.Sprintf("nondeterministic decision: %+v vs %+v", *d1, *d2)}
	}
	if d := validDecision(q, d1); d != nil {
		return d
	}

	// A planned execution enumerates in the planner's chosen order, so
	// outputs compare as sorted sets against the reference.
	for _, mode := range []core.Mode{core.Reloaded, core.Preloaded} {
		config := fmt.Sprintf("planner/%v", mode)
		res, err := join.Execute(q, join.Options{Strategy: join.SAOPlanned, Mode: mode, Parallelism: 1})
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if d := diffTuples(config, res.Tuples, ref); d != nil {
			return d
		}
	}

	// Every fixed SAO permutation must agree with the same reference:
	// whatever the planner prefers, an explicitly ordered run is
	// untouched by it.
	n := len(q.Vars())
	for _, sao := range saoCandidates(n, ck.MaxSAOs) {
		saoVars := make([]string, n)
		for i, pos := range sao {
			saoVars[i] = q.Vars()[pos]
		}
		config := fmt.Sprintf("planner/fixed sao=%v", saoVars)
		res, err := join.Execute(q, join.Options{SAOVars: saoVars, Mode: core.Reloaded, Parallelism: 1})
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if d := diffTuples(config, res.Tuples, ref); d != nil {
			return d
		}
	}

	// Strategy coherence: on cyclic queries SAOAuto delegates to the
	// planner, so the two strategies must resolve identically.
	if _, acyclic := q.Hypergraph().GYO(); !acyclic {
		da, err := join.Decide(q, join.Options{Strategy: join.SAOAuto})
		if err != nil {
			return &Discrepancy{Config: "planner/auto", Detail: fmt.Sprintf("engine error: %v", err)}
		}
		if fmt.Sprint(da.SAOVars) != fmt.Sprint(d1.SAOVars) || fmt.Sprint(da.Families) != fmt.Sprint(d1.Families) {
			return &Discrepancy{Config: "planner/auto",
				Detail: fmt.Sprintf("SAOAuto resolved %v/%v on a cyclic query, SAOPlanned %v/%v", da.SAOVars, da.Families, d1.SAOVars, d1.Families)}
		}
	}
	return nil
}

// validDecision checks a decision's structural invariants: the order is
// a permutation of the query's variables and a planned decision carries
// one index family per atom.
func validDecision(q *join.Query, d *join.Decision) *Discrepancy {
	seen := map[string]bool{}
	for _, v := range d.SAOVars {
		if q.VarIndex(v) < 0 || seen[v] {
			return &Discrepancy{Config: "planner/decide",
				Detail: fmt.Sprintf("SAO %v is not a permutation of the query variables", d.SAOVars)}
		}
		seen[v] = true
	}
	if len(d.SAOVars) != len(q.Vars()) {
		return &Discrepancy{Config: "planner/decide",
			Detail: fmt.Sprintf("SAO %v misses variables (query has %d)", d.SAOVars, len(q.Vars()))}
	}
	if !d.Planned {
		return nil // degraded classical decision: order-only, still valid
	}
	if len(d.Families) != len(q.Atoms()) {
		return &Discrepancy{Config: "planner/decide",
			Detail: fmt.Sprintf("planned decision has %d index families for %d atoms", len(d.Families), len(q.Atoms()))}
	}
	return nil
}

// CaseFromQuery converts a materialized query into the serializable
// case form, so the named workload families replay through the same
// differential pipeline as generated cases.
func CaseFromQuery(name string, q *join.Query) Case {
	c := Case{Name: name, VarDepths: map[string]uint8{}}
	for i, v := range q.Vars() {
		c.VarDepths[v] = q.Depths()[i]
	}
	seen := map[string]bool{}
	for _, a := range q.Atoms() {
		c.Atoms = append(c.Atoms, CaseAtom{Rel: a.Relation.Name(), Vars: append([]string(nil), a.Vars...)})
		if seen[a.Relation.Name()] {
			continue
		}
		seen[a.Relation.Name()] = true
		cr := CaseRelation{Name: a.Relation.Name()}
		for _, t := range a.Relation.Tuples() {
			cr.Tuples = append(cr.Tuples, append([]uint64(nil), t...))
		}
		c.Relations = append(c.Relations, cr)
	}
	return c
}

// PlannerFamilies is the fixed panel of workload families the planner
// differential campaign (cmd/fuzz -kind planner) always checks before
// drawing random cases: the classic paper instances the planner must
// not perturb, and the skewed/adversarial ones it exists for. Sizes are
// small enough that every permutation executes in milliseconds.
func PlannerFamilies() []Case {
	families := []struct {
		name string
		q    *join.Query
	}{
		{"triangle-msb", workload.TriangleMSB(4)},
		{"triangle-agm-star", workload.TriangleAGMStar(16, 5)},
		{"triangle-dense", workload.TriangleDense(8, 4)},
		{"four-cycle-blocks", workload.FourCycleBlocks(4)},
		{"clique4", workload.CliqueQuery(4, 16, 0.4, 5, 6)},
		{"gao-sensitive", workload.GAOSensitive(32, 6)},
		{"tree-ordered-hard", workload.TreeOrderedHard(16)},
		{"skewed-triangle", workload.SkewedTriangle(32, 6)},
		{"skewed-four-cycle", workload.SkewedFourCycle(16, 5)},
		{"heavy-value-mismatch", workload.HeavyValueMismatch(32, 6)},
		{"pinned-chain", workload.PinnedChain(32, 8)},
		{"zipf-triangle", workload.ZipfTriangle(48, 5, 1.3, 7)},
		{"zipf-star", workload.ZipfStar(3, 32, 5, 1.3, 11)},
	}
	out := make([]Case, len(families))
	for i, f := range families {
		out[i] = CaseFromQuery("planner-family-"+f.name, f.q)
	}
	return out
}
