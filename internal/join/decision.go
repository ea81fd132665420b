package join

import (
	"fmt"

	"tetrisjoin/internal/index"
	"tetrisjoin/internal/planner"
)

// Decision is the resolved planning outcome for a query: the splitting
// attribute order, the per-atom index families, and — when the
// statistics-driven planner produced it — the cost estimate and scored
// candidates. Plans record the decision they were prepared under
// (Plan.Decision).
type Decision struct {
	// SAOVars is the chosen splitting attribute order by variable name.
	SAOVars []string
	// sao is the same order as query-variable positions.
	sao []int
	// Planned reports that the statistics-driven planner made the choice
	// (strategy SAOPlanned, or SAOAuto on a cyclic query). Unplanned
	// decisions — explicit SAOVars, SAONatural, SAOAuto on acyclic
	// queries — carry the order only.
	Planned bool
	// Families is the chosen index family per atom (parallel to the
	// query's atoms) when Planned; nil otherwise, meaning the classical
	// SAO-consistent B-tree default for every atom.
	Families []index.Family
	// EstimatedResolutions is the planner's cost-model estimate for the
	// chosen order (Σ of prefix-join size estimates). 0 when not Planned.
	EstimatedResolutions float64
	// Candidates are the orders the planner scored, winner first. Empty
	// when not Planned.
	Candidates []PlannedCandidate
}

// PlannedCandidate is one order the planner considered, with its score
// and the reason it lost (empty for the winner). Kept for explain
// output.
type PlannedCandidate struct {
	// SAOVars is the candidate order by variable name.
	SAOVars []string
	// Score is the cost-model estimate.
	Score  float64
	Source string
	// Rejection explains why the candidate lost; empty for the winner.
	Rejection string
}

// SAO returns the decision's order as query-variable positions.
func (d *Decision) SAO() []int { return d.sao }

// Decide resolves the planning decision Execute/PreparePlan would use
// for the query under the given options, without building anything.
// Explicit opts.SAOVars always wins (an unplanned decision); otherwise
// the strategy dispatches: SAONatural takes first-occurrence order,
// SAOAuto keeps the paper's reverse-GYO order on α-acyclic queries and
// invokes the statistics-driven planner on cyclic ones, and SAOPlanned
// invokes the planner unconditionally.
func Decide(q *Query, opts Options) (*Decision, error) {
	if opts.Decision != nil {
		return opts.Decision, nil
	}
	if len(opts.SAOVars) > 0 {
		sao, err := validateSAOVars(q, opts.SAOVars)
		if err != nil {
			return nil, err
		}
		return unplannedDecision(q, sao), nil
	}
	n := len(q.vars)
	switch opts.Strategy {
	case SAONatural:
		sao := make([]int, n)
		for i := range sao {
			sao[i] = i
		}
		return unplannedDecision(q, sao), nil
	case SAOAuto:
		h := q.Hypergraph()
		if order, acyclic := h.GYO(); acyclic {
			// The acyclic regime has a theorem-backed order (reverse GYO,
			// Thm D.8) and Õ(N+Z) behavior regardless of skew; statistics
			// cannot improve on it, so planning is reserved for cyclic
			// queries.
			sao := make([]int, n)
			for i, v := range order {
				sao[n-1-i] = v
			}
			return unplannedDecision(q, sao), nil
		}
		return plannedDecision(q), nil
	case SAOPlanned:
		return plannedDecision(q), nil
	default:
		return nil, fmt.Errorf("join: unknown SAO strategy %d", opts.Strategy)
	}
}

// unplannedDecision wraps a fixed order with the classical B-tree
// index default.
func unplannedDecision(q *Query, sao []int) *Decision {
	return &Decision{SAOVars: varsOf(q, sao), sao: sao}
}

// plannedDecision runs the statistics-driven planner over the query. A
// planner failure degrades to the classical elimination-order default
// rather than failing the query.
func plannedDecision(q *Query) *Decision {
	atoms := make([]planner.Atom, len(q.atoms))
	for ai, a := range q.atoms {
		vars := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			vars[i] = q.varPos[v]
		}
		atoms[ai] = planner.Atom{Rel: a.Relation, Vars: vars}
	}
	pd, err := planner.Choose(len(q.vars), atoms)
	if err != nil {
		return classicalDecision(q)
	}
	d := &Decision{
		SAOVars:              varsOf(q, pd.SAO),
		sao:                  pd.SAO,
		Planned:              true,
		Families:             pd.Families,
		EstimatedResolutions: pd.EstimatedResolutions,
	}
	for _, c := range pd.Candidates {
		d.Candidates = append(d.Candidates, PlannedCandidate{
			SAOVars:   varsOf(q, c.SAO),
			Score:     c.Score,
			Source:    c.Source,
			Rejection: c.Rejection,
		})
	}
	return d
}

// classicalDecision is the engine's pre-planner cyclic default: the
// reverse of a minimum-induced-width elimination order.
func classicalDecision(q *Query) *Decision {
	h := q.Hypergraph()
	n := len(q.vars)
	var elim []int
	if order, acyclic := h.GYO(); acyclic {
		elim = order
	} else {
		elim, _ = h.EliminationOrder()
	}
	sao := make([]int, n)
	for i, v := range elim {
		sao[n-1-i] = v
	}
	return unplannedDecision(q, sao)
}

// validateSAOVars checks that the named order is a permutation of the
// query's variables and converts it to positions.
func validateSAOVars(q *Query, saoVars []string) ([]int, error) {
	if len(saoVars) != len(q.vars) {
		return nil, fmt.Errorf("join: SAO has %d variables, query has %d", len(saoVars), len(q.vars))
	}
	sao := make([]int, len(saoVars))
	seen := map[int]bool{}
	for i, v := range saoVars {
		pos := q.VarIndex(v)
		if pos < 0 {
			return nil, fmt.Errorf("join: SAO variable %s not in query", v)
		}
		if seen[pos] {
			return nil, fmt.Errorf("join: SAO repeats variable %s", v)
		}
		seen[pos] = true
		sao[i] = pos
	}
	return sao, nil
}

func varsOf(q *Query, sao []int) []string {
	out := make([]string, len(sao))
	for i, pos := range sao {
		out[i] = q.vars[pos]
	}
	return out
}

// atomSpec resolves the index spec one atom needs under the decision:
// the family the planner chose (B-tree by default), with the B-tree's
// attribute order kept SAO-consistent.
func atomSpec(q *Query, a Atom, d *Decision, ai int) index.Spec {
	fam := index.BTreeFamily
	if d.Planned && ai < len(d.Families) {
		fam = d.Families[ai]
	}
	switch fam {
	case index.DyadicFamily:
		return index.DyadicSpec()
	case index.KDTreeFamily:
		return index.KDTreeSpec()
	default:
		return index.BTreeSpec(SAOIndexOrder(q, a, d.sao)...)
	}
}
