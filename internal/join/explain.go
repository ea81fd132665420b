package join

import (
	"fmt"
	"strings"

	"tetrisjoin/internal/agm"
)

// Explanation describes how the engine would evaluate a query: the
// chosen splitting attribute order, the per-atom indices, and the
// structural measures that determine which of the paper's runtime
// guarantees apply.
type Explanation struct {
	// Query is the rendered query text.
	Query string
	// Vars are the query variables in output order.
	Vars []string
	// SAO is the splitting attribute order that will be used.
	SAO []string
	// Indices describes the index used for each atom, parallel to the
	// query's atoms.
	Indices []string
	// Acyclic reports α-acyclicity (the Õ(N+Z) regime of Theorem D.8).
	Acyclic bool
	// Treewidth is the query hypergraph's treewidth: Theorem 4.7 applies
	// at 1 and Theorem 4.9 at w>1 for certificate bounds.
	Treewidth int
	// FHTW is the fractional hypertree width: the Õ(N^fhtw+Z) exponent of
	// Theorem 4.6. FHTWExact is false when FHTW is a heuristic upper
	// bound (more than 8 variables).
	FHTW      float64
	FHTWExact bool
	// AGM is the per-instance AGM output bound of Definition A.1.
	AGM float64
	// Guarantee summarizes the tightest applicable runtime statement.
	Guarantee string
	// Planned reports that the statistics-driven planner chose the SAO
	// and index families; when set, EstimatedResolutions carries its
	// cost-model estimate and Candidates the scored orders it weighed
	// (winner first, with rejection reasons on the losers).
	Planned              bool
	EstimatedResolutions float64
	Candidates           []PlannedCandidate
}

// Explain computes the evaluation plan and structural measures for the
// query under the given options, without running it.
func Explain(q *Query, opts Options) (*Explanation, error) {
	d, err := Decide(q, opts)
	if err != nil {
		return nil, err
	}
	indices, _, err := buildIndices(q, d, NewIndexBuilder())
	if err != nil {
		return nil, err
	}
	ex := &Explanation{
		Query:                q.String(),
		Vars:                 append([]string(nil), q.Vars()...),
		SAO:                  append([]string(nil), d.SAOVars...),
		Planned:              d.Planned,
		EstimatedResolutions: d.EstimatedResolutions,
		Candidates:           d.Candidates,
	}
	for _, ix := range indices {
		ex.Indices = append(ex.Indices, ix.Relation().Name()+": "+ix.Kind())
	}
	h := q.Hypergraph()
	ex.Acyclic = h.AlphaAcyclic()
	tw, _, err := h.Treewidth()
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	ex.Treewidth = tw
	ex.FHTW, ex.FHTWExact, err = agm.FHTW(h)
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	sizes := make([]int, len(q.atoms))
	for i, a := range q.atoms {
		sizes[i] = a.Relation.Len()
	}
	ex.AGM, err = agm.Bound(h, sizes)
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	switch {
	case ex.Acyclic:
		ex.Guarantee = "α-acyclic: Õ(N+Z) preloaded (Thm D.8); Õ(|C|+Z) reloaded when treewidth 1 (Thm 4.7)"
	case ex.Treewidth == 1:
		ex.Guarantee = "treewidth 1: Õ(|C|+Z) reloaded (Thm 4.7)"
	default:
		ex.Guarantee = fmt.Sprintf(
			"Õ(N^%.2f+Z) preloaded (Thm 4.6); Õ(|C|^%d+Z) reloaded (Thm 4.9); Õ(|C|^{n/2}+Z) load-balanced (Thm 4.11)",
			ex.FHTW, ex.Treewidth+1)
	}
	return ex, nil
}

// String renders the explanation as a short report.
func (ex *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query:     %s\n", ex.Query)
	fmt.Fprintf(&sb, "variables: %s\n", strings.Join(ex.Vars, ", "))
	fmt.Fprintf(&sb, "SAO:       %s\n", strings.Join(ex.SAO, ", "))
	for _, ix := range ex.Indices {
		fmt.Fprintf(&sb, "index:     %s\n", ix)
	}
	fmt.Fprintf(&sb, "acyclic:   %v   treewidth: %d   fhtw: %.2f", ex.Acyclic, ex.Treewidth, ex.FHTW)
	if !ex.FHTWExact {
		sb.WriteString(" (heuristic)")
	}
	fmt.Fprintf(&sb, "\nAGM bound: %.1f tuples\n", ex.AGM)
	fmt.Fprintf(&sb, "guarantee: %s\n", ex.Guarantee)
	if ex.Planned {
		fmt.Fprintf(&sb, "planner:   est. resolutions %.3g\n", ex.EstimatedResolutions)
		for _, c := range ex.Candidates {
			why := "chosen"
			if c.Rejection != "" {
				why = "rejected: " + c.Rejection
			}
			fmt.Fprintf(&sb, "  %-12s %-20s %.3g — %s\n",
				c.Source, strings.Join(c.SAOVars, ","), c.Score, why)
		}
	}
	return sb.String()
}
