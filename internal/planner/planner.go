// Package planner chooses splitting attribute orders and index families
// from cheap per-snapshot statistics. SAO choice dominates Tetris
// performance (the source paper leaves order selection open, §6), and
// the right order depends on the data: the planner scores candidate
// orders with a prefix-wise AGM / fractional-edge-cover cost model over
// relation statistics (internal/relation.Stats), refined by a one-level
// heavy/light split in the spirit of "Skew Strikes Back", and breaks
// ties with tree-decomposition structure (induced width of the reversed
// order) so that on symmetric instances it reproduces the engine's
// classical elimination-order default exactly.
//
// The scoring formula: for an order π = v₁…vₙ,
//
//	score(π) = Σ_{k=1..n} Ê(π_{1..k})
//
// where Ê(S) estimates the size of the join projected onto the prefix
// set S — the number of branches Tetris must distinguish after
// splitting the first k variables. Ê(S) is the AGM bound of the
// restricted hypergraph whose edge weights are log₂ of per-relation
// projection estimates min(|R|, Π distinct), taken as the minimum of
// the plain bound and a heavy/light split that conditions on the most
// dominant hub value. Ê depends on the set S only, so the optimal
// order over all n! permutations is a shortest path in the subset
// lattice, found by DP in O(2ⁿ·n) estimate lookups.
package planner

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tetrisjoin/internal/hypergraph"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/relation"
)

// Atom is one query atom as the planner sees it: a relation snapshot
// plus the query-variable position bound to each of its attributes, in
// schema order.
type Atom struct {
	Rel  *relation.Relation
	Vars []int
}

// exhaustiveVars caps the subset-lattice DP: queries with more
// variables score the named candidate orders only.
const exhaustiveVars = 12

// Candidate is one scored order, kept for explain output.
type Candidate struct {
	// SAO is the order as query-variable positions.
	SAO []int
	// Score is the estimated resolution proxy (Σ of prefix estimates).
	Score float64
	// Source names how the candidate was generated: "optimal" (subset
	// DP), "elimination" (the engine's classical default), "natural",
	// "reversed" or "minfill".
	Source string
	// Rejection explains why the candidate lost, empty for the winner.
	Rejection string
}

// Decision is the planner's output: the chosen order, per-atom index
// families, the estimate behind the choice, and the scored candidates.
type Decision struct {
	// SAO is the chosen order as query-variable positions.
	SAO []int
	// Families is the chosen index family per atom, parallel to the
	// atoms handed to Choose. Atoms carrying explicit indexes are the
	// caller's business; the planner always fills every slot.
	Families []index.Family
	// Score is the winner's score; EstimatedResolutions is the same
	// number under its cost-model meaning (Σ of prefix-join estimates).
	Score                float64
	EstimatedResolutions float64
	// Candidates are the scored orders, winner first, then ascending by
	// score.
	Candidates []Candidate
}

// SAOKey renders an order as a canonical string ("2,0,1"): the identity
// candidates are deduplicated by and the last tie-break compares.
func SAOKey(sao []int) string {
	parts := make([]string, len(sao))
	for i, v := range sao {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// Choose plans the query described by nvars variables and the given
// atoms: it scores candidate splitting attribute orders against the
// statistics of the atom relations and picks index families to match.
// Deterministic: equal inputs yield equal decisions, and on symmetric
// instances (all candidates tied) the engine's classical
// elimination-based order wins, so planning never perturbs workloads
// the default already handles optimally.
func Choose(nvars int, atoms []Atom) (*Decision, error) {
	if nvars < 1 || nvars > 64 {
		return nil, fmt.Errorf("planner: %d variables out of range", nvars)
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("planner: no atoms")
	}
	h := hypergraph.New(nvars)
	for _, a := range atoms {
		if len(a.Vars) != a.Rel.Arity() {
			return nil, fmt.Errorf("planner: atom over %s binds %d vars, arity %d", a.Rel.Name(), len(a.Vars), a.Rel.Arity())
		}
		if err := h.AddEdge(a.Vars...); err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
	}
	est := newEstimator(nvars, atoms)

	// Named candidates. The elimination-based order is the engine's
	// classical SAOAuto choice; keeping it in the pool (and preferring
	// it on ties) makes planning a strict refinement of the default.
	cands := []Candidate{
		{SAO: eliminationSAO(h), Source: "elimination"},
		{SAO: naturalSAO(nvars), Source: "natural"},
		{SAO: reversedSAO(nvars), Source: "reversed"},
	}
	if mf, _ := h.MinFillOrder(); len(mf) == nvars {
		cands = append(cands, Candidate{SAO: reverseOf(mf), Source: "minfill"})
	}
	if nvars <= exhaustiveVars {
		if opt := est.optimalOrder(); opt != nil {
			cands = append(cands, Candidate{SAO: opt, Source: "optimal"})
		}
	}

	// Score and dedupe by order (first source wins).
	seen := map[string]bool{}
	var uniq []Candidate
	for _, c := range cands {
		key := SAOKey(c.SAO)
		if seen[key] {
			continue
		}
		seen[key] = true
		c.Score = est.orderScore(c.SAO)
		uniq = append(uniq, c)
	}

	best := 0
	for i := 1; i < len(uniq); i++ {
		if better(uniq[i], uniq[best], h) {
			best = i
		}
	}
	for i := range uniq {
		if i == best {
			continue
		}
		switch {
		case uniq[i].Score > uniq[best].Score*(1+tieEpsilon):
			uniq[i].Rejection = fmt.Sprintf("estimate %.3g worse than %.3g", uniq[i].Score, uniq[best].Score)
		default:
			uniq[i].Rejection = "tied; lost structural tie-break"
		}
	}
	winner := uniq[best]
	uniq[best], uniq[0] = uniq[0], uniq[best]
	sort.SliceStable(uniq[1:], func(i, j int) bool { return uniq[i+1].Score < uniq[j+1].Score })

	d := &Decision{
		SAO:                  winner.SAO,
		Score:                winner.Score,
		EstimatedResolutions: winner.Score,
		Candidates:           uniq,
	}
	d.Families = make([]index.Family, len(atoms))
	for i, a := range atoms {
		d.Families[i] = familyFor(a.Rel)
	}
	return d, nil
}

// tieEpsilon is the relative slack under which two scores count as tied
// and the structural tie-break decides.
const tieEpsilon = 1e-9

// better reports whether candidate a should be preferred over b:
// strictly lower score first; on ties, lower induced width of the
// reversed order (the tree-decomposition structure criterion), then the
// source preference elimination > natural > others (stability: the
// classical default wins symmetric instances), then lexicographic order.
func better(a, b Candidate, h *hypergraph.Hypergraph) bool {
	if a.Score < b.Score*(1-tieEpsilon) {
		return true
	}
	if b.Score < a.Score*(1-tieEpsilon) {
		return false
	}
	wa, erra := h.InducedWidth(reverseOf(a.SAO))
	wb, errb := h.InducedWidth(reverseOf(b.SAO))
	if erra == nil && errb == nil && wa != wb {
		return wa < wb
	}
	if pa, pb := sourceRank(a.Source), sourceRank(b.Source); pa != pb {
		return pa < pb
	}
	return SAOKey(a.SAO) < SAOKey(b.SAO)
}

func sourceRank(s string) int {
	switch s {
	case "elimination":
		return 0
	case "natural":
		return 1
	default:
		return 2
	}
}

// eliminationSAO reproduces the engine's classical SAOAuto order: the
// reverse of a GYO order when acyclic, of a min-induced-width
// elimination order otherwise.
func eliminationSAO(h *hypergraph.Hypergraph) []int {
	var elim []int
	if order, acyclic := h.GYO(); acyclic {
		elim = order
	} else {
		elim, _ = h.EliminationOrder()
	}
	return reverseOf(elim)
}

func naturalSAO(n int) []int {
	sao := make([]int, n)
	for i := range sao {
		sao[i] = i
	}
	return sao
}

func reversedSAO(n int) []int { return reverseOf(naturalSAO(n)) }

func reverseOf(order []int) []int {
	out := make([]int, len(order))
	for i, v := range order {
		out[len(order)-1-i] = v
	}
	return out
}

// clusterThreshold and clusterMinTuples gate dyadic/k-d index family
// selection: only relations whose joint dyadic occupancy at midway
// depth is at most this fraction of the independent-column expectation
// (diagonals, blocks) trade the B-tree's order-consistent gaps for
// multidimensional ones.
const (
	clusterThreshold = 0.25
	clusterMinTuples = 16
)

// familyFor picks the index family for one atom's relation from its
// statistics. B-tree (SAO-consistent order) is the paper's default;
// relations whose tuples cluster in few dyadic cells — diagonals,
// blocks — get the dyadic tree (k-d tree at arity ≥ 3), whose gap boxes
// cover multidimensional holes that per-order B-trees can only tile
// with Ω(N) thin strips (Appendix B.2's index-dependence of
// certificates; the DiagonalBowtie experiment measures the gap).
func familyFor(rel *relation.Relation) index.Family {
	if rel.Arity() < 2 {
		return index.BTreeFamily
	}
	st := rel.Stats()
	if st.Count < clusterMinTuples {
		return index.BTreeFamily
	}
	maxDepth := 0
	for _, d := range rel.Depths() {
		if int(d) > maxDepth {
			maxDepth = int(d)
		}
	}
	mid := maxDepth / 2
	if mid < 1 {
		mid = 1
	}
	if st.ClusterRatio(mid) <= clusterThreshold {
		if rel.Arity() >= 3 {
			return index.KDTreeFamily
		}
		return index.DyadicFamily
	}
	return index.BTreeFamily
}
