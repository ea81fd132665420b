package tetrisjoin

import (
	"math/big"

	"tetrisjoin/internal/agm"
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/cert"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/klee"
	"tetrisjoin/internal/lb"
)

// BCPOptions configures a raw box cover problem run; it mirrors
// core.Options.
type BCPOptions = core.Options

// BCPResult is the outcome of a raw box cover problem run.
type BCPResult = core.Result

// SolveBCP lists all points of the depth-indexed space not covered by any
// of the boxes — the box cover problem of Definition 3.4 — using the
// Tetris variant selected in opts. Like Join, it supplies the Balance lift
// to the LB modes.
func SolveBCP(depths []uint8, boxes []Box, opts BCPOptions) (*BCPResult, error) {
	o, err := core.NewBoxOracle(depths, boxes)
	if err != nil {
		return nil, err
	}
	if !opts.Mode.Plain() {
		opts.Space = lb.New
	}
	return core.Run(o, opts)
}

// CoversSpace decides the Boolean box cover problem (Definition 3.5) —
// equivalently Klee's measure problem over the Boolean semiring
// (Corollary F.8) — in Õ(|B|^{n/2}) via the load-balanced variant. The
// returned point is nil when the space is covered.
func CoversSpace(depths []uint8, boxes []Box) (covered bool, uncovered []uint64, err error) {
	rep, err := klee.CoversSpace(depths, boxes)
	if err != nil {
		return false, nil, err
	}
	return rep.Covered, rep.Uncovered, nil
}

// JoinSize returns the exact number of output tuples of the query
// without materializing them: the counting variant of Tetris sums whole
// uncovered sub-spaces at once, so joins with astronomically many results
// are counted cheaply. Like Join it is one-shot (a throwaway catalog);
// services should count through a long-lived Catalog's prepared
// statements instead. Like Join it takes all four modes.
func JoinSize(q *Query, opts Options) (*big.Int, error) {
	if !opts.Mode.Plain() {
		opts.Space = lb.New
	}
	count, _, err := catalog.New().CountQuery(q, opts)
	return count, err
}

// CountUncovered returns the exact number of points of the space not
// covered by any box — the counting form of the box cover problem.
func CountUncovered(depths []uint8, boxes []Box) (*big.Int, error) {
	rep, err := core.CountUncovered(depths, boxes, core.Options{})
	if err != nil {
		return nil, err
	}
	return rep.Uncovered, nil
}

// MeasureUnion computes the exact measure (point count) of the union of
// the boxes — Klee's measure problem over the counting semiring — in any
// dimension.
func MeasureUnion(depths []uint8, boxes []Box) (*big.Int, error) {
	return klee.MeasureExact(depths, boxes)
}

// MinimalCertificate returns an inclusion-minimal box certificate
// (Definition 3.4): a subset of the boxes with the same union from which
// no box can be dropped.
func MinimalCertificate(depths []uint8, boxes []Box) ([]Box, error) {
	return cert.Minimal(depths, boxes)
}

// VerifyCertificate reports whether subset is a box certificate for
// boxes: a subset with an identical union.
func VerifyCertificate(depths []uint8, boxes, subset []Box) (bool, error) {
	return cert.Verify(depths, boxes, subset)
}

// AGMBound returns the per-instance AGM output-size bound of the query
// (Definition A.1): the minimum of Π|R_F|^{x_F} over fractional edge
// covers x.
func AGMBound(q *Query) (float64, error) {
	h := q.Hypergraph()
	sizes := make([]int, len(q.Atoms()))
	for i, a := range q.Atoms() {
		sizes[i] = a.Relation.Len()
	}
	return agm.Bound(h, sizes)
}

// FractionalEdgeCoverNumber returns ρ*(Q) (Definition A.2).
func FractionalEdgeCoverNumber(q *Query) (float64, error) {
	return agm.Rho(q.Hypergraph())
}

// FHTW returns the fractional hypertree width of the query; exact is
// false when the value is a heuristic upper bound (queries with more than
// 8 variables).
func FHTW(q *Query) (width float64, exact bool, err error) {
	return agm.FHTW(q.Hypergraph())
}

// Treewidth returns the treewidth of the query's hypergraph.
func Treewidth(q *Query) (int, error) {
	w, _, err := q.Hypergraph().Treewidth()
	return w, err
}

// IsAcyclic reports whether the query is α-acyclic (GYO reducible).
func IsAcyclic(q *Query) bool { return q.Hypergraph().AlphaAcyclic() }

// Explanation describes a query's evaluation plan and the structural
// measures that determine which runtime guarantees apply; see
// join.Explanation.
type Explanation = join.Explanation

// Explain computes the evaluation plan (SAO, indices, widths, AGM bound,
// applicable guarantee) for the query without running it.
func Explain(q *Query, opts Options) (*Explanation, error) { return join.Explain(q, opts) }
