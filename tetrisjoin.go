// Package tetrisjoin is a from-scratch implementation of the Tetris join
// algorithm from "Joins via Geometric Resolutions: Worst-case and Beyond"
// (Abo Khamis, Ngo, Ré, Rudra; PODS 2015).
//
// Tetris treats a natural join geometrically: every database index over a
// relation is viewed as a set of dyadic "gap boxes" — axis-aligned regions
// certified to contain no tuples — and the join output is exactly the set
// of points of the attribute space not covered by any gap box (the box
// cover problem). The algorithm is a backtracking search with memoization
// whose inference step is geometric resolution: merging two adjacent boxes
// into a larger covered box.
//
// Depending on how its knowledge base is initialized, the same algorithm
// achieves the classical worst-case optimal bounds (AGM output bound,
// Yannakakis' linear time on acyclic queries, the fractional hypertree
// width bound) and beyond-worst-case, certificate-based bounds
// (Õ(|C|+Z) for treewidth-1 queries, Õ(|C|^{w+1}+Z) for treewidth w, and
// Õ(|C|^{n/2}+Z) for arbitrary queries via a load-balancing lift).
//
// # Quick start
//
//	r, _ := tetrisjoin.NewRelation("R", []string{"src", "dst"}, 16)
//	r.MustInsert(1, 2)
//	r.MustInsert(2, 3)
//	r.MustInsert(1, 3)
//	q, _ := tetrisjoin.ParseQuery("R(A,B), R(B,C), R(A,C)",
//		map[string]*tetrisjoin.Relation{"R": r})
//	res, _ := tetrisjoin.Join(q, tetrisjoin.Options{})
//	// res.Tuples == [[1 2 3]]
//
// See the examples directory for runnable programs and DESIGN.md /
// EXPERIMENTS.md for the mapping from the paper's results to this
// repository's modules and benchmarks.
package tetrisjoin

import (
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/lb"
	"tetrisjoin/internal/relation"
)

// Relation is a relation instance: named attributes over power-of-two
// integer domains, storing a sorted deduplicated set of tuples.
type Relation = relation.Relation

// Tuple is a row of attribute values.
type Tuple = relation.Tuple

// Encoder maps arbitrary ordered string values onto dense integer
// domains, order-preserving, for data that is not already integral.
type Encoder = relation.Encoder

// NewEncoder returns an empty value encoder.
func NewEncoder() *Encoder { return relation.NewEncoder() }

// NewRelation creates an empty relation whose attributes all range over
// [0, 2^depth).
func NewRelation(name string, attrs []string, depth uint8) (*Relation, error) {
	return relation.NewUniform(name, attrs, depth)
}

// NewRelationDepths creates an empty relation with per-attribute domain
// depths.
func NewRelationDepths(name string, attrs []string, depths []uint8) (*Relation, error) {
	return relation.New(name, attrs, depths)
}

// Atom is one occurrence of a relation in a query; see join.Atom.
type Atom = join.Atom

// Query is a natural join query.
type Query = join.Query

// NewQuery assembles a query from atoms.
func NewQuery(atoms ...Atom) (*Query, error) { return join.NewQuery(atoms...) }

// ParseQuery parses "R(A,B), S(B,C)" notation against a relation catalog.
func ParseQuery(s string, catalog map[string]*Relation) (*Query, error) {
	return join.Parse(s, catalog)
}

// Mode selects the Tetris variant (knowledge-base initialization).
type Mode = core.Mode

// The four variants of Algorithm 2; see the paper sections cited on each.
// Join, JoinSize and SolveBCP run all four. Prepared plans (NewPlan) and
// catalogs run the plain two: the load-balanced ones are the paper's
// experiment, not a served path, and need the Balance lift as
// Options.Space, which a catalog's Prepare asks for up front.
const (
	// Reloaded: lazy loading; certificate-based guarantees (§4.4).
	Reloaded = core.Reloaded
	// Preloaded: full gap set preloaded; worst-case optimal (§4.3).
	Preloaded = core.Preloaded
	// PreloadedLB: Balance-lifted Preloaded; Õ(|B|^{n/2}+Z) (§4.5).
	PreloadedLB = core.PreloadedLB
	// ReloadedLB: Balance-lifted Reloaded; Õ(|C|^{n/2}+Z) (§4.5).
	ReloadedLB = core.ReloadedLB
)

// Options configures Join; see join.Options for field documentation.
type Options = join.Options

// Result is a join result; see join.Result.
type Result = join.Result

// Stats reports the work a run performed; see core.Stats.
type Stats = core.Stats

// SAOStrategy selects automatic splitting-attribute-order derivation.
type SAOStrategy = join.SAOStrategy

// SAO strategies.
const (
	// SAOAuto follows the paper's prescription for acyclic queries (GYO
	// reverse) and hands cyclic queries to the statistics-driven planner.
	SAOAuto = join.SAOAuto
	// SAONatural uses first-occurrence variable order.
	SAONatural = join.SAONatural
	// SAOPlanned invokes the statistics-driven planner unconditionally.
	SAOPlanned = join.SAOPlanned
)

// Join evaluates the query with Tetris and returns its output tuples over
// q.Vars() plus work statistics.
//
// Execution parallelizes by default (Options.Parallelism = 0 means
// GOMAXPROCS workers over disjoint dyadic shards of the output space —
// except when MaxOutput, MaxResolutions or OnOutput is set, where 0
// falls back to sequential so limits keep machine-independent semantics
// and streaming keeps O(1) tuple memory) and stays deterministic: tuples
// arrive in the sequential enumeration order regardless of worker count.
// Set Parallelism to 1 for the strictly sequential engine, e.g. when
// Stats must reproduce the paper's sequential resolution accounting.
//
// Join is the one-shot API: a thin wrapper over a throwaway catalog, so
// every call pays index construction and planning (Stats.IndexBuilds
// reports it). Services executing queries repeatedly should keep a
// long-lived catalog (OpenCatalog) and run through prepared statements,
// which amortize that work away.
//
// In the LB modes Join supplies the Balance lift (Options.Space).
func Join(q *Query, opts Options) (*Result, error) {
	if !opts.Mode.Plain() {
		opts.Space = lb.New
	}
	return catalog.New().ExecuteQuery(q, opts)
}

// Catalog is a concurrency-safe store of named, versioned relations
// whose indexes are built at ingest (or on first demand) and shared by
// every subsequent query, with an LRU cache of prepared plans on top.
// It is the serving-side entry point: ingest once, prepare once,
// execute many times. See internal/catalog.
type Catalog = catalog.Catalog

// CatalogOptions configures OpenCatalogOptions.
type CatalogOptions = catalog.Options

// Prepared is an executable prepared statement over a catalog: its
// executions reuse the plan's indexes and (Preloaded executions, counts
// and covers) its one base of the gap set, performing zero index builds.
type Prepared = catalog.Prepared

// Maintained is a prepared statement whose materialized result
// survives catalog writes: Execute after an Append/Delete patches the
// result from the delta (one Tetris pass per changed atom over the
// delta relation, reusing prior indexes and shared knowledge) instead
// of re-executing, with exact fallback to full recomputation when the
// patch rule does not apply. Obtain one with Catalog.Maintain.
type Maintained = catalog.Maintained

// MaintainedRefresh describes what a maintained execution did: "none",
// "patched" (with pass/add/remove counts) or "recomputed".
type MaintainedRefresh = catalog.Refresh

// OpenCatalog returns an empty catalog with default options.
func OpenCatalog() *Catalog { return catalog.New() }

// OpenCatalogOptions returns an empty catalog with the given options.
func OpenCatalogOptions(opts CatalogOptions) *Catalog {
	return catalog.NewWithOptions(opts)
}

// IndexSpec describes an index for a catalog to maintain on a relation
// (family plus, for B-trees, attribute order); see index.Spec.
type IndexSpec = index.Spec

// BTreeSpec, DyadicSpec and KDTreeSpec build catalog index specs.
func BTreeSpec(order ...string) IndexSpec { return index.BTreeSpec(order...) }

// DyadicSpec describes a dyadic-tree index for catalog maintenance.
func DyadicSpec() IndexSpec { return index.DyadicSpec() }

// KDTreeSpec describes a k-d tree index for catalog maintenance.
func KDTreeSpec() IndexSpec { return index.KDTreeSpec() }

// Plan is a prepared query: SAO chosen, indices built, bindings resolved.
// A plan is immutable, safe to share between goroutines, and cheap to
// execute repeatedly — the way to serve many concurrent executions of one
// query without rebuilding its indices. See join.Plan.
type Plan = join.Plan

// NewPlan prepares a query for (repeated, possibly concurrent) execution.
func NewPlan(q *Query, opts Options) (*Plan, error) { return join.NewPlan(q, opts) }

// Index is a gap box generator over a relation (a database index in the
// paper's geometric view).
type Index = index.Index

// BTreeIndex builds a sorted (B-tree/trie) index in the given attribute
// order; empty order means schema order. Its gaps are the GAO-consistent
// boxes of Definition 3.11.
func BTreeIndex(rel *Relation, attrOrder ...string) (Index, error) {
	return index.NewSorted(rel, attrOrder...)
}

// DyadicIndex builds a dyadic-tree (quadtree-like) index whose gap boxes
// can be thick in several dimensions — the index family that enables O(1)
// certificates where B-trees need Ω(N) (Example B.8).
func DyadicIndex(rel *Relation) Index { return index.NewDyadic(rel) }

// KDTreeIndex builds a median-split k-d tree index.
func KDTreeIndex(rel *Relation) Index { return index.NewKDTree(rel) }

// UnionIndex pools several indices over the same relation.
func UnionIndex(indices ...Index) (Index, error) { return index.NewUnion(indices...) }

// Box is a dyadic box: one dyadic interval per attribute.
type Box = dyadic.Box

// Interval is a dyadic interval (a binary prefix string).
type Interval = dyadic.Interval

// ParseBox parses "01,λ,1" notation.
func ParseBox(s string) (Box, error) { return dyadic.ParseBox(s) }
