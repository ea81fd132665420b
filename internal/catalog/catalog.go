// Package catalog is the serving-side store of the engine: named,
// versioned relations whose gap-box indexes are built once — at ingest
// or on first demand — and shared read-only by every subsequent query,
// plus an LRU cache of prepared plans keyed by (query shape, relation
// versions, SAO).
//
// The one-shot Execute path re-ingests relations, rebuilds indexes and
// re-derives the SAO on every call: the right shape for reproducing the
// paper's single-instance experiments, the wrong shape for serving
// traffic, where Tetris's Õ(#resolutions) cost model (Lemma 4.5) only
// wins once the per-query constant work is amortized away. The catalog
// completes the immutable-shared vs per-worker split of the parallel
// executor vertically: immutable halves (relation snapshots, indexes,
// each plan's base of its gap set B(Q)) now live across queries, not just
// across the workers of one query.
//
// # Version pinning
//
// Ingesting a new version of a relation (Ingest, Append, Delete) never
// mutates the old one: versions are copy-on-write snapshots, indexes
// cover exactly one snapshot, and a prepared plan holds references to
// the snapshot it was planned against. Plans prepared before an update
// therefore keep reading their pinned versions forever; plans prepared
// after see the new version (the old plan-cache entries miss on the new
// version key and age out of the LRU).
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// Options configures a catalog.
type Options struct {
	// PlanCache is the maximum number of prepared plans kept (default
	// 64; negative disables caching).
	PlanCache int
	// DefaultSpecs are index specs maintained eagerly for every ingested
	// relation version, in addition to whatever orders queries demand on
	// the fly. Empty means pure build-on-demand.
	DefaultSpecs []index.Spec
	// CompactDepth is the delta-chain depth at which a relation's index
	// registry is compacted — rebuilt as fresh base indexes — by a
	// background goroutine, off the write path. 0 means the default
	// (defaultCompactDepth); negative disables background compaction,
	// leaving only index.Set.Derive's synchronous depth-cap fallback.
	CompactDepth int
}

const defaultPlanCache = 64

// defaultCompactDepth keeps steady-state chains well under the
// synchronous rebuild cap in index.Set.Derive (16): a trickle of writes
// triggers background folds long before a write would ever pay for a
// full rebuild inline.
const defaultCompactDepth = 8

// Catalog is a concurrency-safe store of named, versioned relations and
// their index registries, with a prepared-plan cache on top. All stored
// state is immutable once published: updates publish new versions,
// readers keep whatever they pinned.
type Catalog struct {
	opts    Options
	builds  atomic.Int64  // total index constructions, all registries
	layered atomic.Int64  // of builds: O(k) delta-layer constructions
	gen     atomic.Uint64 // bumped on every publish; cheap staleness check

	mu    sync.RWMutex
	rels  map[string]*relation.Relation     // current version by name
	sets  map[*relation.Relation]*index.Set // registry per pinned snapshot
	maint map[string]*Maintained            // registered statements by id
	plans *planCache

	// regMu makes MaintainAs's attach-or-create one operation. Only
	// creations take it; lookups and attachments read maint under mu.
	regMu sync.Mutex

	// journal is the durability seam every mutation goes through
	// (journal.go); never nil.
	journal atomic.Pointer[Journal]

	hits, misses atomic.Int64

	// Background delta-chain compaction state (compact.go).
	compactions   atomic.Int64 // completed registry compactions
	compactBuilds atomic.Int64 // of builds: full rebuilds done by the compactor
	compactMu     sync.Mutex
	compacting    map[string]bool // relations with a compaction in flight
	compactWG     sync.WaitGroup

	// execObs, when set, receives one latency sample per prepared or
	// maintained execution (SetExecObserver).
	execObs atomic.Pointer[ExecObserver]
}

// ExecObserver receives one wall-clock latency sample per execution
// through the catalog's serving paths: the version-free query shape
// (relation names and variable bindings, e.g. "R(A,B),R(B,C),R(A,C)"),
// the kind of work ("exec", "count" or "maintained"), and the seconds
// spent. Observers must be cheap and non-blocking — they run inline on
// the execution path; the server wires one into its latency histograms.
type ExecObserver func(shape, kind string, seconds float64)

// SetExecObserver installs (or, with nil, removes) the catalog's
// execution observer. Last writer wins; safe to call concurrently with
// executions.
func (c *Catalog) SetExecObserver(fn ExecObserver) {
	if fn == nil {
		c.execObs.Store(nil)
		return
	}
	c.execObs.Store(&fn)
}

// observeExec reports one completed execution to the observer, if any.
func (c *Catalog) observeExec(shape, kind string, start time.Time) {
	if p := c.execObs.Load(); p != nil {
		(*p)(shape, kind, time.Since(start).Seconds())
	}
}

// New returns an empty catalog with default options.
func New() *Catalog { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty catalog.
func NewWithOptions(opts Options) *Catalog {
	size := opts.PlanCache
	if size == 0 {
		size = defaultPlanCache
	}
	c := &Catalog{
		opts:       opts,
		rels:       map[string]*relation.Relation{},
		sets:       map[*relation.Relation]*index.Set{},
		maint:      map[string]*Maintained{},
		plans:      newPlanCache(size),
		compacting: map[string]bool{},
	}
	c.SetJournal(noJournal{})
	return c
}

// Ingest registers the relation under its own name, replacing any
// current version, and eagerly builds the given index specs (plus the
// catalog's DefaultSpecs) over it. The relation must not be mutated by
// the caller afterwards — the catalog owns the snapshot; grow it through
// Append/Delete, which publish fresh versions. Returns the published
// version stamp.
func (c *Catalog) Ingest(rel *relation.Relation, specs ...index.Spec) (uint64, error) {
	j, err := c.begin()
	if err != nil {
		return 0, err
	}
	defer j.End()
	v, err := c.IngestPrepared(rel, func(set *index.Set) error {
		return set.Ensure(append(append([]index.Spec{}, c.opts.DefaultSpecs...), specs...)...)
	})
	if err != nil {
		return 0, err
	}
	if err := j.Log(Mutation{Op: "ingest", Rel: rel, Specs: specs}); err != nil {
		return 0, err
	}
	return v, nil
}

// IngestPrepared publishes the relation like Ingest, but unjournaled
// and with the caller priming the index registry before it is published
// — the segment-backed recovery path: the durable layer Puts indexes
// loaded from segment files (charging zero builds) and Ensures only the
// specs whose segments were missing or corrupt. DefaultSpecs are NOT
// added implicitly; recovery knows the exact spec list from its manifest
// and is responsible for the full set.
func (c *Catalog) IngestPrepared(rel *relation.Relation, prime func(*index.Set) error) (uint64, error) {
	if rel == nil {
		return 0, fmt.Errorf("catalog: nil relation")
	}
	rel.Tuples() // normalize before publishing: readers must never re-sort
	set := index.NewSet(rel, &c.builds)
	if prime != nil {
		if err := prime(set); err != nil {
			return 0, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.rels[rel.Name()]; ok {
		delete(c.sets, old) // outstanding plans keep their own references
	}
	c.rels[rel.Name()] = rel
	c.sets[rel] = set
	c.gen.Add(1)
	return rel.Version(), nil
}

// IndexSet returns the live index registry for the named relation's
// current version, or nil — the checkpoint freeze path reads built
// indexes out of it without forcing any new builds.
func (c *Catalog) IndexSet(name string) *index.Set {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rel, ok := c.rels[name]
	if !ok {
		return nil
	}
	return c.sets[rel]
}

// Generation returns a counter that increases on every relation publish
// (Ingest, Append, Delete). Callers holding artifacts derived from the
// catalog's current state — e.g. a server session reusing a prepared
// statement for repeated textual queries — compare generations to learn
// in O(1) whether re-preparation could see different data.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// Append publishes a new version of the named relation with the tuples
// added, carrying the previous version's index specs forward (each is
// rebuilt over the new snapshot). Running queries and prepared plans
// pinned to the old version are unaffected.
func (c *Catalog) Append(name string, tuples ...relation.Tuple) (uint64, error) {
	return c.update("append", name, tuples)
}

// Delete publishes a new version of the named relation with the tuples
// removed (absent tuples are ignored).
func (c *Catalog) Delete(name string, tuples ...relation.Tuple) (uint64, error) {
	return c.update("delete", name, tuples)
}

// update derives and publishes a new version of a named relation,
// carrying the maintained index specs onto the new snapshot (a serving
// catalog keeps the same access paths warm across versions instead of
// rediscovering them query by query). The carried specs are realized by
// delta layering (index.Set.Derive): a k-tuple append or delete costs
// O(k) per spec — a small layer composed over the prior version's
// immutable build — not a full O(N) rebuild, which is what makes a
// 1-tuple write to a large relation cheap. Writers race optimistically:
// the derive-and-build work happens outside the lock, and a writer that
// loses the publish race simply retries over the new current version,
// so concurrent appends both land instead of one failing. (A journal
// that serializes mutations in Begin never sees that race.)
func (c *Catalog) update(op, name string, tuples []relation.Tuple) (uint64, error) {
	j, err := c.begin()
	if err != nil {
		return 0, err
	}
	defer j.End()
	derive := (*relation.Relation).WithInserted
	if op == "delete" {
		derive = (*relation.Relation).WithDeleted
	}
	for {
		c.mu.RLock()
		cur, ok := c.rels[name]
		var prevSet *index.Set
		if ok {
			prevSet = c.sets[cur]
		}
		c.mu.RUnlock()
		if !ok {
			return 0, fmt.Errorf("catalog: unknown relation %q", name)
		}
		next, err := derive(cur, tuples...)
		if err != nil {
			return 0, err
		}
		next.Tuples() // normalize before publishing
		var set *index.Set
		if prevSet != nil {
			if d, ok := next.DeltaSince(cur.Version()); ok {
				derived, layered, _, err := prevSet.Derive(next, d)
				if err != nil {
					return 0, err
				}
				set = derived
				c.layered.Add(int64(layered))
			}
		}
		if set == nil {
			// No prior registry or no reconstructible delta: rebuild the
			// carried specs in full over the new snapshot.
			set = index.NewSet(next, &c.builds)
			if prevSet != nil {
				if err := set.Ensure(prevSet.SpecList()...); err != nil {
					return 0, err
				}
			}
		}
		c.mu.Lock()
		if c.rels[name] != cur {
			c.mu.Unlock()
			continue // lost the publish race; re-derive from the winner
		}
		delete(c.sets, cur)
		c.rels[name] = next
		c.sets[next] = set
		c.gen.Add(1)
		c.mu.Unlock()
		// Deep chains are folded off the write path: the publish above is
		// done, the compactor swaps in fresh base indexes asynchronously.
		if th := c.compactDepth(); th > 0 && set.MaxLayerDepth() >= th {
			c.scheduleCompact(name)
		}
		if err := j.Log(Mutation{Op: op, Name: name, Tuples: tuples}); err != nil {
			return 0, err
		}
		return next.Version(), nil
	}
}

// Relation returns the current version of the named relation.
func (c *Catalog) Relation(name string) (*relation.Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.rels[name]
	return r, ok
}

// Names returns the registered relation names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.rels))
	for n := range c.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Specs returns the index specs currently maintained for the named
// relation's registry — what a checkpoint must record so recovery can
// rebuild the same access paths eagerly.
func (c *Catalog) Specs(name string) []index.Spec {
	if set := c.IndexSet(name); set != nil {
		return set.SpecList()
	}
	return nil
}

// snapshot returns the current name → relation view for query parsing.
func (c *Catalog) snapshot() map[string]*relation.Relation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*relation.Relation, len(c.rels))
	for n, r := range c.rels {
		out[n] = r
	}
	return out
}

// Parse parses "R(A,B), S(B,C)" notation against the catalog's current
// relation versions. The returned query is pinned to those versions.
func (c *Catalog) Parse(query string) (*join.Query, error) {
	return join.Parse(query, c.snapshot())
}

// setFor returns the index registry pinned to the given relation
// snapshot, creating one for snapshots the catalog has not seen (the
// path taken by PrepareQuery over externally built relations).
func (c *Catalog) setFor(rel *relation.Relation) *index.Set {
	c.mu.RLock()
	set, ok := c.sets[rel]
	c.mu.RUnlock()
	if ok {
		return set
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if set, ok := c.sets[rel]; ok {
		return set
	}
	// Normalize under the lock: two first-time preparations over the
	// same external unsorted relation must not race in its lazy sort.
	rel.Tuples()
	c.evictExternalSetsLocked() // before the add, so the new set survives
	set = index.NewSet(rel, &c.builds)
	c.sets[rel] = set
	return set
}

// externalSetCap bounds registries for snapshots that are not current
// named versions (external relations planned via PrepareQuery): a
// long-lived catalog fed per-request relations must not grow without
// bound. Eviction only drops the cache's reference — plans keep their
// own — at worst costing a rebuild on a later cold preparation.
const externalSetCap = 256

// evictExternalSetsLocked trims c.sets to current named versions plus
// at most externalSetCap external snapshots. Callers hold c.mu.
func (c *Catalog) evictExternalSetsLocked() {
	extra := len(c.sets) - len(c.rels) - externalSetCap
	if extra <= 0 {
		return
	}
	current := make(map[*relation.Relation]bool, len(c.rels))
	for _, r := range c.rels {
		current[r] = true
	}
	for rel := range c.sets {
		if extra <= 0 {
			return
		}
		if !current[rel] {
			delete(c.sets, rel)
			extra--
		}
	}
}

// source is the catalog's join.IndexSource: ad-hoc specs resolve
// through the per-snapshot registries with build-on-demand and caching,
// so whatever family the planner picks is built once per snapshot and
// shared across prepared queries.
type source struct{ c *Catalog }

func (s source) IndexFor(rel *relation.Relation, spec index.Spec) (index.Index, bool, error) {
	return s.c.setFor(rel).Get(spec)
}

// IndexBuilds returns the total number of index constructions the
// catalog has performed since creation (eager, on-demand, and delta
// layers).
func (c *Catalog) IndexBuilds() int64 { return c.builds.Load() }

// DeltaIndexBuilds returns how many of those constructions were O(k)
// delta layers rather than full builds.
func (c *Catalog) DeltaIndexBuilds() int64 { return c.layered.Load() }

// Stats is a point-in-time summary of the catalog.
type Stats struct {
	// Relations is the number of named relations currently registered.
	Relations int
	// IndexSets is the number of pinned snapshots with a registry
	// (current versions plus externally planned snapshots).
	IndexSets int
	// IndexBuilds is the lifetime index construction count.
	IndexBuilds int64
	// DeltaIndexBuilds is the portion of IndexBuilds that were O(k)
	// delta layers composed over a prior version's build (Append/Delete
	// carrying maintained specs forward) rather than full O(N)
	// constructions. IndexBuilds − DeltaIndexBuilds is therefore the
	// full-build count — the quantity incremental maintenance keeps flat
	// under a trickle of writes.
	DeltaIndexBuilds int64
	// PlansCached is the number of prepared plans in the cache.
	PlansCached int
	// PlanHits and PlanMisses count Prepare cache outcomes.
	PlanHits, PlanMisses int64
	// Compactions counts completed background registry compactions;
	// CompactionBuilds the full index rebuilds they performed (included
	// in IndexBuilds, but off the write path). IndexBuilds −
	// DeltaIndexBuilds − CompactionBuilds is therefore the synchronous
	// full-build count a steady write stream must keep flat.
	Compactions, CompactionBuilds int64
}

// Stats returns a snapshot of the catalog's counters.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Relations:        len(c.rels),
		IndexSets:        len(c.sets),
		IndexBuilds:      c.builds.Load(),
		DeltaIndexBuilds: c.layered.Load(),
		PlansCached:      c.plans.Len(),
		PlanHits:         c.hits.Load(),
		PlanMisses:       c.misses.Load(),
		Compactions:      c.compactions.Load(),
		CompactionBuilds: c.compactBuilds.Load(),
	}
}
