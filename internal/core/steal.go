package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tetrisjoin/internal/dyadic"
)

// Process-wide executor telemetry, mirrored by the serving layer's
// /metrics page (tetris_shard_steals_total, tetris_worker_busy). They
// aggregate across every concurrent RunShards call in the process; the
// per-run numbers live in Stats.
var (
	stealsTotal atomic.Int64
	busyWorkers atomic.Int64
)

// StealsTotal returns the process-lifetime count of dynamic shard
// splits performed by the work-stealing executor.
func StealsTotal() int64 { return stealsTotal.Load() }

// BusyWorkers returns the number of executor workers currently running
// a shard fragment, across all in-flight RunShards calls.
func BusyWorkers() int64 { return busyWorkers.Load() }

// defaultStealDepth is the executor's dynamic-splitting depth bound:
// fragments may be carved at most this many binary splits below the
// universe. Deep enough that donation never starves on realistic spaces
// (a depth-24 subbox is 1/2^24 of the space), shallow enough that a
// nearly-finished region is not shredded into unit-box fragments whose
// per-fragment setup outweighs the work. Below 64, so every fragment's
// path fits a dfsPath.
const defaultStealDepth = 24

// dfsPath names a node of the sequential recursion tree by its path from
// the universe: depth binary splits, left-aligned in bits (the first split
// is bit 63), each 0 for the SAO-earlier half and 1 for the SAO-later one.
// less is depth-first order: compare the bits, and on a tie put the
// shorter path first — the lexicographic order of the step sequences,
// prefixes first. A path past 64 splits saturates: it lies below every
// donation bound, is never donated, and carries no key, only its depth.
type dfsPath struct {
	bits  uint64
	depth uint8
}

// child is the path to p's SAO-earlier (side 0) or SAO-later (side 1)
// half.
func (p dfsPath) child(side uint64) dfsPath {
	if p.depth >= 64 {
		return p
	}
	return dfsPath{p.bits | side<<(63-p.depth), p.depth + 1}
}

func (p dfsPath) less(q dfsPath) bool {
	return p.bits < q.bits || p.bits == q.bits && p.depth < q.depth
}

// fragment is one unit of executor work: a dyadic box that is a node of
// the sequential recursion tree, keyed by its depth-first path from the
// universe. A splitting worker always keeps the SAO-earlier side, so a
// fragment's key remains the minimum over its whole subtree and key order
// is exactly the SAO-lexicographic order of the fragments' output ranges:
// merging completed fragments in key order reproduces the sequential
// enumeration byte for byte.
type fragment struct {
	key  dfsPath
	box  dyadic.Box
	res  *Result
	err  error
	done chan struct{}
}

// stealScheduler coordinates one RunShards run: per-worker deques of
// pending fragments, a registry of every not-yet-merged fragment (the
// merger's deterministic order source), and the donation machinery by
// which idle workers split running regions. One mutex guards all
// scheduling state; the check a running worker performs per settled
// unit box is a single atomic load of demand, so checkpoints cost
// nothing while every worker is busy.
type stealScheduler struct {
	sao      []int
	depths   []uint8
	maxDepth uint8 // donated fragments may sit at most this deep

	demand atomic.Int32 // waiters - pending, mirrored from under mu

	mu        sync.Mutex
	cond      *sync.Cond
	deques    [][]*fragment // per-worker pending fragments, sorted by key
	registry  []*fragment   // every unmerged fragment, sorted by key
	pending   int           // fragments sitting in deques
	active    int           // fragments currently executing
	waiters   int           // workers blocked in take
	steals    int64         // fragments created by donation
	workerRes []int64       // resolutions finished per worker (balance stat)
}

// newStealScheduler seeds the scheduler with the initial fragments,
// distributed as contiguous key-order blocks so worker 0 starts on the
// SAO-earliest region (the one the merger needs first).
func newStealScheduler(workers int, seeds []*fragment, maxDepth uint8, sao []int, depths []uint8) *stealScheduler {
	s := &stealScheduler{
		sao:       sao,
		depths:    depths,
		maxDepth:  maxDepth,
		deques:    make([][]*fragment, workers),
		registry:  append([]*fragment(nil), seeds...),
		pending:   len(seeds),
		workerRes: make([]int64, workers),
	}
	s.cond = sync.NewCond(&s.mu)
	per := (len(seeds) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := min(w*per, len(seeds))
		hi := min(lo+per, len(seeds))
		s.deques[w] = append([]*fragment(nil), seeds[lo:hi]...)
	}
	return s
}

// syncDemand mirrors waiters-pending into the lock-free fast-path
// atomic. Callers hold mu.
func (s *stealScheduler) syncDemand() {
	s.demand.Store(int32(s.waiters - s.pending))
}

// insertLocked files a freshly donated fragment under its key: sorted
// into the donor's own deque (the donor keeps the earlier work; a thief
// takes from the back) and into the merge registry. Callers hold mu.
func (s *stealScheduler) insertLocked(w int, f *fragment) {
	q := s.deques[w]
	i := sort.Search(len(q), func(i int) bool { return f.key.less(q[i].key) })
	s.deques[w] = append(q[:i:i], append([]*fragment{f}, q[i:]...)...)
	r := s.registry
	i = sort.Search(len(r), func(i int) bool { return f.key.less(r[i].key) })
	s.registry = append(r[:i:i], append([]*fragment{f}, r[i:]...)...)
	s.pending++
	s.steals++
	stealsTotal.Add(1)
	s.syncDemand()
}

// pop removes the next fragment for worker w: the front (smallest key)
// of its own deque, else the back (largest key — the work farthest from
// the merge frontier) of the fullest victim deque. Callers hold mu.
func (s *stealScheduler) pop(w int) *fragment {
	if q := s.deques[w]; len(q) > 0 {
		f := q[0]
		s.deques[w] = q[1:]
		s.pending--
		s.syncDemand()
		return f
	}
	victim := -1
	for v := range s.deques {
		if v != w && len(s.deques[v]) > 0 &&
			(victim == -1 || len(s.deques[v]) > len(s.deques[victim])) {
			victim = v
		}
	}
	if victim == -1 {
		return nil
	}
	q := s.deques[victim]
	f := q[len(q)-1]
	s.deques[victim] = q[:len(q)-1]
	s.pending--
	s.syncDemand()
	return f
}

// take blocks until worker w has a fragment to run, or returns nil when
// the run is over: no fragment is pending anywhere and none is active,
// so no donation can ever produce more work.
func (s *stealScheduler) take(w int) *fragment {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if f := s.pop(w); f != nil {
			s.active++
			busyWorkers.Add(1)
			return f
		}
		if s.active == 0 {
			return nil
		}
		s.waiters++
		s.syncDemand()
		s.cond.Wait()
		s.waiters--
		s.syncDemand()
	}
}

// finish records a fragment's outcome and releases its merger.
func (s *stealScheduler) finish(w int, f *fragment, res *Result, err error) {
	f.res, f.err = res, err
	s.mu.Lock()
	s.active--
	if res != nil {
		s.workerRes[w] += res.Stats.Resolutions
	}
	wake := s.active == 0
	s.mu.Unlock()
	busyWorkers.Add(-1)
	close(f.done)
	if wake {
		// Waiters must re-check termination; donations already woke them.
		s.cond.Broadcast()
	}
}

// nextToMerge hands the merger the smallest-key unmerged fragment, nil
// when the run is fully merged. Every fragment enters the registry at
// creation and leaves only here, and the merger waits each fragment to
// completion before asking again — so an empty registry means every
// fragment ever created has been merged, hence nothing is running,
// hence no donation can add more: the run is over. A fragment donated
// by the one currently being waited on carries a key strictly between
// it and the next registry entry, so in-order delivery still holds.
func (s *stealScheduler) nextToMerge() *fragment {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.registry) == 0 {
		return nil
	}
	f := s.registry[0]
	s.registry = s.registry[1:]
	return f
}

// maxWorkerResolutions returns the busiest worker's resolution count.
// Call only after every worker has finished (RunShards calls it past
// wg.Wait, which orders the reads).
func (s *stealScheduler) maxWorkerResolutions() int64 {
	var m int64
	for _, r := range s.workerRes {
		m = max(m, r)
	}
	return m
}

// stealSession is the per-running-fragment donation state a worker
// threads into runPlain: the fragment's key and a flag set once nothing
// the pass has left can be donated within the depth bound.
type stealSession struct {
	s         *stealScheduler
	w         int
	key       dfsPath
	exhausted bool
}

// session starts a donation session for fragment f running on worker w.
func (s *stealScheduler) session(w int, f *fragment) *stealSession {
	return &stealSession{s: s, w: w, key: f.key}
}

// wanted reports whether unwinding to a donation checkpoint could help:
// some worker is starved and this region can still be split. Lock-free;
// runPlain polls it per settled unit box to decide whether to unwind.
func (ss *stealSession) wanted() bool {
	return !ss.exhausted && ss.s.demand.Load() > 0
}

// entry is a node of the sequential recursion tree that a pass has yet to
// enter, keyed by its DFS path from the universe like a fragment.
type entry struct {
	box  dyadic.Box
	path dfsPath
}

// after is what is left of e once the pass has settled the point last in
// it: the right siblings along last's Split-First-Thick-Dimension path
// from e down to the unit, in SAO order (deepest first). Every point of e
// before last is settled, every point in these siblings is untouched, and
// inside a line they are the dyadic segments after last.
func (e entry) after(last []uint64, sao []int, depths []uint8) []entry {
	var rest []entry
	box, path := e.box, e.path
	for dim := box.FirstThick(sao, depths); dim != -1; dim = box.FirstThick(sao, depths) {
		r0, r1 := box.SplitAt(dim)
		if r1.ContainsPoint(last, depths) {
			box, path = r1, path.child(1)
			continue
		}
		rest = append(rest, entry{r1, path.child(1)})
		box, path = r0, path.child(0)
	}
	slices.Reverse(rest)
	return rest
}

// offer is the work-stealing checkpoint, called by runPlain before it
// enters the next entry of its work list — all of whose entries are
// untouched, in SAO order. When idle workers outnumber pending fragments
// it donates the SAO-latest entry — splitting a lone entry first and
// donating its later half — as a fragment keyed by its DFS path, and
// returns what the caller keeps. Later entries are never deeper than
// earlier ones, and an entry is only ever replaced by deeper ones, so once
// the last entry sits below the depth bound nothing can be donated again.
func (ss *stealSession) offer(work []entry) []entry {
	s := ss.s
	if ss.exhausted || s.demand.Load() <= 0 {
		return work
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.waiters <= s.pending {
		return work // the demand was satisfied while we took the lock
	}
	if len(work) == 1 {
		e := work[0]
		dim := e.box.FirstThick(s.sao, s.depths)
		if dim == -1 || e.path.depth >= s.maxDepth {
			ss.exhausted = true
			return work
		}
		r0, r1 := e.box.SplitAt(dim)
		work = []entry{{r0, e.path.child(0)}, {r1, e.path.child(1)}}
	}
	e := work[len(work)-1]
	if e.path.depth > s.maxDepth {
		ss.exhausted = true
		return work
	}
	s.insertLocked(ss.w, &fragment{key: e.path, box: e.box, done: make(chan struct{})})
	s.cond.Broadcast()
	return work[:len(work)-1]
}

// stealSeeds builds the initial fragment set: at least `count` disjoint
// dyadic boxes whose union is the universe, made by splitting every box at
// its first thick dimension in SAO order — the top levels of the
// skeleton's own recursion — with each box's DFS path as its merge key.
// The seeds come out in key order, and the count is rounded up to a
// power of two; fewer come out only when the whole space has fewer points.
// The second result reports whether any seed can still be split (false
// only when the whole space was exhausted into unit boxes, in which case
// dynamic splitting has nothing to do and extra workers are useless).
func stealSeeds(depths []uint8, sao []int, count int) ([]*fragment, bool) {
	seeds := []*fragment{{box: dyadic.Universe(len(depths)), done: make(chan struct{})}}
	for len(seeds) < count {
		next := make([]*fragment, 0, 2*len(seeds))
		split := false
		for _, f := range seeds {
			dim := f.box.FirstThick(sao, depths)
			if dim == -1 {
				next = append(next, f)
				continue
			}
			b0, b1 := f.box.SplitAt(dim)
			next = append(next,
				&fragment{key: f.key.child(0), box: b0, done: make(chan struct{})},
				&fragment{key: f.key.child(1), box: b1, done: make(chan struct{})})
			split = true
		}
		seeds = next
		if !split {
			return seeds, false // every box is a unit box; the space is exhausted
		}
	}
	splittable := false
	for _, f := range seeds {
		if f.box.FirstThick(sao, depths) != -1 {
			splittable = true
			break
		}
	}
	return seeds, splittable
}
