package core

import (
	"context"
	"fmt"
	"sync"

	"tetrisjoin/internal/dyadic"
)

// RunShards executes Tetris under the work-stealing parallel executor.
// The universe is partitioned into 2 × parallelism disjoint dyadic seed
// fragments along the SAO prefix (stealSeeds); workers own deques of
// fragments, and an idle worker steals either a whole pending fragment
// from another deque or — when every deque is empty — by having a busy
// worker donate the SAO-latest untouched node of its remaining region,
// a node of the first-thick-dimension splits the skeleton's own recursion
// takes, at most defaultStealDepth splits deep. Every fragment is
// therefore a node of the sequential recursion tree, keyed by its
// depth-first path; output decomposition over disjoint dyadic boxes is
// exact (Proposition 3.6), so merging completed fragments in key order
// reproduces the sequential run's tuple set AND tuple order byte for
// byte, however the fragments were carved at runtime.
//
// newOracle must return a fresh oracle per call; each worker goroutine
// calls it once and keeps the oracle for every fragment it processes
// (the probe oracle built for validation is reused as worker 0's), so
// implementations may share immutable index structures between oracles
// but must not share probe scratch. MaxResolutions/MaxOutput are
// enforced as budgets shared across all fragments. opts.OnOutput, when
// set, is invoked only from this goroutine (never concurrently), in
// deterministic fragment-key order, as each fragment's buffered results
// become available; returning false cancels the remaining fragments.
// opts.Context cancels the whole run.
//
// Only the plain modes shard (see Mode.Plain); callers must route the LB
// modes through Run.
func RunShards(newOracle func() Oracle, opts Options, parallelism int) (*Result, error) {
	if !opts.Mode.Plain() {
		return nil, errNotPlain("RunShards", opts.Mode)
	}
	if err := opts.checkSpace(); err != nil {
		return nil, err
	}
	if parallelism < 1 {
		return nil, fmt.Errorf("core: RunShards needs parallelism >= 1, got %d", parallelism)
	}
	probe := newOracle()
	n, err := validateOracle(probe)
	if err != nil {
		return nil, err
	}
	sao, err := checkSAO(opts.SAO, n)
	if err != nil {
		return nil, err
	}
	depths := probe.Depths()
	seeds, splittable := stealSeeds(depths, sao, 2*parallelism)
	// Workers beyond the seed count are useful only if seeds can still be
	// split for them; once the space is exhausted into unit boxes they
	// would only ever idle.
	workers := parallelism
	if !splittable {
		workers = min(parallelism, len(seeds))
	}

	// One base for every shard: the skeleton never writes to it, and a
	// Preloaded run's is built here once, not per fragment.
	base, err := opts.runBase(probe, sao)
	if err != nil {
		return nil, err
	}
	defer opts.release(base)

	// Shard options: tuples buffer inside each shard's Result (the merge
	// below replays them in order), limits move into one shared budget,
	// and an internal cancellable context lets a failing or early-stopped
	// shard halt its siblings.
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	budget := effectiveBudget(opts)

	sopts := opts
	sopts.SAO = sao
	sopts.OnOutput = nil
	sopts.Budget = budget
	sopts.MaxResolutions = 0
	sopts.MaxOutput = 0
	sopts.Context = ctx

	sched := newStealScheduler(workers, seeds, defaultStealDepth, sao, depths)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// The probe oracle built for validation (and the shared base) is
		// worker 0's; only the extra workers cost a newOracle call.
		oracle := probe
		if w > 0 {
			oracle = newOracle()
		}
		wg.Add(1)
		go func(w int, o Oracle) {
			defer wg.Done()
			for {
				f := sched.take(w)
				if f == nil {
					return
				}
				fres, ferr := runPlain(o, sopts, sao, []dyadic.Box{f.box}, base, sched.session(w, f))
				if ferr != nil {
					cancel() // stop sibling fragments; the merge sorts out blame
				}
				sched.finish(w, f, fres, ferr)
			}
		}(w, oracle)
	}

	// Merge in fragment-key (depth-first) order as fragments complete:
	// statistics accumulate, and tuples are either appended or replayed
	// through OnOutput serialized right here. stopped records an OnOutput
	// early stop, after which remaining fragments are cancelled and their
	// tuples dropped — matching the sequential contract that nothing is
	// reported past the stop. Fragments donated while the merge head is
	// still running slot in behind it, so the order stays exact.
	res := &Result{}
	stopped := false
	broken := false // some fragment (even a cancelled bystander) has no result
	var delivered int64
	var firstErr, cancelErr error
	for {
		f := sched.nextToMerge()
		if f == nil {
			break
		}
		<-f.done
		if f.err != nil {
			// A context.Canceled fragment was a bystander: it stopped
			// because a sibling failed, the merge stopped early, or the
			// caller's context fired — never blame it over the original
			// cause.
			if f.err == context.Canceled {
				if cancelErr == nil {
					cancelErr = f.err
				}
			} else if firstErr == nil {
				firstErr = f.err
			}
			broken = true
			continue
		}
		// Deliver nothing past an early stop — and nothing past a
		// fragment with no result (failed or cancelled as a bystander): a
		// sequential run would never have reached the region after the
		// failure, and delivering the next fragment with this one's output
		// missing would be a hole in the enumeration.
		if stopped || broken {
			continue
		}
		frag := f.res
		f.res = nil // release the fragment buffer as soon as it is merged
		res.Stats.Merge(frag.Stats)
		if opts.OnOutput == nil {
			res.Tuples = append(res.Tuples, frag.Tuples...)
			continue
		}
		for _, tup := range frag.Tuples {
			delivered++
			if !opts.OnOutput(tup) {
				stopped = true
				cancel()
				break
			}
		}
	}
	wg.Wait()
	// An OnOutput early stop is a clean result even if the caller's
	// context fired afterwards — the sequential engine likewise breaks
	// out on stop without rechecking the context.
	if !stopped {
		if err := parent.Err(); err != nil {
			return nil, err
		}
		if firstErr == nil {
			firstErr = cancelErr // defensive: cancellation with no cause recorded
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}
	if opts.OnOutput != nil {
		res.Stats.Outputs = delivered
	}
	// Executor-shape statistics: per-fragment runs report zeros for
	// these, so setting them here never clobbers merged counters.
	res.Stats.Steals = sched.steals
	res.Stats.ParallelWorkers = int64(workers)
	res.Stats.MaxWorkerResolutions = sched.maxWorkerResolutions()
	// The shared base counts once: shards report only their private
	// knowledge bases.
	base.charge(opts.Mode, &res.Stats)
	return res, nil
}
