package core

import (
	"fmt"

	"tetrisjoin/internal/dyadic"
)

// StealSim is what SimulateSteal reports: each worker's resolutions, the
// fragments donated, and the tuples of every fragment merged in key order.
type StealSim struct {
	Resolutions []int64
	Steals      int64
	Tuples      [][]uint64
}

// Share is the max/mean balance share of the simulated run: 1.0 is a
// perfectly balanced run, len(Resolutions) means one worker did
// everything.
func (s StealSim) Share() float64 {
	var total, busiest int64
	for _, r := range s.Resolutions {
		total += r
		busiest = max(busiest, r)
	}
	return float64(busiest) * float64(len(s.Resolutions)) / float64(total)
}

// SimulateSteal runs RunShards' scheduler with the test, not the Go
// runtime, deciding who moves: the workers go in lockstep, and on each
// turn every busy worker, in worker order, settles one unit box. A worker
// with nothing to run first takes a fragment as RunShards' would (its own
// deque's front, else the fullest victim's back); one that finds none is a
// waiter for the turn, which is the demand a running pass donates to.
// Only one pass runs at any moment, so the numbers do not depend on
// GOMAXPROCS or on timing. With donate false every session is nil: nobody
// donates, and the workers share out the seeds alone — the static
// schedule stealing is measured against. Exported for the external
// balance test, whose oracles come from package join.
func SimulateSteal(newOracle func() Oracle, opts Options, workers int, donate bool) (StealSim, error) {
	probe := newOracle()
	sao, err := checkSAO(opts.SAO, probe.Dims())
	if err != nil {
		return StealSim{}, err
	}
	opts.SAO = sao
	depths := probe.Depths()
	seeds, _ := stealSeeds(depths, sao, 2*workers)
	sched := newStealScheduler(workers, seeds, defaultStealDepth, sao, depths)
	base, err := opts.runBase(probe, sao)
	if err != nil {
		return StealSim{}, err
	}
	defer opts.release(base)

	// A running fragment's pass is a goroutine that blocks before every
	// unit it settles until its worker's turn comes: resume lets it run to
	// its next unit, where it reports false on yield, or to its end, where
	// it reports true.
	yield := make(chan bool)
	type running struct {
		f      *fragment
		resume chan struct{}
	}
	oracles := make([]Oracle, workers)
	for w := range oracles {
		oracles[w] = probe
		if w > 0 {
			oracles[w] = newOracle()
		}
	}
	start := func(w int, f *fragment) (running, error) {
		var sess *stealSession
		if donate {
			sess = sched.session(w, f)
		}
		sk, run, err := newPass(oracles[w], opts, sao, []dyadic.Box{f.box}, base, sess)
		if err != nil {
			return running{}, err
		}
		r := running{f, make(chan struct{})}
		settle := sk.settleUnit
		sk.settleUnit = func(b dyadic.Box) (dyadic.Box, error) {
			yield <- false
			<-r.resume
			return settle(b)
		}
		go func() {
			<-r.resume
			f.res, f.err = run()
			yield <- true
		}()
		return r, nil
	}
	// step lets w's pass run to its next unit, or to its end: then w is
	// idle again, charged with the fragment's resolutions.
	busy := make([]*running, workers)
	step := func(w int) error {
		busy[w].resume <- struct{}{}
		if !<-yield {
			return nil
		}
		f := busy[w].f
		busy[w] = nil
		if f.err != nil {
			return f.err
		}
		sched.workerRes[w] += f.res.Stats.Resolutions
		return nil
	}
	for {
		waiters := 0
		for w := range busy {
			if busy[w] != nil {
				continue
			}
			f := sched.pop(w)
			if f == nil {
				waiters++
				continue
			}
			r, err := start(w, f)
			if err != nil {
				return StealSim{}, err
			}
			busy[w] = &r
			// Run up to the first unit, so that this turn settles one.
			if err := step(w); err != nil {
				return StealSim{}, err
			}
		}
		if waiters == workers {
			break
		}
		sched.waiters = waiters
		sched.syncDemand()
		for w := range busy {
			if busy[w] == nil {
				continue
			}
			if err := step(w); err != nil {
				return StealSim{}, err
			}
		}
	}
	out := StealSim{Resolutions: sched.workerRes, Steals: sched.steals}
	for f := sched.nextToMerge(); f != nil; f = sched.nextToMerge() {
		if f.res == nil {
			return StealSim{}, fmt.Errorf("core: fragment %v never ran", f.box)
		}
		out.Tuples = append(out.Tuples, f.res.Tuples...)
	}
	return out, nil
}
