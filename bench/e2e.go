package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The measured window is cut into equal slices of sliceLength (never
// fewer than minSlices); each end-to-end timing is the median over the
// slices, the tail latency their first quartile.
const (
	sliceLength = 2 * time.Second
	minSlices   = 5
)

// e2eConfig sizes one untraced run. Only the smoke test shrinks it.
type e2eConfig struct {
	tetrisd string        // path of the built daemon
	scratch string        // directory for data dirs, inside the checkout
	warmup  time.Duration // closed loop runs this long before the window
	window  time.Duration // measured window
	setups  int           // set-ups timed; the median is reported
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is what one run of one workload produced.
type runReport struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are the first few failures and the outside-in counters that
	// are not contract metrics, for the human reading the run.
	Notes []string `json:"notes,omitempty"`
}

func (r *runReport) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Notes) < 16 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// bringUp starts a daemon for the workload, loads its relations and
// runs client 0's first op, and reports how long a user waits from
// spawning the daemon to the first correct reply.
func bringUp(w *workload, cfg e2eConfig, dataDir string) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(cfg.tetrisd, dataDir)
	if err != nil {
		return nil, 0, err
	}
	dial := dialTo(d.addr)
	err = loadAll(w, dial)
	if err == nil {
		var s *session
		if s, err = openClient(w, 0, dial); err == nil {
			_, err = runOp(&w.ops[0][0], s, dial)
			if s != nil {
				s.c.Close()
			}
		}
	}
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("set-up: %w\n%s", err, d.tail())
	}
	return d, time.Since(start), nil
}

// clientRun is one closed-loop client's record of the measured window.
type clientRun struct {
	ops       []opSample // one per attempted op
	attempted int
	failed    int
	errs      []string
	// What the client knows about its last write when the daemon is
	// killed under it: the tuple and whether its presence is certain.
	last writeState
}

// opSample is one attempted op of the window: when it ended and how long
// it took. A failed op misses every latency limit: it enters the sample
// at the window length.
type opSample struct {
	end    time.Time
	lat    time.Duration
	failed bool
}

// writeState is a write_refresh client's view of its in-flight tuple.
type writeState struct {
	delta   answer // what the tuple adds to the base result
	present bool   // the append was acknowledged and no delete was sent
	inDoubt bool   // an append or delete was sent and not acknowledged
}

// closedLoop drives one client until stop closes: op after op, the
// next one sent only when the previous final line has arrived, because
// the protocol is strictly request/reply per session. Ops that start
// and end inside [from, to] are the sample.
func closedLoop(w *workload, c int, dial dialer, from, to time.Time, stop <-chan struct{}) *clientRun {
	run := &clientRun{ops: make([]opSample, 0, 1<<16)}
	window := to.Sub(from)
	sess, err := openClient(w, c, dial)
	if err != nil {
		run.attempted, run.failed = 1, 1
		run.errs = append(run.errs, err.Error())
		return run
	}
	defer func() {
		if sess != nil {
			sess.c.Close()
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return run
		default:
		}
		o := &w.ops[c][i%len(w.ops[c])]
		start := time.Now()
		var err error
		if o.rel == "" {
			_, err = runOp(o, sess, dial)
		} else {
			err = run.writeOp(o, sess)
		}
		end := time.Now()
		if end.After(to) && err != nil {
			return run // the daemon was killed after the window
		}
		if err == nil && (start.Before(from) || end.After(to)) {
			continue // outside the window; a failure counts wherever it falls
		}
		run.attempted++
		if err == nil {
			run.ops = append(run.ops, opSample{end: end, lat: end.Sub(start)})
			continue
		}
		run.failed++
		run.ops = append(run.ops, opSample{end: end, lat: window, failed: true})
		if len(run.errs) < 4 {
			run.errs = append(run.errs, err.Error())
		}
		if !o.fresh {
			sess.c.Close()
			if sess, err = openClient(w, c, dial); err != nil {
				run.errs = append(run.errs, "reconnect: "+err.Error())
				return run
			}
		}
	}
}

// writeOp is runOp for write_refresh, keeping the acknowledged state of
// the written tuple so that the post-kill check knows what the restarted
// daemon must serve.
func (run *clientRun) writeOp(o *op, sess *session) error {
	for i := range o.steps {
		st := &o.steps[i]
		write := i%2 == 0 // append, exec, delete, exec
		if write {
			run.last.delta = o.delta
			run.last.inDoubt = true
		}
		if _, err := sess.do(st); err != nil {
			return err
		}
		if write {
			run.last.inDoubt = false
			run.last.present = i == 0
		}
	}
	return nil
}

// percentile returns the q-quantile of sorted durations by the
// nearest-rank rule.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianFloat(v []float64) float64 { return quantileFloat(v, 0.5) }

// quantileFloat returns the q-quantile of v, interpolating linearly
// between the two nearest ranks.
func quantileFloat(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

// runE2E measures one workload against the real daemon with tracing
// off: several timed set-ups, a warm-up, the measured window with two
// closed-loop clients, and for the durable workload a SIGKILL under
// load followed by a restart that must serve the acknowledged state.
func runE2E(w *workload, seed int64, cfg e2eConfig) (*runReport, error) {
	rep := &runReport{Workload: w.name, Seed: seed, Correct: true, Metrics: map[string]metric{}}

	newDataDir := func() (string, error) {
		if !w.durable {
			return "", nil
		}
		if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
			return "", err
		}
		return os.MkdirTemp(cfg.scratch, "data-")
	}

	// Set-up is timed several times, each on a fresh daemon (and a fresh
	// data directory); the last daemon stays up for the run.
	var d *daemon
	var dataDir string
	setups := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.kill()
			os.RemoveAll(dataDir)
		}
		var err error
		if dataDir, err = newDataDir(); err != nil {
			return nil, err
		}
		var took time.Duration
		if d, took, err = bringUp(w, cfg, dataDir); err != nil {
			os.RemoveAll(dataDir)
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		d.kill()
		if dataDir != "" {
			os.RemoveAll(dataDir)
		}
	}()

	from := time.Now().Add(cfg.warmup)
	to := from.Add(cfg.window)
	stop := make(chan struct{})
	runs := make([]*clientRun, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = closedLoop(w, c, dialTo(d.addr), from, to, stop)
		}(c)
	}

	// The daemon's CPU time and memory are sampled at every slice
	// boundary, from the start of the window to its end.
	slices := max(minSlices, int(cfg.window/sliceLength))
	procs := make([]procSample, 0, slices+1)
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(from.Add(cfg.window * time.Duration(i) / time.Duration(slices))))
		p, err := d.sample()
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("daemon gone during the run: %w\n%s", err, d.tail())
		}
		procs = append(procs, p)
	}
	// The program's own counters, read from outside while it still runs.
	stats, statsErr := fetchStats(dialTo(d.addr))
	prom, promErr := d.scrape()

	if w.durable {
		// Kill the daemon under load: the clients keep writing past the
		// window, so each is likely to have a write in flight.
		d.kill()
	}
	close(stop)
	wg.Wait()

	// Every timing is computed per slice and reported as the median of
	// the slices, so that a few bad seconds on a shared host do not decide
	// the run's numbers. The tail is where the host's bursts land, and a
	// burst only ever lengthens an op, so lat_p95_ms is the first quartile
	// of the slices: the tail the program makes is in every slice, the
	// host's in some.
	perSlice := make([][]time.Duration, slices)
	good := make([]int, slices) // correct ops per slice
	for c, r := range runs {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		for _, o := range r.ops {
			i := int(o.end.Sub(from) * time.Duration(slices) / cfg.window)
			i = min(max(i, 0), slices-1) // a failed op may end outside the window
			perSlice[i] = append(perSlice[i], o.lat)
			if !o.failed {
				good[i]++
			}
		}
		for _, e := range r.errs {
			rep.fail("client %d: %s", c, e)
		}
	}
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("no op completed inside the %v window", cfg.window)
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	var rate, p50, p95, cpu, rss []float64
	var all []time.Duration // the whole window, for the p99 in the note
	sliceSeconds := cfg.window.Seconds() / float64(slices)
	for i, lat := range perSlice {
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		rate = append(rate, float64(good[i])/sliceSeconds)
		p50 = append(p50, ms(percentile(lat, 0.50)))
		p95 = append(p95, ms(percentile(lat, 0.95)))
		cpuMs := float64(procs[i+1].cpuTicks-procs[i].cpuTicks) * 1000 / clockTicksPerSecond
		cpu = append(cpu, cpuMs/float64(max(good[i], 1)))
		rss = append(rss, float64(procs[i+1].rssKiB)/1024)
		all = append(all, lat...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	for name, v := range map[string][]float64{
		"ops_per_s": rate, "lat_p50_ms": p50,
		"cpu_ms_per_op": cpu, "rss_mb": rss, "setup_s": setups,
	} {
		rep.Metrics[name] = metric{medianFloat(v), endToEndUnits[name]}
	}
	rep.Metrics["lat_p95_ms"] = metric{quantileFloat(p95, 0.25), endToEndUnits["lat_p95_ms"]}
	rep.Notes = append(rep.Notes, fmt.Sprintf("latency samples: %d in %d slices (each slice's p95 has %d beyond it); whole window p99 %.3f ms, max %.3f ms; VmHWM %.1f MiB",
		rep.Attempted, slices, rep.Attempted/slices/20, ms(percentile(all, 0.99)), ms(all[len(all)-1]), float64(procs[slices].hwmKiB)/1024))

	if statsErr != nil || promErr != nil {
		rep.fail("reading stats/metrics: %v %v", statsErr, promErr)
	} else {
		if stats.Shed+stats.SlowConsumers > 0 {
			rep.fail("daemon shed %d executions and dropped %d slow consumers", stats.Shed, stats.SlowConsumers)
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"daemon counters: admission wait %.3f ms total, exec busy share %.3f, plan hits %d misses %d, index builds %d (delta %d), compactions %d, checkpoints %d",
			prom["tetris_admission_wait_seconds_sum"]*1000,
			prom["tetris_exec_seconds_sum"]/time.Since(d.started).Seconds(),
			stats.PlanHits, stats.PlanMisses, stats.IndexBuilds, stats.DeltaIndexBuilds, stats.Compactions, stats.Checkpoints))
	}

	if w.durable {
		states := make([]writeState, w.clients)
		for c, r := range runs {
			states[c] = r.last
		}
		restart, err := restartAndCheck(w, cfg.tetrisd, dataDir, states)
		if err != nil {
			rep.fail("recovery: %v", err)
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf("restart after SIGKILL: %.1f ms to the acknowledged state", ms(restart)))
		}
	}
	return rep, nil
}

// restartAndCheck restarts the daemon over the directory a SIGKILL left
// behind and requires every maintained statement to serve exactly the
// acknowledged state: the base result, plus the client's last tuple if
// its append was acknowledged, either way if a write was in flight.
// It returns spawn → last correct reply.
func restartAndCheck(w *workload, tetrisd, dataDir string, states []writeState) (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(tetrisd, dataDir)
	if err != nil {
		return 0, err
	}
	defer d.kill()
	s, err := dialTo(d.addr)()
	if err != nil {
		return 0, err
	}
	defer s.c.Close()
	for c := 0; c < w.clients; c++ {
		rep, err := s.roundTrip(requestLine(map[string]any{"op": "exec", "id": w.stmt[c]}))
		if err != nil {
			return 0, fmt.Errorf("%w\n%s", err, d.tail())
		}
		if !rep.final.OK {
			return 0, fmt.Errorf("exec %s after restart: %s", w.stmt[c], rep.final.Err)
		}
		base := w.baseAnswer(c)
		with := base.plus(states[c].delta)
		st := states[c]
		ok := (rep.got == base && (!st.present || st.inDoubt)) || (rep.got == with && (st.present || st.inDoubt))
		if !ok {
			return 0, fmt.Errorf("statement %s after restart: %d tuples (sum %x); acknowledged state is %d tuples (present=%v inDoubt=%v)",
				w.stmt[c], rep.got.tuples, rep.got.sum, base.tuples, st.present, st.inDoubt)
		}
	}
	return time.Since(start), nil
}
