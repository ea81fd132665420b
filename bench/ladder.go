package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/durable"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/server"
	"tetrisjoin/internal/wal"
)

// The traced run replays the generated ops in-process down a ladder of
// public entry points, one rung per layer boundary:
//
//	0  server.request  request lines through server.Serve on a loopback listener
//	1  catalog.exec    the catalog call the request maps to
//	2  join.execute    parse, decide, prepare, Plan.Execute
//	3  core.run        core.Run over the plan's oracle
//	4  replays         boxtree, index, dyadic, relation, wal, segment, durable
//
// Rung k+1 is rung k's callee called directly with the same input, so
// rung k's duration minus rung k+1's is layer k's own time. It is
// single-client and count-bound, so that counts repeat exactly.

// ladderConfig sizes one traced run. Only the smoke test shrinks it.
type ladderConfig struct {
	tetrisd string // built daemon, for durable.restart_ms
	scratch string // directory for data dirs, inside the checkout
	outDir  string // where trace-<workload>.json goes
	ops     int    // ops per rung; 0 = the workload's own count
}

// rungSample is one op on one rung.
type rungSample struct {
	dur         time.Duration
	children    time.Duration // busy time of the child spans bench owns
	resolutions int64
	outputs     int64
}

// sink is the OnOutput callback of rungs 1–3. It does what the protocol
// client does with a tuple line — count it and fold it into the
// checksum — so every rung's answer is checked against the reference
// join. With timed set it also measures itself (client.sink).
type sink struct {
	got   answer
	timed bool
	busy  tally
}

func (s *sink) reset() { s.got = answer{}; s.busy.take() }

func (s *sink) onOutput(t []uint64) bool {
	if !s.timed {
		s.got.tuples++
		s.got.sum += lineHash(tupleLine(t))
		return true
	}
	start := time.Now()
	s.got.tuples++
	s.got.sum += lineHash(tupleLine(t))
	s.busy.add(start, time.Now(), 0)
	return true
}

// harness is the in-process server of rung 0 with its bench-owned
// wrappers.
type harness struct {
	srv     *server.Server
	dur     *durable.Catalog
	fs      *timedFS
	dataDir string
	plain   dialer
	timed   dialer
	writes  tally
	serving sync.WaitGroup
}

// newHarness builds the server the way cmd/tetrisd does for the
// benchmark's flags (-max-concurrent 2, everything else default) and
// serves it on two loopback listeners: a plain one and one whose
// connections tally their writes.
func newHarness(w *workload, scratch string) (*harness, error) {
	h := &harness{}
	cfg := server.Config{MaxConcurrent: admissionSlots, Parallelism: 1}
	if w.durable {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratch, "ladder-")
		if err != nil {
			return nil, err
		}
		dfs, err := wal.NewDirFS(dir)
		if err != nil {
			return nil, err
		}
		h.dataDir, h.fs = dir, &timedFS{FS: dfs}
		if h.dur, err = durable.Open(dir, durable.Options{FS: h.fs}); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		h.srv = server.NewDurable(h.dur, cfg)
	} else {
		h.srv = server.New(catalog.New(), cfg)
	}
	listen := func(wrap bool) (dialer, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		if wrap {
			l = timedListener{l, &h.writes}
		}
		h.serving.Add(1)
		go func() {
			defer h.serving.Done()
			h.srv.Serve(l) // returns nil once the server is closed
		}()
		return dialTo(addr), nil
	}
	var err error
	if h.plain, err = listen(false); err == nil {
		h.timed, err = listen(true)
	}
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops the server and waits for its listeners; the data
// directory stays for the recovery replays.
func (h *harness) close() error {
	h.srv.Close()
	h.serving.Wait()
	if h.dur != nil {
		return h.dur.Close()
	}
	return nil
}

// scrape reads the in-process server's /metrics page: its public
// output, through its public handler.
func (h *harness) scrape() (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return promSums(rec.Body)
}

// ladder is the state of one traced run.
type ladder struct {
	w     *workload
	cfg   ladderConfig
	n     int // ops per rung
	tr    *tracer
	h     *harness
	rep   *runReport
	rungs [4][]rungSample
	// parents[i] is the span id of op i on the previous rung.
	parents []int
	// extra holds named per-call durations that become *_us medians.
	extra map[string][]time.Duration
}

func (l *ladder) op(i int) *op { return &l.w.ops[0][i%len(l.w.ops[0])] }

func (l *ladder) set(name string, v float64) { l.rep.Metrics[name] = metric{v, layerUnits[name]} }

func (l *ladder) timing(name string, d time.Duration) { l.extra[name] = append(l.extra[name], d) }

// record stores op i's sample on a rung and its span, parented to the
// same op's span on the rung above.
func (l *ladder) record(rung int, name string, i int, start, end time.Time, s rungSample, counts map[string]int64) int {
	s.dur = end.Sub(start)
	l.rungs[rung] = append(l.rungs[rung], s)
	parent := 0
	if rung > 0 {
		parent = l.parents[i]
	}
	if counts == nil {
		counts = map[string]int64{}
	}
	counts["resolutions"], counts["outputs"] = s.resolutions, s.outputs
	return l.tr.record(name, i, parent, start, end, counts)
}

// runLadder runs the traced ladder for one workload and reports every
// per-layer metric.
func runLadder(w *workload, seed int64, cfg ladderConfig) (*runReport, error) {
	l := &ladder{
		w: w, cfg: cfg, n: cfg.ops, tr: newTracer(),
		rep:   &runReport{Workload: w.name, Seed: seed, Correct: true, Metrics: map[string]metric{}},
		extra: map[string][]time.Duration{},
	}
	if l.n == 0 {
		l.n = w.tracedOps
	}
	for name := range layerUnits {
		l.set(name, 0) // a layer the workload does not reach reports 0
	}
	h, err := newHarness(w, cfg.scratch)
	if err != nil {
		return nil, err
	}
	l.h = h
	if h.dataDir != "" {
		defer os.RemoveAll(h.dataDir)
	}
	err = l.run()
	if cerr := h.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if w.durable {
		if err := l.recoveryReplays(); err != nil {
			return nil, err
		}
	}
	l.derive()
	l.rep.Attempted = len(l.rungs[0])
	if err := l.writeTrace(); err != nil {
		return nil, err
	}
	return l.rep, nil
}

// run drives rungs 0–4 against the live harness.
func (l *ladder) run() error {
	w, h := l.w, l.h
	if err := loadAll(w, h.plain); err != nil {
		return err
	}
	// Register every client's statement, so that the durable directory
	// the run leaves behind holds what a daemon restart must serve.
	for c := 1; c < w.clients; c++ {
		s, err := openClient(w, c, h.plain)
		if err != nil {
			return err
		}
		if s != nil {
			s.c.Close()
		}
	}

	// Warm-up: one cycle of the client's ops (at least 16), so that
	// on-demand indexes exist before anything is timed.
	if err := l.warmUp(max(16, min(len(w.ops[0]), l.n))); err != nil {
		return err
	}
	if err := l.rung0(l.n); err != nil {
		return err
	}
	if err := l.sessionSetup(); err != nil {
		return err
	}
	if err := l.clientCost(); err != nil {
		return err
	}

	switch w.name {
	case "prepared_star":
		return l.starRungs()
	case "view_stream":
		return l.viewRungs()
	case "adhoc_reloaded":
		return l.adhocRungs()
	default:
		return l.writeRungs()
	}
}

func durations(s []rungSample) []time.Duration {
	out := make([]time.Duration, len(s))
	for i := range s {
		out[i] = s[i].dur
	}
	return out
}

// warmUp sends n ops through the protocol without recording anything.
func (l *ladder) warmUp(n int) error {
	sess, err := openClient(l.w, 0, l.h.plain)
	if err != nil {
		return err
	}
	if sess != nil {
		defer sess.c.Close()
	}
	for i := 0; i < n; i++ {
		if _, err := runOp(l.op(i), sess, l.h.plain); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// rung0 sends n ops through the protocol, alternating two sessions op
// by op — one on the plain listener with the storage wrapper off, one on
// the timed listener with it on — so that both sides of
// trace.overhead_ratio see the same machine state. The timed side
// records spans and per-op tallies, and the pass is bracketed by the
// server's stats op and /metrics page. The plain side runs half a cycle
// ahead, so that on adhoc_reloaded it never warms the plan cache for the
// timed side.
func (l *ladder) rung0(n int) error {
	w, h := l.w, l.h
	stats0, err := fetchStats(h.plain)
	if err != nil {
		return err
	}
	prom0, err := h.scrape()
	if err != nil {
		return err
	}
	var sess [2]*session // plain, timed
	for side, dial := range []dialer{h.plain, h.timed} {
		if sess[side], err = openClient(w, 0, dial); err != nil {
			return err
		}
		if sess[side] != nil {
			defer sess[side].c.Close()
		}
	}

	l.parents = make([]int, n)
	plain := make([]time.Duration, 0, n)
	var connWrites, walWrites, walSyncs tallySnap // summed over the timed ops
	var reqBytes, respBytes int
	passStart := time.Now()
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := runOp(l.op(i+len(w.ops[0])/2), sess[0], h.plain); err != nil {
			return fmt.Errorf("rung 0 plain op %d: %w", i, err)
		}
		plain = append(plain, time.Since(start))

		h.writes.take()
		if h.fs != nil {
			h.fs.writes.take()
			h.fs.syncs.take()
			h.fs.on.Store(true)
		}
		start = time.Now()
		res, err := runOp(l.op(i), sess[1], h.timed)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("rung 0 op %d: %w", i, err)
		}
		cw := h.writes.take()
		s := rungSample{children: cw.busy, resolutions: res.resolutions, outputs: res.outputs}
		var ww, ws tallySnap
		if h.fs != nil {
			h.fs.on.Store(false)
			// Storage time belongs to the rung below: it is inside the
			// catalog call, so it is not subtracted from the server's own.
			ww, ws = h.fs.writes.take(), h.fs.syncs.take()
		}
		id := l.record(0, "server.request", i, start, end, s, map[string]int64{
			"req_bytes": int64(res.reqBytes), "resp_bytes": int64(res.respBytes),
		})
		l.parents[i] = id
		cw.emit(l.tr, "server.conn_write", i, id)
		ww.emit(l.tr, "wal.write", i, id)
		ws.emit(l.tr, "wal.sync", i, id)
		connWrites.merge(cw)
		walWrites.merge(ww)
		walSyncs.merge(ws)
		reqBytes += res.reqBytes
		respBytes += res.respBytes
	}
	wall := time.Since(passStart)
	stats1, err := fetchStats(h.plain)
	if err != nil {
		return err
	}
	prom1, err := h.scrape()
	if err != nil {
		return err
	}
	if p := medianUs(plain); p > 0 {
		l.set("trace.overhead_ratio", medianUs(durations(l.rungs[0]))/p)
	}
	ops := float64(n)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	l.set("server.conn_write_us_per_op", us(connWrites.busy)/ops)
	l.set("server.conn_writes_per_op", float64(connWrites.calls)/ops)
	l.set("server.resp_bytes_per_op", float64(respBytes)/ops)
	l.set("server.req_bytes_per_op", float64(reqBytes)/ops)
	l.set("wal.write_us_per_op", us(walWrites.busy)/ops)
	l.set("wal.sync_us_per_op", us(walSyncs.busy)/ops)
	l.set("wal.syncs_per_op", float64(walSyncs.calls)/ops)
	l.set("wal.bytes_per_op", float64(walWrites.bytes)/ops)
	if w.durable {
		// One 2-word tuple appended and one deleted per op.
		l.set("durable.disk_bytes_per_user_byte", float64(walWrites.bytes)/(ops*2*16))
	}
	// The server's own counters cover both sessions: 2n ops.
	ops *= 2
	delta := func(name string) float64 { return prom1[name] - prom0[name] }
	l.set("server.admit_wait_us_per_op", delta("tetris_admission_wait_seconds_sum")*1e6/ops)
	l.set("server.exec_busy_share", delta("tetris_exec_seconds_sum")/wall.Seconds())
	l.set("server.shed_per_op", (delta("tetris_admission_shed_total")+delta("tetris_slow_consumers_total"))/ops)
	if lookups := float64(stats1.PlanHits - stats0.PlanHits + stats1.PlanMisses - stats0.PlanMisses); lookups > 0 {
		l.set("catalog.plan_hit_ratio", float64(stats1.PlanHits-stats0.PlanHits)/lookups)
	}
	l.set("catalog.index_builds_per_op", float64(stats1.IndexBuilds-stats0.IndexBuilds)/ops)
	l.set("catalog.delta_index_builds_per_op", float64(stats1.DeltaIndexBuilds-stats0.DeltaIndexBuilds)/ops)
	l.set("catalog.compactions_per_op", float64(stats1.Compactions-stats0.Compactions)/ops)
	l.set("durable.checkpoints_per_op", float64(stats1.Checkpoints-stats0.Checkpoints)/ops)
	return nil
}

// sessionSetup times empty sessions — dial, close request, reply, EOF —
// which is what every adhoc_reloaded op pays besides its query.
func (l *ladder) sessionSetup() error {
	for i := 0; i < 32; i++ {
		start := time.Now()
		s, err := l.h.timed()
		if err != nil {
			return err
		}
		if err := s.end(); err != nil {
			return err
		}
		l.timing("server.session_setup_us", time.Since(start))
	}
	return nil
}

// captureConn keeps what the client reads.
type captureConn struct {
	net.Conn
	buf *bytes.Buffer
}

func (c captureConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.buf.Write(p[:n])
	return n, err
}

// replayConn serves captured response bytes and swallows requests.
type replayConn struct {
	net.Conn // nil: only Read and Write are ever called
	r        *bytes.Reader
}

func (c replayConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c replayConn) Write(p []byte) (int, error) { return len(p), nil }

// clientCost measures what the load generator itself spends on one op's
// replies: the response bytes of one op are captured once and parsed
// again from memory. One goroutine, no I/O, so wall time is CPU time.
// The op is the one half a cycle from where rung 1 starts, so that its
// plan has left the plan cache again by the time rung 1 reaches it.
func (l *ladder) clientCost() error {
	var captured bytes.Buffer
	dial := func() (*session, error) {
		s, err := l.h.plain()
		if err != nil {
			return nil, err
		}
		return newSession(captureConn{s.c, &captured}), nil
	}
	o := l.op(len(l.w.ops[0]) / 2)
	sess, err := openClient(l.w, 0, dial)
	if err != nil {
		return err
	}
	captured.Reset() // drop the replies to the session's init steps
	if _, err := runOp(o, sess, dial); err != nil {
		return err
	}
	if sess != nil {
		sess.c.Close()
	}
	data := captured.Bytes()
	var took []time.Duration
	for rep := 0; rep < 21; rep++ {
		s := newSession(replayConn{r: bytes.NewReader(data)})
		start := time.Now()
		for i := range o.steps {
			if _, err := s.do(&o.steps[i]); err != nil {
				return fmt.Errorf("client replay: %w", err)
			}
		}
		took = append(took, time.Since(start))
	}
	l.set("client.cpu_ms_per_op", medianUs(took)/1e3)
	return nil
}

// ran is what one op did on one of rungs 1–3: the span of the layer's
// call, the engine statistics it reported, and the busy time of the
// child spans bench owns under it.
type ran struct {
	start, end time.Time
	stats      core.Stats
	children   time.Duration
}

// execRung runs the per-op body of rungs 1–3 for every op and checks
// each answer against the reference join.
func (l *ladder) execRung(rung int, name string, body func(i int, o *op, out *sink) (ran, error)) error {
	next := make([]int, l.n)
	out := &sink{timed: rung == 3}
	for i := 0; i < l.n; i++ {
		o := l.op(i)
		out.reset()
		r, err := body(i, o, out)
		if err != nil {
			return fmt.Errorf("%s op %d: %w", name, i, err)
		}
		if want := o.steps[len(o.steps)-1].want; out.got != want {
			return fmt.Errorf("%s op %d: got %d tuples (sum %x), want %d (sum %x)", name, i, out.got.tuples, out.got.sum, want.tuples, want.sum)
		}
		s := rungSample{children: r.children, resolutions: r.stats.Resolutions, outputs: r.stats.Outputs}
		next[i] = l.record(rung, name, i, r.start, r.end, s, nil)
	}
	l.parents = next
	return nil
}

// starRungs: Prepared.Execute → Plan.Execute → core.Run on the plan the
// server's own prepare left in the plan cache.
func (l *ladder) starRungs() error {
	cat := l.h.srv.Catalog()
	o := l.op(0)
	p, err := cat.Prepare(o.query, join.Options{Mode: core.Preloaded})
	if err != nil {
		return err
	}
	if !p.CacheHit() {
		return fmt.Errorf("prepared_star: rung 1 missed the plan cache the server filled")
	}
	err = l.execRung(1, "catalog.exec", func(i int, o *op, out *sink) (ran, error) {
		start := time.Now()
		res, err := p.Execute(join.Options{Parallelism: 1, OnOutput: out.onOutput})
		end := time.Now()
		if err != nil {
			return ran{}, err
		}
		return ran{start: start, end: end, stats: res.Stats}, nil
	})
	if err != nil {
		return err
	}
	plan := p.Plan()
	err = l.execRung(2, "join.execute", func(i int, o *op, out *sink) (ran, error) {
		start := time.Now()
		res, err := plan.Execute(join.Options{Mode: core.Preloaded, SharedBase: true, Parallelism: 1, OnOutput: out.onOutput})
		end := time.Now()
		if err != nil {
			return ran{}, err
		}
		return ran{start: start, end: end, stats: res.Stats}, nil
	})
	if err != nil {
		return err
	}
	base, err := plan.PreloadedBase()
	if err != nil {
		return err
	}
	copts := core.Options{Mode: core.Preloaded, SAO: plan.SAO(), Base: base}
	if err := l.coreRung(func(int) (*join.Plan, error) { return plan, nil }, copts); err != nil {
		return err
	}
	l.prepareCosts(cat, o.query, join.Options{Mode: core.Preloaded})
	return l.replays(plan, runTuples(plan, join.Options{Mode: core.Preloaded, SharedBase: true, Parallelism: 1}))
}

// runTuples executes the plan once, collecting its output.
func runTuples(plan *join.Plan, opts join.Options) [][]uint64 {
	res, err := plan.Execute(opts)
	if err != nil {
		return nil
	}
	return res.Tuples
}

// coreRung is rung 3: core.Run over a probe-timing wrapper around the
// plan's oracle, with a self-timing sink.
func (l *ladder) coreRung(planOf func(i int) (*join.Plan, error), copts core.Options) error {
	var total core.Stats
	var probes, sunk tallySnap // summed over the ops
	var runTime time.Duration
	// Child spans wait here until execRung has given their parents ids.
	type child struct {
		op   int
		name string
		snap tallySnap
	}
	var pending []child
	err := l.execRung(3, "core.run", func(i int, o *op, out *sink) (ran, error) {
		plan, err := planOf(i)
		if err != nil {
			return ran{}, err
		}
		opts := copts
		opts.SAO = plan.SAO()
		opts.OnOutput = out.onOutput
		start := time.Now()
		oracle := &timedOracle{Oracle: plan.NewOracle()}
		res, err := core.Run(oracle, opts)
		end := time.Now()
		if err != nil {
			return ran{}, err
		}
		p, s := oracle.probes.take(), out.busy.take()
		pending = append(pending, child{i, "join.oracle", p}, child{i, "client.sink", s})
		probes.merge(p)
		sunk.merge(s)
		total.Merge(res.Stats)
		runTime += end.Sub(start)
		return ran{start, end, res.Stats, p.busy + s.busy}, nil
	})
	if err != nil {
		return err
	}
	for _, c := range pending {
		c.snap.emit(l.tr, c.name, c.op, l.parents[c.op])
	}

	ops := float64(l.n)
	l.set("join.oracle_calls_per_op", float64(probes.calls)/ops)
	if probes.calls > 0 {
		l.set("join.oracle_us_per_call", float64(probes.busy)/1e3/float64(probes.calls))
	}
	l.set("client.sink_us_per_op", float64(sunk.busy)/1e3/ops)
	l.set("core.resolutions_per_op", float64(total.Resolutions)/ops)
	l.set("core.outputs_per_op", float64(total.Outputs)/ops)
	l.set("core.boxes_loaded_per_op", float64(total.BoxesLoaded)/ops)
	l.set("core.kb_size", float64(total.KnowledgeBase)/ops)
	l.set("core.splits_per_op", float64(total.Splits)/ops)
	if total.SkeletonCalls > 0 {
		l.set("core.cover_hit_ratio", float64(total.CoverHits)/float64(total.SkeletonCalls))
	}
	if total.Resolutions > 0 {
		l.set("core.ns_per_resolution", float64(runTime)/float64(total.Resolutions))
	}

	// Allocation counts come from an untimed batch: ReadMemStats stops
	// the world and must not sit inside a span.
	const batch = 32
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < batch; i++ {
		plan, err := planOf(i % l.n)
		if err != nil {
			return err
		}
		opts := copts
		opts.SAO = plan.SAO()
		opts.OnOutput = func([]uint64) bool { return true }
		if _, err := core.Run(plan.NewOracle(), opts); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	l.set("core.allocs_per_op", float64(after.Mallocs-before.Mallocs)/batch)
	l.set("core.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/batch)
	return nil
}

// prepareCosts times the preparation steps below Catalog.Prepare once
// per repetition on the workload's query: parse, decide, plan
// preparation over a private index builder, and the Preloaded base.
func (l *ladder) prepareCosts(cat *catalog.Catalog, text string, opts join.Options) {
	src := join.NewIndexBuilder()
	for rep := 0; rep < 9; rep++ {
		start := time.Now()
		q, err := cat.Parse(text)
		if err != nil {
			return
		}
		l.timing("join.parse_us", time.Since(start))
		start = time.Now()
		d, err := join.Decide(q, opts)
		if err != nil {
			return
		}
		l.timing("planner.choose_us", time.Since(start))
		po := opts
		po.Decision = d
		start = time.Now()
		plan, err := join.PreparePlan(q, po, src)
		if err != nil {
			return
		}
		if rep > 0 { // the first repetition builds the indexes
			l.timing("join.prepare_plan_us", time.Since(start))
		}
		start = time.Now()
		if _, err := core.BuildPreloadedBase(plan.NewOracle(), core.Options{Mode: core.Preloaded}); err != nil {
			return
		}
		l.timing("join.base_build_us", time.Since(start))
	}
}

// viewRungs: a maintained statement with no writes has one rung below
// the protocol — Maintained.Execute hands back the materialised result.
func (l *ladder) viewRungs() error {
	cat := l.h.srv.Catalog()
	m, err := cat.Maintain(l.op(0).query, join.Options{})
	if err != nil {
		return err
	}
	err = l.execRung(1, "catalog.exec", func(i int, o *op, out *sink) (ran, error) {
		start := time.Now()
		res, err := m.Execute(join.Options{})
		end := time.Now()
		if err != nil {
			return ran{}, err
		}
		for _, t := range res.Tuples {
			out.onOutput(t)
		}
		if kind := m.LastRefresh().Kind; kind != "none" {
			return ran{}, fmt.Errorf("refresh %q, want none", kind)
		}
		return ran{start: start, end: end, stats: res.Stats}, nil
	})
	if err != nil {
		return err
	}
	l.extra["catalog.maintained_refresh_us"] = durations(l.rungs[1])
	l.prepareCosts(cat, l.op(0).query, join.Options{})
	return l.replays(m.Plan(), m.Result())
}

// adhocRungs: every op is a plan-cache miss, so rung 1 is
// Catalog.Prepare + Execute, rung 2 the parse/decide/prepare/execute it
// is made of, rung 3 the core run of the plan rung 2 prepared.
func (l *ladder) adhocRungs() error {
	cat := l.h.srv.Catalog()
	jopts := join.Options{Mode: core.Reloaded}
	err := l.execRung(1, "catalog.exec", func(i int, o *op, out *sink) (ran, error) {
		start := time.Now()
		p, err := cat.Prepare(o.query, jopts)
		prepared := time.Now()
		if err != nil {
			return ran{}, err
		}
		res, err := p.Execute(join.Options{Parallelism: 1, OnOutput: out.onOutput})
		end := time.Now()
		if err != nil {
			return ran{}, err
		}
		// A run of at least one full cycle must miss every time; only the
		// smoke test's few ops can find their plans still cached.
		if !p.CacheHit() {
			l.timing("catalog.prepare_miss_us", prepared.Sub(start))
		} else if l.n >= len(l.w.ops[0]) {
			return ran{}, fmt.Errorf("plan cache hit on a %d-shape cycle", len(l.w.ops[0]))
		}
		return ran{start: start, end: end, stats: res.Stats}, nil
	})
	if err != nil {
		return err
	}

	// One index builder for all shapes plays the part of the catalog's
	// registry; a first untimed cycle fills it, as warm-up filled that.
	src := join.NewIndexBuilder()
	prepare := func(o *op, timed bool) (*join.Plan, error) {
		start := time.Now()
		q, err := cat.Parse(o.query)
		if err != nil {
			return nil, err
		}
		parsed := time.Now()
		d, err := join.Decide(q, jopts)
		if err != nil {
			return nil, err
		}
		decided := time.Now()
		po := jopts
		po.Decision = d
		plan, err := join.PreparePlan(q, po, src)
		if err != nil {
			return nil, err
		}
		if timed {
			l.timing("join.parse_us", parsed.Sub(start))
			l.timing("planner.choose_us", decided.Sub(parsed))
			l.timing("join.prepare_plan_us", time.Since(decided))
		}
		return plan, nil
	}
	for i := 0; i < min(l.n, len(l.w.ops[0])); i++ {
		if _, err := prepare(l.op(i), false); err != nil {
			return err
		}
	}
	err = l.execRung(2, "join.execute", func(i int, o *op, out *sink) (ran, error) {
		start := time.Now()
		plan, err := prepare(o, true)
		if err != nil {
			return ran{}, err
		}
		res, err := plan.Execute(join.Options{Mode: core.Reloaded, Parallelism: 1, OnOutput: out.onOutput})
		end := time.Now()
		if err != nil {
			return ran{}, err
		}
		return ran{start: start, end: end, stats: res.Stats}, nil
	})
	if err != nil {
		return err
	}
	err = l.coreRung(func(i int) (*join.Plan, error) { return prepare(l.op(i), false) }, core.Options{Mode: core.Reloaded})
	if err != nil {
		return err
	}

	// The replays need output points: use the shape with the most.
	best := l.op(0)
	for i := range l.w.ops[0] {
		if o := &l.w.ops[0][i]; o.steps[0].want.tuples > best.steps[0].want.tuples {
			best = o
		}
	}
	plan, err := prepare(best, false)
	if err != nil {
		return err
	}
	return l.replays(plan, runTuples(plan, join.Options{Mode: core.Reloaded, Parallelism: 1}))
}

// writeRungs: rung 1 is the durable catalog's Append/Delete plus the
// maintained statement's Execute; the same ops on a plain in-memory
// catalog split the durable layer's own time from the catalog update.
func (l *ladder) writeRungs() error {
	w, dur := l.w, l.h.dur
	m, ok := dur.MaintainedByID(w.stmt[0])
	if !ok {
		return fmt.Errorf("statement %s not registered", w.stmt[0])
	}

	twin, err := plainCatalog(w)
	if err != nil {
		return err
	}
	tm, err := twin.Maintain(l.op(0).query, join.Options{})
	if err != nil {
		return err
	}
	defer twin.WaitCompactions()

	// writeOps is one op against a catalog: append, refresh, delete,
	// refresh. It returns the summed refresh stats.
	type mutator interface {
		Append(name string, tuples ...relation.Tuple) (uint64, error)
		Delete(name string, tuples ...relation.Tuple) (uint64, error)
	}
	// storage returns the time the storage wrapper was busy since the
	// last call; the twin catalog has no storage.
	storage := func() time.Duration { return l.h.fs.writes.take().busy + l.h.fs.syncs.take().busy }
	var storageBusy []time.Duration // per durable mutation
	writeOp := func(cat mutator, m *catalog.Maintained, o *op, out *sink, durable bool) (core.Stats, time.Duration, error) {
		var stats core.Stats
		var io time.Duration
		t := relation.Tuple{o.tuple[0], o.tuple[1]}
		for step, mutate := range []func(string, ...relation.Tuple) (uint64, error){cat.Append, cat.Delete} {
			if durable {
				storage()
			}
			start := time.Now()
			if _, err := mutate(o.rel, t); err != nil {
				return stats, io, err
			}
			took := time.Since(start)
			if durable {
				busy := storage()
				io += busy
				storageBusy = append(storageBusy, busy)
				l.timing("durable.mutation_us", took)
			} else {
				l.timing("catalog.update_us", took)
			}
			start = time.Now()
			res, err := m.Execute(join.Options{})
			if err != nil {
				return stats, io, err
			}
			if durable {
				l.timing("catalog.maintained_refresh_us", time.Since(start))
			}
			if kind := m.LastRefresh().Kind; kind != "patched" {
				return stats, io, fmt.Errorf("refresh %q, want patched", kind)
			}
			stats.Resolutions += res.Stats.Resolutions
			stats.Outputs = res.Stats.Outputs
			if want := o.steps[2*step+1].want; answerOf(res.Tuples) != want {
				return stats, io, fmt.Errorf("step %d: %d tuples, want %d", 2*step+1, len(res.Tuples), want.tuples)
			}
			if step == 1 {
				for _, t := range res.Tuples {
					out.onOutput(t)
				}
			}
		}
		return stats, io, nil
	}

	l.h.fs.on.Store(true)
	defer l.h.fs.on.Store(false)
	err = l.execRung(1, "catalog.exec", func(i int, o *op, out *sink) (ran, error) {
		start := time.Now()
		stats, io, err := writeOp(dur, m, o, out, true)
		return ran{start, time.Now(), stats, io}, err
	})
	if err != nil {
		return err
	}
	var scratch sink
	for i := 0; i < l.n; i++ {
		scratch.reset()
		if _, _, err := writeOp(twin, tm, l.op(i), &scratch, false); err != nil {
			return fmt.Errorf("plain catalog op %d: %w", i, err)
		}
	}
	// Per mutation: the durable call, minus the storage time under it,
	// minus the same update on the plain catalog.
	mut, upd := l.extra["durable.mutation_us"], l.extra["catalog.update_us"]
	self := make([]time.Duration, len(mut))
	for i := range mut {
		self[i] = mut[i] - storageBusy[i] - upd[i]
	}
	l.set("durable.self_us", medianUs(self))

	// Checkpoint cost: a forced fold after one logged record, bytes as
	// the storage wrapper saw them.
	o := l.op(0)
	t := relation.Tuple{o.tuple[0], o.tuple[1]}
	var ckptBytes float64
	const folds = 6
	for i := 0; i < folds; i++ {
		mutate := dur.Append
		if i%2 == 1 {
			mutate = dur.Delete
		}
		if _, err := mutate(o.rel, t); err != nil {
			return err
		}
		l.h.fs.writes.take()
		start := time.Now()
		if err := dur.Checkpoint(); err != nil {
			return err
		}
		l.timing("durable.checkpoint_us", time.Since(start))
		ckptBytes += float64(l.h.fs.writes.take().bytes)
	}
	l.set("durable.checkpoint_bytes", ckptBytes/folds)

	l.prepareCosts(l.h.srv.Catalog(), o.query, join.Options{})
	if err := l.walReplay(); err != nil {
		return err
	}
	// The statement's own plan sits on delta-layered indexes that the
	// background compactor folds whenever it gets to it, so its gap set
	// differs from run to run. The replays take a plan over freshly
	// ingested base relations instead, whose counts repeat.
	fresh, err := plainCatalog(w)
	if err != nil {
		return err
	}
	p, err := fresh.Prepare(o.query, join.Options{})
	if err != nil {
		return err
	}
	return l.replays(p.Plan(), runTuples(p.Plan(), join.Options{Parallelism: 1}))
}

// plainCatalog is an in-memory catalog holding client 0's write_refresh
// relations in their base state.
func plainCatalog(w *workload) (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, def := range w.rels[:3] {
		rel, err := buildRelation(def)
		if err != nil {
			return nil, err
		}
		if _, err := cat.Ingest(rel); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// buildRelation materialises a generated relation for in-process use.
func buildRelation(def *relDef) (*relation.Relation, error) {
	rel, err := relation.NewUniform(def.name, relAttrs, def.depth)
	if err != nil {
		return nil, err
	}
	for _, t := range def.tuples {
		if err := rel.Insert(t[0], t[1]); err != nil {
			return nil, err
		}
	}
	rel.Tuples() // normalise before anything shares it
	return rel, nil
}

// recoveryReplays runs over the directory the harness left behind:
// durable.Open (recovery) and a real daemon restart.
func (l *ladder) recoveryReplays() error {
	dir := l.h.dataDir
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		d, err := durable.Open(dir, durable.Options{})
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		l.timing("durable.recover_us", time.Since(start))
		l.set("durable.recover_index_builds", float64(d.IndexBuilds()))
		if err := d.Close(); err != nil {
			return err
		}
	}
	restart, err := restartAndCheck(l.w, l.cfg.tetrisd, dir, make([]writeState, l.w.clients))
	if err != nil {
		return fmt.Errorf("daemon restart over the ladder's directory: %w", err)
	}
	l.set("durable.restart_ms", ms(restart))
	return nil
}

// derive turns samples and timings into the remaining metrics and
// asserts that every rung did the same work.
func (l *ladder) derive() {
	names := [4]string{"server.request_us", "catalog.exec_us", "join.execute_us", "core.run_us"}
	selfs := [4]string{"server.self_us", "catalog.self_us", "join.self_us", "core.self_us"}
	for r, samples := range l.rungs {
		if len(samples) == 0 {
			continue
		}
		l.set(names[r], medianUs(durations(samples)))
		// Self time: the rung's span minus the child spans bench owns
		// minus the next rung's span for the same op.
		self := make([]time.Duration, len(samples))
		for i, s := range samples {
			self[i] = s.dur - s.children
			if r+1 < len(l.rungs) && len(l.rungs[r+1]) == len(samples) {
				self[i] -= l.rungs[r+1][i].dur
			}
		}
		l.set(selfs[r], medianUs(self))
		if r == 0 {
			continue
		}
		for i, s := range samples {
			if top := l.rungs[0][i]; s.resolutions != top.resolutions || s.outputs != top.outputs {
				l.rep.fail("op %d: rung %d did %d resolutions / %d outputs, the protocol reply reported %d / %d",
					i, r, s.resolutions, s.outputs, top.resolutions, top.outputs)
				break
			}
		}
	}
	for name, d := range l.extra {
		l.set(name, medianUs(d))
	}
}

// writeTrace writes the spans out now that the run is over.
func (l *ladder) writeTrace() error {
	if err := os.MkdirAll(l.cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{l.w.name, l.rep.Seed, l.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(l.cfg.outDir, "trace-"+l.w.name+".json"), data, 0o644)
}
