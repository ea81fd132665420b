package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// Request is one line of the protocol. Op selects the action; the other
// fields are op-specific.
type Request struct {
	// Op is one of load, append, delete, query, prepare, maintain, exec,
	// stats, close.
	Op string `json:"op"`

	// Name is the relation name for load/append/delete.
	Name string `json:"name,omitempty"`
	// Attrs and Depth/Depths define the schema for load: attribute names
	// plus either one uniform bit depth or per-attribute depths.
	Attrs  []string `json:"attrs,omitempty"`
	Depth  uint8    `json:"depth,omitempty"`
	Depths []uint8  `json:"depths,omitempty"`
	// Tuples carries rows for load/append/delete.
	Tuples []relation.Tuple `json:"tuples,omitempty"`

	// ID names a prepared statement (prepare assigns, exec runs).
	ID string `json:"id,omitempty"`
	// Query is the query text for query/prepare, e.g. "R(A,B), S(B,C)".
	Query string `json:"query,omitempty"`
	// Mode selects the Tetris variant: reloaded (default) or preloaded.
	// The Balance-lifted reloaded-lb and preloaded-lb are refused (see
	// servedMode).
	Mode string `json:"mode,omitempty"`
	// SAO optionally fixes the splitting attribute order.
	SAO []string `json:"sao,omitempty"`
	// Limit stops an execution after this many tuples (0 = all).
	Limit int `json:"limit,omitempty"`
	// Count asks for the output cardinality instead of the tuples.
	Count bool `json:"count,omitempty"`
	// Buffer returns tuples inside the response instead of streaming
	// them as individual {"tuple": …} lines.
	Buffer bool `json:"buffer,omitempty"`
}

// Response is the final line answering a request. Executions with
// streaming enabled emit {"tuple": […]} lines before it.
type Response struct {
	OK  bool   `json:"ok"`
	Op  string `json:"op,omitempty"`
	Err string `json:"error,omitempty"`

	// Version is the published relation version for load/append/delete,
	// and the WAL LSN the snapshot covers for checkpoint.
	Version uint64 `json:"version,omitempty"`

	// ID echoes the statement id for prepare/maintain/exec.
	ID string `json:"id,omitempty"`
	// Refresh reports how an exec of a maintained statement brought its
	// result up to date: "none" (no writes since), "patched" (delta
	// passes) or "recomputed" (exact fallback). Empty for plain
	// statements.
	Refresh string `json:"refresh,omitempty"`
	// CacheHit reports whether prepare was served from the plan cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// IndexBuilds is the number of indexes constructed on behalf of this
	// request: >0 on a cold prepare or one-shot query, always 0 for exec
	// of a prepared statement — the protocol-visible witness of
	// amortization.
	IndexBuilds int64 `json:"index_builds"`

	// Vars and SAO describe an execution's output schema and order.
	Vars []string `json:"vars,omitempty"`
	SAO  []string `json:"sao,omitempty"`
	// Tuples holds the output when Buffer was set.
	Tuples [][]uint64 `json:"tuples,omitempty"`
	// Count is the decimal output cardinality for count requests.
	Count string `json:"count,omitempty"`
	// Outputs and Resolutions summarize the engine work.
	Outputs     int64 `json:"outputs"`
	Resolutions int64 `json:"resolutions"`

	// Stats is the server/catalog summary for the stats op.
	Stats *serverStats `json:"stats,omitempty"`
}

// session is the per-connection state: prepared statements, the session
// work budget, and the cancellation context.
type session struct {
	srv    *Server
	ctx    context.Context
	budget *core.Budget
	stmts  map[string]*catalog.Prepared

	// qcache memoizes preparations for repeated textual "query" requests
	// so the hot path skips parse + SAO derivation on every call. It is
	// dropped wholesale whenever the catalog generation moves (any
	// relation publish) — the statements pin old versions, and a stale
	// hit would silently serve pre-update data.
	qcache map[string]*catalog.Prepared
	qgen   uint64

	out *sessionWriter
}

// qcacheCap bounds the per-session textual-statement cache; a client
// sending unbounded distinct query texts must not grow session memory
// without bound (overflow entries are simply re-prepared each time).
const qcacheCap = 64

// maxRequestLine caps one protocol request line. Var, not const, so the
// oversized-line test can lower it without buffering 64 MiB.
var maxRequestLine = 64 * 1024 * 1024

// slowConsumerLine is the explicit farewell a slow consumer gets,
// written directly to the connection after its session writer is
// retired. The leading newline guards against a partial line the
// cut-off writer may have left on the wire.
const slowConsumerLine = "\n{\"ok\":false,\"error\":\"slow consumer\"}\n"

// ServeSession runs one protocol session over the reader/writer pair
// until EOF, a close op, or server shutdown. Each line of r is one JSON
// request; each request produces exactly one JSON response line,
// preceded by zero or more {"tuple": …} lines for streamed executions.
func (s *Server) ServeSession(r io.Reader, w io.Writer) error {
	s.trackSession(1)
	defer s.trackSession(-1)
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	// All output — responses and streamed tuples — goes through the
	// session writer: a bounded buffer drained by its own goroutine, so
	// the engine never blocks on a slow peer. finish (deferred first, so
	// it runs before Serve's watcher may hard-close the conn) delivers
	// everything buffered before the session ends.
	sw := newSessionWriter(w, s.outputBufferLines(), s.writeStallTimeout())
	defer sw.finish()

	sess := &session{
		srv:    s,
		ctx:    ctx,
		budget: s.sessionBudget(),
		stmts:  map[string]*catalog.Prepared{},
		out:    sw,
	}

	sc := bufio.NewScanner(r)
	// The scanner's limit is max(cap(buf), max), so the initial buffer
	// must not exceed the configured cap.
	initial := 64 * 1024
	if maxRequestLine < initial {
		initial = maxRequestLine
	}
	sc.Buffer(make([]byte, 0, initial), maxRequestLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if s.ctx.Err() != nil {
			sess.respond(Response{Err: "server closing"})
			return errClosed
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			if rerr := sess.respond(Response{Op: "?", Err: fmt.Sprintf("bad request: %v", err)}); rerr != nil {
				return s.failWrite(sw, w, rerr)
			}
			continue
		}
		if req.Op == "close" {
			if err := sess.respond(Response{OK: true, Op: "close"}); err != nil {
				return s.failWrite(sw, w, err)
			}
			return nil
		}
		finish, err := s.beginOp()
		if err != nil {
			// Draining: the request never starts. The client still gets
			// its error line — and the session keeps running, because a
			// drain rejection is per-request, not a protocol failure.
			if rerr := sess.respond(Response{Op: req.Op, Err: err.Error()}); rerr != nil {
				return s.failWrite(sw, w, rerr)
			}
			continue
		}
		start := time.Now()
		resp := sess.handle(req)
		finish()
		s.met.requestSeconds.With(opLabel(req.Op)).Observe(time.Since(start))
		resp.Op = req.Op
		if resp.OK {
			s.met.resolutions.Add(resp.Resolutions)
			s.met.outputs.Add(resp.Outputs)
		}
		if err := sess.respond(resp); err != nil {
			return s.failWrite(sw, w, err)
		}
	}

	// The loop exits through a failed read. Shutdown surfaces here too —
	// the watcher expires the read deadline — and the peer is owed an
	// explicit final line, not a silent EOF. An idle-timeout close (the
	// server is fine, the client went quiet) stays silent by design.
	if s.ctx.Err() != nil {
		sess.respond(Response{Err: "server closing"})
		return errClosed
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// An oversized request line used to kill the session with no
			// response at all. The line itself is unrecoverable — the
			// scanner cannot resync mid-line — so answer, then close.
			s.met.overlong.Inc()
			sess.respond(Response{Op: "?", Err: fmt.Sprintf("request line exceeds %d bytes", maxRequestLine)})
			return nil
		}
		return err
	}
	return nil
}

// failWrite ends a session whose write path failed. A slow consumer —
// sticky once declared — gets the explicit farewell written directly to
// the connection (the session writer is retired first; a fresh deadline
// re-enables the write side the stall cut).
func (s *Server) failWrite(sw *sessionWriter, w io.Writer, err error) error {
	if !errors.Is(err, errSlowConsumer) {
		return err
	}
	s.met.slowConsumers.Inc()
	sw.finish()
	if d, ok := w.(deadlineWriter); ok {
		d.SetWriteDeadline(time.Now().Add(time.Second))
	}
	io.WriteString(w, slowConsumerLine)
	return err
}

// respond writes one response line and waits for it to reach the
// transport: a mutation's acknowledgement is on the wire before the
// session reads the next request.
func (sess *session) respond(r Response) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return sess.out.enqueueSync(append(b, '\n'))
}

// appendTupleLine appends one streamed output row to dst: the line
// {"tuple":[v0,v1,…]} and its newline, byte for byte what encoding/json
// makes of struct{ Tuple []uint64 `json:"tuple"` } (null for a nil tuple).
func appendTupleLine(dst []byte, tup []uint64) []byte {
	if tup == nil {
		return append(dst, "{\"tuple\":null}\n"...)
	}
	dst = append(dst, `{"tuple":[`...)
	for i, v := range tup {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, "]}\n"...)
}

// fail formats an error response.
func fail(err error) Response { return Response{Err: err.Error()} }

// servedMode parses a request's mode. The daemon serves the plain modes
// only; the Balance-lifted ones are a paper experiment that cmd/tetris
// runs.
func servedMode(name string) (core.Mode, error) {
	mode, err := core.ParseMode(name)
	if err == nil && !mode.Plain() {
		err = fmt.Errorf("mode %q is not served; run the LB modes with cmd/tetris", mode.Name())
	}
	return mode, err
}

// testHookPreExec, when non-nil, runs inside every admitted execution;
// tests use it to inject panics and prove containment releases the
// admission slot.
var testHookPreExec func()

// handle dispatches one request, containing any panic in the handler
// chain: the session gets an error line and lives on, and the deferred
// releases below (admission slot, op tracking) run during the unwind,
// so one poisoned request cannot leak the execution slot or wedge the
// drain accounting.
func (sess *session) handle(req Request) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			sess.srv.panics.Add(1)
			resp = fail(fmt.Errorf("internal error in %q: %v", req.Op, r))
		}
	}()
	return sess.dispatch(req)
}

// dispatch routes one request to its handler.
func (sess *session) dispatch(req Request) Response {
	switch req.Op {
	case "load":
		return sess.load(req)
	case "append", "delete":
		return sess.ingest(req)
	case "query":
		return sess.query(req)
	case "prepare":
		return sess.prepare(req)
	case "maintain":
		return sess.maintain(req)
	case "exec":
		return sess.exec(req)
	case "checkpoint":
		return sess.checkpoint()
	case "stats":
		st := sess.srv.stats()
		return Response{OK: true, Stats: &st}
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op))
	}
}

func (sess *session) load(req Request) Response {
	if req.Name == "" || len(req.Attrs) == 0 {
		return fail(fmt.Errorf("load needs name and attrs"))
	}
	var rel *relation.Relation
	var err error
	switch {
	case len(req.Depths) > 0:
		rel, err = relation.New(req.Name, req.Attrs, req.Depths)
	case req.Depth > 0:
		rel, err = relation.NewUniform(req.Name, req.Attrs, req.Depth)
	default:
		return fail(fmt.Errorf("load needs depth or depths"))
	}
	if err != nil {
		return fail(err)
	}
	for _, t := range req.Tuples {
		if err := rel.Insert(t...); err != nil {
			return fail(err)
		}
	}
	version, err := sess.srv.cat.Ingest(rel)
	if err != nil {
		return fail(err)
	}
	return Response{OK: true, Version: version}
}

func (sess *session) ingest(req Request) Response {
	if req.Name == "" {
		return fail(fmt.Errorf("%s needs name", req.Op))
	}
	mutate := sess.srv.cat.Append
	if req.Op == "delete" {
		mutate = sess.srv.cat.Delete
	}
	version, err := mutate(req.Name, req.Tuples...)
	if err != nil {
		return fail(err)
	}
	return Response{OK: true, Version: version}
}

// checkpoint forces an incremental checkpoint on the durable catalog:
// changed relations are frozen into fresh index segments, unchanged
// ones re-reference their existing files, and the WAL rotates. The
// response carries the LSN the snapshot covers. In-memory servers
// refuse the op — there is nothing to persist to.
func (sess *session) checkpoint() Response {
	if err := sess.srv.checkpoint(); err != nil {
		return fail(err)
	}
	return Response{OK: true, Version: sess.srv.walStats().CheckpointLSN}
}

func (sess *session) prepare(req Request) Response {
	if req.ID == "" || req.Query == "" {
		return fail(fmt.Errorf("prepare needs id and query"))
	}
	mode, err := servedMode(req.Mode)
	if err != nil {
		return fail(err)
	}
	// Cold preparation builds indexes over whole relations — engine work
	// the admission queue exists to bound, so it runs admitted like any
	// execution.
	release, err := sess.srv.admitExec(sess.ctx)
	if err != nil {
		return fail(err)
	}
	defer release()
	p, err := sess.srv.cat.Prepare(req.Query, join.Options{Mode: mode, SAOVars: req.SAO})
	if err != nil {
		return fail(err)
	}
	sess.stmts[req.ID] = p
	return Response{
		OK:          true,
		ID:          req.ID,
		CacheHit:    p.CacheHit(),
		IndexBuilds: p.IndexBuilds(),
		Vars:        p.Plan().Query().Vars(),
		SAO:         p.Plan().SAOVars(),
	}
}

// maintain creates a maintained statement: prepared like any other,
// plus a materialized result the catalog keeps patchable across
// append/delete. The initial full materialization is engine work and
// runs admitted.
func (sess *session) maintain(req Request) Response {
	if req.ID == "" || req.Query == "" {
		return fail(fmt.Errorf("maintain needs id and query"))
	}
	mode, err := servedMode(req.Mode)
	if err != nil {
		return fail(err)
	}
	release, err := sess.srv.admitExec(sess.ctx)
	if err != nil {
		return fail(err)
	}
	defer release()
	opts := join.Options{
		Mode:    mode,
		SAOVars: req.SAO,
		Budget:  sess.budget,
		Context: sess.ctx,
	}
	m, err := sess.srv.cat.MaintainAs(req.ID, req.Query, opts)
	if err != nil {
		return fail(err)
	}
	// A plain statement this session prepared under the id would shadow
	// the registered one in exec; the id now names the maintained one.
	delete(sess.stmts, req.ID)
	last := m.LastRefresh()
	return Response{
		OK:          true,
		ID:          req.ID,
		IndexBuilds: last.Stats.IndexBuilds,
		Outputs:     last.Stats.Outputs,
		Resolutions: last.Stats.Resolutions,
		Vars:        m.Plan().Query().Vars(),
		SAO:         m.Plan().SAOVars(),
	}
}

// execMaintained refreshes a maintained statement (delta passes or
// recompute, under the session budget and context) and delivers its
// materialized result. The reported index_builds/resolutions are the
// refresh's own work — delta-sized under a trickle of writes, zero when
// nothing changed.
func (sess *session) execMaintained(req Request, m *catalog.Maintained) Response {
	release, err := sess.srv.admitExec(sess.ctx)
	if err != nil {
		return fail(err)
	}
	defer release()
	sess.srv.queries.Add(1)
	if testHookPreExec != nil {
		testHookPreExec()
	}

	res, err := m.Execute(join.Options{Budget: sess.budget, Context: sess.ctx})
	if err != nil {
		return fail(err)
	}
	last := m.LastRefresh()
	resp := Response{
		OK:          true,
		ID:          req.ID,
		Refresh:     last.Kind,
		Vars:        res.Vars,
		SAO:         res.SAO,
		Outputs:     res.Stats.Outputs,
		Resolutions: res.Stats.Resolutions,
		IndexBuilds: res.Stats.IndexBuilds,
	}
	tuples := res.Tuples
	if req.Limit > 0 && req.Limit < len(tuples) {
		tuples = tuples[:req.Limit]
	}
	if req.Count {
		resp.Count = fmt.Sprintf("%d", len(res.Tuples))
		return resp
	}
	if req.Buffer {
		resp.Tuples = tuples
		return resp
	}
	for _, tup := range tuples {
		if err := sess.out.tuple(tup); err != nil {
			return fail(err)
		}
	}
	return resp
}

func (sess *session) exec(req Request) Response {
	p, ok := sess.stmts[req.ID]
	if !ok {
		// Not one of this session's prepared statements: maintained
		// statements live in the catalog's registry, whichever session —
		// or, on a durable server, whichever process — registered them.
		if m, ok := sess.srv.cat.MaintainedByID(req.ID); ok {
			return sess.execMaintained(req, m)
		}
		return fail(fmt.Errorf("unknown statement %q", req.ID))
	}
	return sess.run(req, func(opts join.Options) (*join.Result, error) {
		return p.Execute(opts)
	}, func(opts join.Options) (Response, error) {
		count, stats, err := p.Count(opts)
		if err != nil {
			return Response{}, err
		}
		return Response{OK: true, ID: req.ID, Count: count.String(), Resolutions: stats.Resolutions}, nil
	})
}

// queryStatement resolves the prepared statement for a textual query
// request, reusing the session's memoized preparation when the catalog
// has not changed. builds is the index-construction charge for THIS
// request: the preparation cost on a cold resolve, 0 on reuse.
func (sess *session) queryStatement(req Request) (p *catalog.Prepared, builds int64, err error) {
	key := req.Query + "\x00" + req.Mode + "\x00" + strings.Join(req.SAO, ",")
	if gen := sess.srv.cat.Generation(); gen != sess.qgen || sess.qcache == nil {
		sess.qcache, sess.qgen = map[string]*catalog.Prepared{}, gen
	}
	if p, ok := sess.qcache[key]; ok {
		return p, 0, nil
	}
	mode, err := servedMode(req.Mode)
	if err != nil {
		return nil, 0, err
	}
	p, err = sess.srv.cat.Prepare(req.Query, join.Options{Mode: mode, SAOVars: req.SAO})
	if err != nil {
		return nil, 0, err
	}
	if len(sess.qcache) < qcacheCap {
		sess.qcache[key] = p
	}
	return p, p.IndexBuilds(), nil
}

func (sess *session) query(req Request) Response {
	if req.Query == "" {
		return fail(fmt.Errorf("query needs query text"))
	}
	// Statement resolution is lazy so a cold preparation (index builds
	// over whole relations) happens inside run's admitted region, under
	// the same MaxConcurrent bound as the execution itself.
	var p *catalog.Prepared
	var builds int64
	resolve := func() error {
		if p != nil {
			return nil
		}
		var err error
		p, builds, err = sess.queryStatement(req)
		return err
	}
	resp := sess.run(req, func(opts join.Options) (*join.Result, error) {
		if err := resolve(); err != nil {
			return nil, err
		}
		return p.Execute(opts)
	}, func(opts join.Options) (Response, error) {
		if err := resolve(); err != nil {
			return Response{}, err
		}
		count, stats, err := p.Count(opts)
		if err != nil {
			return Response{}, err
		}
		return Response{OK: true, Count: count.String(), Resolutions: stats.Resolutions}, nil
	})
	if resp.OK {
		resp.IndexBuilds = builds
	}
	return resp
}

// run performs one admitted engine execution: enumeration (streamed or
// buffered) or counting. The request's limit is enforced at delivery so
// it composes with a session budget.
func (sess *session) run(req Request,
	exec func(join.Options) (*join.Result, error),
	count func(join.Options) (Response, error)) Response {

	release, err := sess.srv.admitExec(sess.ctx)
	if err != nil {
		return fail(err)
	}
	defer release()
	sess.srv.queries.Add(1)
	if testHookPreExec != nil {
		testHookPreExec()
	}

	opts := join.Options{
		Parallelism: sess.srv.defaultParallelism(),
		Budget:      sess.budget,
		Context:     sess.ctx,
	}
	if req.Count {
		resp, err := count(opts)
		if err != nil {
			return fail(err)
		}
		return resp
	}

	// The request limit is enforced at delivery through OnOutput in both
	// modes: the engine stops at the limit, so a limited request spends
	// only what it delivers from the shared session budget instead of
	// running to completion and draining it.
	delivered := 0
	var buffered [][]uint64
	var streamErr error
	if !req.Buffer {
		// Streaming through the bounded session writer means a stalled
		// peer surfaces as errSlowConsumer here: the engine stops at its
		// next output, releasing the admission slot instead of holding it
		// hostage to the peer's read rate.
		opts.OnOutput = func(tuple []uint64) bool {
			if streamErr = sess.out.tuple(tuple); streamErr != nil {
				return false
			}
			delivered++
			return req.Limit <= 0 || delivered < req.Limit
		}
	} else if req.Limit > 0 {
		opts.OnOutput = func(tuple []uint64) bool {
			buffered = append(buffered, append([]uint64(nil), tuple...))
			return len(buffered) < req.Limit
		}
	}

	res, err := exec(opts)
	if err != nil {
		return fail(err)
	}
	if streamErr != nil {
		return fail(streamErr)
	}
	resp := Response{
		OK:          true,
		ID:          req.ID,
		Vars:        res.Vars,
		SAO:         res.SAO,
		Outputs:     res.Stats.Outputs,
		Resolutions: res.Stats.Resolutions,
		IndexBuilds: res.Stats.IndexBuilds,
	}
	if req.Buffer {
		if req.Limit > 0 {
			resp.Tuples = buffered
		} else {
			resp.Tuples = res.Tuples
		}
	}
	return resp
}
