// Package server runs the engine as a long-lived service: sessions
// speak a line-oriented JSON protocol (load / append / delete / query /
// prepare / exec / stats) against a shared catalog, executions pass
// through an admission queue bounding concurrent engine work, and every
// session carries its own cancellation context and — optionally — a
// work budget (the atomic core.Budget) shared by all of its queries.
//
// The server owns no engine state of its own: relations, indexes and
// prepared plans live in the catalog, immutable and shared, which is
// what makes any number of concurrent sessions safe. Results stream
// over the engine's existing OnOutput contract, one JSON line per
// tuple, so a session's memory stays O(1) in the output size.
package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/durable"
)

// Config tunes the server.
type Config struct {
	// MaxConcurrent bounds engine executions running at once across all
	// sessions (the admission queue depth). 0 means 1: strictly serial
	// admission, the safe default on small hosts.
	MaxConcurrent int
	// SessionMaxResolutions, when > 0, caps the total geometric
	// resolutions one session may spend across all of its executions
	// (a shared core.Budget). Exhaustion fails the session's queries.
	SessionMaxResolutions int64
	// SessionMaxOutput, when > 0, caps the total output tuples one
	// session may receive across all of its executions.
	SessionMaxOutput int
	// Parallelism is the engine parallelism for executions that do not
	// ask otherwise. 0 means 1 (sequential), the right default for a
	// server multiplexing sessions onto the admission queue.
	Parallelism int
	// IdleTimeout, when > 0, closes a connection that sends no request
	// for this long. The deadline is re-armed before every read, so a
	// long-running execution never trips it — only client silence does.
	IdleTimeout time.Duration
	// MaxQueue bounds how many executions may wait for an admission slot
	// at once. An arrival finding the queue full is shed immediately with
	// an "overloaded" error instead of queueing unboundedly. 0 means
	// 4×MaxConcurrent; negative means no waiting at all (busy ⇒ shed).
	MaxQueue int
	// OutputBuffer is the per-session output buffer, in protocol lines,
	// drained to the peer by a writer goroutine: the slack a slow
	// consumer gets before backpressure reaches the engine. 0 means 256.
	OutputBuffer int
	// WriteStallTimeout is how long a session's output may stay blocked
	// on a full buffer before the peer is declared a slow consumer and
	// disconnected. 0 means 5s.
	WriteStallTimeout time.Duration
}

// Server dispatches protocol sessions against one shared catalog.
// Whether that catalog is durable is the catalog's business: mutations
// are acknowledged when its methods return, journaled or not.
type Server struct {
	cat      *catalog.Catalog
	cfg      Config
	admit    chan struct{}
	queueCap int // resolved MaxQueue
	met      *serverMetrics

	// checkpoint and walStats are all the protocol sees of a durable
	// store: the checkpoint op and three stats keys. New installs the
	// in-memory answers (refuse; zeros, which the stats reply omits).
	checkpoint func() error
	walStats   func() durable.WALStats

	ctx    context.Context
	cancel context.CancelFunc

	sessions atomic.Int64 // lifetime session count
	queries  atomic.Int64 // lifetime executions (query/exec/count)
	panics   atomic.Int64 // operations recovered from a panic
	waiting  atomic.Int64 // executions parked in the admission queue
	draining atomic.Bool

	mu        sync.Mutex
	open      int // currently open sessions
	ops       int // requests being handled right now
	opsIdle   chan struct{}
	listeners map[net.Listener]struct{}
}

// New returns a server over the catalog.
func New(cat *catalog.Catalog, cfg Config) *Server {
	slots := cfg.MaxConcurrent
	if slots <= 0 {
		slots = 1
	}
	queueCap := cfg.MaxQueue
	switch {
	case queueCap == 0:
		queueCap = 4 * slots
	case queueCap < 0:
		queueCap = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cat:       cat,
		cfg:       cfg,
		admit:     make(chan struct{}, slots),
		queueCap:  queueCap,
		walStats:  func() durable.WALStats { return durable.WALStats{} },
		ctx:       ctx,
		cancel:    cancel,
		listeners: map[net.Listener]struct{}{},
		checkpoint: func() error {
			return fmt.Errorf("checkpoint requires a durable server (-data-dir)")
		},
	}
	s.met = newServerMetrics(s)
	cat.SetExecObserver(s.observeExec)
	return s
}

// NewDurable returns a server over a durable catalog: its mutations
// (load/append/delete and maintain registrations) are applied,
// write-ahead logged and fsynced before the response line is written,
// so an acknowledged mutation survives a crash. The checkpoint op and
// the WAL counters come alive; everything else is New.
func NewDurable(d *durable.Catalog, cfg Config) *Server {
	s := New(d.Catalog, cfg)
	s.checkpoint, s.walStats = d.Checkpoint, d.WAL
	s.met.registerWAL(d.WAL)
	return s
}

// Catalog returns the shared catalog.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// Close cancels every session (running executions stop cooperatively
// through their contexts).
func (s *Server) Close() { s.cancel() }

// Shutdown drains the server: listeners stop accepting, new engine
// admissions are rejected, and in-flight requests get until the
// context's deadline to finish — then everything is cancelled, exactly
// as Close. Returns the context error when the deadline cut the drain
// short, nil when the server went idle in time. With a durable catalog
// the caller can then Close it knowing every acknowledged mutation is
// already synced — acknowledgement happens inside the request, so an
// orderly drain has nothing left to flush.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	// draining flips inside the same critical section that reads ops:
	// beginOp checks it under the same lock, so no request can slip in
	// between "observed ops == 0" here and the drain decision below —
	// the race that used to let a mutation start after the durable layer
	// was cleared for closing.
	s.draining.Store(true)
	for l := range s.listeners {
		l.Close()
	}
	var idle chan struct{}
	if s.ops > 0 {
		idle = make(chan struct{})
		s.opsIdle = idle
	}
	s.mu.Unlock()

	var err error
	if idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.cancel()
	return err
}

// testHookBeginOp, when non-nil, runs just before beginOp takes the
// lock; tests use it to park a request on the drain race window.
var testHookBeginOp func()

// beginOp marks one request as in flight for Shutdown's drain; the
// returned func marks it done. It fails with errDraining once Shutdown
// has started: the draining check shares Shutdown's critical section,
// so a request either lands in ops before the drain reads it or is
// rejected — never a third thing. Without this check a mutation could
// begin after Shutdown observed ops == 0 and race the durable close.
func (s *Server) beginOp() (func(), error) {
	if testHookBeginOp != nil {
		testHookBeginOp()
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		s.met.drainRejects.Inc()
		return nil, errDraining
	}
	s.ops++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.ops--
		if s.ops == 0 && s.opsIdle != nil {
			close(s.opsIdle)
			s.opsIdle = nil
		}
		s.mu.Unlock()
	}, nil
}

// errDraining rejects work arriving during a graceful shutdown.
var errDraining = fmt.Errorf("server: draining")

// errOverloaded sheds work when every execution slot is busy and the
// wait queue is full. The text is the protocol-visible signal: clients
// seeing "overloaded" should back off and retry, unlike "draining"
// (reconnect elsewhere) or budget errors (give up).
var errOverloaded = fmt.Errorf("overloaded")

// admitExec acquires an execution slot; the returned release must be
// called when the engine work is done. A free slot admits immediately.
// Otherwise the execution waits — but only while the wait queue
// (queueCap deep) has room: beyond that, arrivals are shed immediately
// with errOverloaded rather than queueing unboundedly, so overload
// produces fast, explicit failures instead of a silently growing convoy
// of blocked sessions. A draining server admits nothing new.
func (s *Server) admitExec(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	release = func() { <-s.admit }
	select {
	case s.admit <- struct{}{}:
		return release, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.queueCap) {
		s.waiting.Add(-1)
		s.met.shed.Inc()
		return nil, errOverloaded
	}
	start := time.Now()
	defer func() {
		s.waiting.Add(-1)
		s.met.queueWait.Observe(time.Since(start))
	}()
	select {
	case s.admit <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Serve accepts connections until the listener fails or the server is
// closed or drained, running one session per connection.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	go func() {
		<-s.ctx.Done()
		l.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.ctx.Err() != nil || s.draining.Load() {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			// Shutdown must unblock sessions parked in a connection read
			// (the session context only cancels cooperative engine work),
			// but NOT by closing the conn: the session still owes the peer
			// its "server closing" farewell line. Expiring the read
			// deadline fails the pending Scan while the write side stays
			// usable; the hard Close lands only after the session exits or
			// a short grace, so Serve's wg.Wait cannot hang either way.
			done := make(chan struct{})
			defer close(done)
			go func() {
				select {
				case <-s.ctx.Done():
					conn.SetReadDeadline(time.Now())
					select {
					case <-done:
					case <-time.After(time.Second):
					}
					conn.Close()
				case <-done:
				}
			}()
			var r io.Reader = conn
			if s.cfg.IdleTimeout > 0 {
				r = &idleReader{srv: s, conn: conn, timeout: s.cfg.IdleTimeout}
			}
			s.ServeSession(r, conn)
		}()
	}
}

// idleReader re-arms the connection's read deadline before every read:
// a client silent for longer than the timeout fails its next pending
// read and the session closes cleanly, while any amount of server-side
// execution time between reads is free. Once the server is closed it
// stops re-arming — doing so would overwrite the expired deadline the
// shutdown watcher set to unblock the session — and fails immediately.
type idleReader struct {
	srv     *Server
	conn    net.Conn
	timeout time.Duration
}

func (r *idleReader) Read(p []byte) (int, error) {
	if r.srv.ctx.Err() != nil {
		return 0, errClosed
	}
	if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
		return 0, err
	}
	return r.conn.Read(p)
}

// serverStats is the stats-op payload.
type serverStats struct {
	Sessions     int64 `json:"sessions"`
	OpenSessions int   `json:"open_sessions"`
	Queries      int64 `json:"queries"`
	// Panics counts requests that died in a handler and were contained:
	// the session got an error line and lived on.
	Panics int64 `json:"panics,omitempty"`
	// Shed counts executions fast-failed with "overloaded" because the
	// admission wait queue was full; SlowConsumers counts sessions
	// disconnected for not draining their output.
	Shed          int64 `json:"shed,omitempty"`
	SlowConsumers int64 `json:"slow_consumers,omitempty"`

	Relations   int   `json:"relations"`
	IndexBuilds int64 `json:"index_builds"`
	// DeltaIndexBuilds is the portion of IndexBuilds that were O(k)
	// delta layers over prior versions (incremental maintenance), not
	// full constructions.
	DeltaIndexBuilds int64 `json:"delta_index_builds"`
	// Compactions counts background delta-chain folds.
	Compactions int64 `json:"compactions,omitempty"`
	PlansCached int   `json:"plans_cached"`
	PlanHits    int64 `json:"plan_hits"`
	PlanMisses  int64 `json:"plan_misses"`

	// Durability counters; present only on a durable server.
	WALLastLSN  uint64 `json:"wal_last_lsn,omitempty"`
	WALSize     int64  `json:"wal_size,omitempty"`
	Checkpoints int64  `json:"checkpoints,omitempty"`
}

func (s *Server) stats() serverStats {
	cs := s.cat.Stats()
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	ws := s.walStats()
	return serverStats{
		Sessions:         s.sessions.Load(),
		OpenSessions:     open,
		Queries:          s.queries.Load(),
		Panics:           s.panics.Load(),
		Shed:             s.met.shed.Value(),
		SlowConsumers:    s.met.slowConsumers.Value(),
		Relations:        cs.Relations,
		IndexBuilds:      cs.IndexBuilds,
		DeltaIndexBuilds: cs.DeltaIndexBuilds,
		Compactions:      cs.Compactions,
		PlansCached:      cs.PlansCached,
		PlanHits:         cs.PlanHits,
		PlanMisses:       cs.PlanMisses,
		WALLastLSN:       ws.LastLSN,
		WALSize:          ws.WALSize,
		Checkpoints:      ws.Checkpoints,
	}
}

// sessionBudget mints the per-session work quota, or nil when the
// config sets no limits.
func (s *Server) sessionBudget() *core.Budget {
	return core.NewBudget(s.cfg.SessionMaxResolutions, s.cfg.SessionMaxOutput)
}

func (s *Server) defaultParallelism() int {
	if s.cfg.Parallelism > 0 {
		return s.cfg.Parallelism
	}
	return 1
}

func (s *Server) outputBufferLines() int {
	if s.cfg.OutputBuffer > 0 {
		return s.cfg.OutputBuffer
	}
	return 256
}

func (s *Server) writeStallTimeout() time.Duration {
	if s.cfg.WriteStallTimeout > 0 {
		return s.cfg.WriteStallTimeout
	}
	return 5 * time.Second
}

func (s *Server) trackSession(delta int) {
	s.mu.Lock()
	s.open += delta
	s.mu.Unlock()
	if delta > 0 {
		s.sessions.Add(1)
	}
}

var errClosed = fmt.Errorf("server: closed")
