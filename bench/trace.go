package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/wal"
)

// span is one recorded interval at a layer boundary. Every span is
// recorded by code in this directory, around a call into the layer; the
// program itself carries no instrumentation. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for a rung-0
// request). A rung's span has the span of the rung above it, for the
// same op, as its parent. Aggregated child spans (all connection writes
// of a request, all oracle probes of a run) cover first start to last
// end and carry the summed busy time in Counts["busy_ns"].
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the tracer's epoch
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// record stores a finished span and returns its id.
func (t *tracer) record(name string, op, parent int, start, end time.Time, counts map[string]int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Counts: counts,
	})
	return id
}

// tally accumulates the calls of one kind a wrapper saw: how many, how
// long in total, how many bytes, and the first start and last end.
// Wrappers are called from the program's goroutines, so it locks.
type tally struct {
	mu          sync.Mutex
	calls       int64
	bytes       int64
	busy        time.Duration
	first, last time.Time
}

func (a *tally) add(start, end time.Time, n int) {
	a.mu.Lock()
	if a.calls == 0 {
		a.first = start
	}
	a.calls++
	a.bytes += int64(n)
	a.busy += end.Sub(start)
	a.last = end
	a.mu.Unlock()
}

// take returns the tally and resets it.
func (a *tally) take() tallySnap {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := tallySnap{a.calls, a.bytes, a.busy, a.first, a.last}
	a.calls, a.bytes, a.busy = 0, 0, 0
	return s
}

type tallySnap struct {
	calls, bytes int64
	busy         time.Duration
	first, last  time.Time
}

// merge adds another snapshot's counts and busy time.
func (s *tallySnap) merge(o tallySnap) {
	s.calls += o.calls
	s.bytes += o.bytes
	s.busy += o.busy
}

// emit records the tally as an aggregated child span, if it saw a call.
func (s tallySnap) emit(t *tracer, name string, op, parent int) {
	if s.calls == 0 {
		return
	}
	t.record(name, op, parent, s.first, s.last, map[string]int64{
		"calls": s.calls, "bytes": s.bytes, "busy_ns": s.busy.Nanoseconds(),
	})
}

// timedListener hands out connections whose writes are tallied: the
// bench-owned wrapper that yields server.conn_write without touching
// internal/server.
type timedListener struct {
	net.Listener
	writes *tally
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return timedConn{c, l.writes}, nil
}

type timedConn struct {
	net.Conn
	writes *tally
}

func (c timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.writes.add(start, time.Now(), n)
	return n, err
}

// timedFS wraps the durable catalog's storage. Writes and syncs of every
// file it opens are tallied while on is set; with it clear the wrapper
// only forwards, which is the "plain FS" side of trace.overhead_ratio.
type timedFS struct {
	wal.FS
	on     atomic.Bool
	writes tally
	syncs  tally
}

func (f *timedFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	wal.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	if !f.fs.on.Load() {
		return f.File.Write(p)
	}
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.writes.add(start, time.Now(), n)
	return n, err
}

func (f *timedFile) Sync() error {
	if !f.fs.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.add(start, time.Now(), 0)
	return err
}

// timedOracle tallies the gap-oracle probes of one core.Run. It is used
// from the run's single goroutine.
type timedOracle struct {
	core.Oracle
	probes tally
}

func (o *timedOracle) GapsContaining(point []uint64) []dyadic.Box {
	start := time.Now()
	out := o.Oracle.GapsContaining(point)
	o.probes.add(start, time.Now(), 0)
	return out
}

// medianUs returns the median of durations in microseconds.
func medianUs(d []time.Duration) float64 {
	us := make([]float64, len(d))
	for i, v := range d {
		us[i] = float64(v) / float64(time.Microsecond)
	}
	return medianFloat(us)
}
