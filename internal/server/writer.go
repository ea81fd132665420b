package server

import (
	"bufio"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// errSlowConsumer is the sticky session error once a peer has failed to
// drain its output within the stall budget. The session is disconnected
// with an explicit {"ok":false,"error":"slow consumer"} line — never a
// silent stall of shared engine capacity.
var errSlowConsumer = errors.New("slow consumer")

// deadlineWriter is the optional connection capability the
// slow-consumer path uses to cut a write blocked on a dead peer
// (net.Conn implements it; pipes and buffers do not need it).
type deadlineWriter interface{ SetWriteDeadline(time.Time) error }

// maxPooledChunk caps the capacity a chunk buffer keeps between uses: a
// buffered reply can grow one to megabytes, and the session should not
// hold on to that for the rest of its life.
const maxPooledChunk = 64 << 10

// sessionWriter decouples protocol output from the peer: streamed tuple
// lines are gathered into chunks, and every chunk and response goes
// through a bounded queue drained by one writer goroutine, so the engine
// — and with it the admission slot it holds — never blocks on a slow
// connection. A peer that keeps the queue full for longer than the stall
// budget is declared a slow consumer: output fails sticky, the engine
// stops at its next output, and the session disconnects with an explicit
// error line.
//
// The bound is intentionally lines, not bytes: the protocol's unit of
// progress is one JSON line, and a line count keeps the slow-consumer
// policy independent of tuple width. A chunk holds at most chunkLines
// tuple lines, and the writer owns ⌈buf/chunkLines⌉+1 chunk buffers: one
// being filled, the rest queued or not yet on the wire. A buffer returns
// to the pool only once its bytes have been written to the peer, so
// taking one is where backpressure reaches the engine, and at most
// buf+2·chunkLines lines are ever accepted and undelivered.
type sessionWriter struct {
	w          io.Writer
	dl         deadlineWriter // non-nil when w supports write deadlines
	chunks     chan wchunk
	free       chan []byte // pooled chunk buffers; never nil, so a nil pending means none is held
	done       chan struct{}
	stall      time.Duration
	chunkLines int

	// pending is the chunk being filled and lines the tuple lines in it.
	// They have one producer at a time and so need no lock: the engine's
	// OnOutput calls are serialized by RunShards' merge, and a response is
	// written only after its execution has returned.
	pending []byte
	lines   int

	// held is the drain goroutine's own: the chunks written into its
	// bufio buffer since it was last empty.
	held [][]byte

	slow atomic.Bool
	mu   sync.Mutex
	werr error

	finishOnce sync.Once
}

// wchunk is one queued run of complete lines; a non-nil ack asks the
// drain goroutine to flush after writing it and report the outcome.
type wchunk struct {
	data []byte
	ack  chan error
}

// chunkLinesFor is the most tuple lines one chunk holds for an output
// buffer of buf lines: 64, or fewer when the buffer is small, so that
// the buffer still spans several chunks and a 4-line buffer hands over
// every line on its own.
func chunkLinesFor(buf int) int { return max(1, min(64, buf/4)) }

func newSessionWriter(w io.Writer, buf int, stall time.Duration) *sessionWriter {
	chunkLines := chunkLinesFor(buf)
	buffers := (buf+chunkLines-1)/chunkLines + 1
	sw := &sessionWriter{
		w:          w,
		chunks:     make(chan wchunk, buffers),
		free:       make(chan []byte, buffers),
		done:       make(chan struct{}),
		stall:      stall,
		chunkLines: chunkLines,
	}
	for range buffers {
		sw.free <- []byte{}
	}
	if d, ok := w.(deadlineWriter); ok {
		sw.dl = d
	}
	go sw.loop()
	return sw
}

// loop drains the queue into the peer, flushing on every acked chunk and
// whenever the queue runs dry (so a streaming burst amortizes syscalls
// between responses). Chunk buffers go back to the pool once bw is empty:
// a producer waiting for one has left the queue dry, so the flush that
// frees them is never far off. After a write error the loop keeps
// draining — discarding, but still answering acks and freeing buffers —
// so the producer can never block on a dead sink.
func (sw *sessionWriter) loop() {
	defer close(sw.done)
	bw := bufio.NewWriter(sw.w)
	for c := range sw.chunks {
		err := sw.err()
		if err == nil {
			if _, werr := bw.Write(c.data); werr != nil {
				sw.fail(werr)
				err = werr
			}
		}
		sw.held = append(sw.held, c.data)
		if err == nil && (c.ack != nil || len(sw.chunks) == 0) {
			if werr := bw.Flush(); werr != nil {
				sw.fail(werr)
				err = werr
			}
		}
		if err != nil || bw.Buffered() == 0 {
			sw.recycle()
		}
		if c.ack != nil {
			c.ack <- err
		}
	}
	if sw.err() == nil {
		bw.Flush()
	}
}

// recycle returns the held chunk buffers to the pool, dropping any that
// a large reply grew past maxPooledChunk. It is kept out of loop's frame:
// a new session's drain goroutine makes its first write on a fresh,
// small stack, and with recycle inlined that write had to grow the stack
// (about 1 µs per session).
//
//go:noinline
func (sw *sessionWriter) recycle() {
	for _, b := range sw.held {
		if cap(b) > maxPooledChunk {
			b = []byte{}
		}
		sw.free <- b[:0]
	}
	sw.held = sw.held[:0]
}

func (sw *sessionWriter) err() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.werr
}

func (sw *sessionWriter) fail(err error) {
	sw.mu.Lock()
	if sw.werr == nil {
		sw.werr = err
	}
	sw.mu.Unlock()
}

// take makes sure a chunk buffer is pending. It returns immediately while
// the pool has one; otherwise it waits at most the stall budget for the
// peer to catch up, then declares it slow — cutting any write the drain
// goroutine has blocked on, so the goroutine can discard the backlog and
// exit at close.
func (sw *sessionWriter) take() error {
	if sw.slow.Load() {
		return errSlowConsumer
	}
	if err := sw.err(); err != nil {
		return err
	}
	if sw.pending != nil {
		return nil
	}
	select {
	case sw.pending = <-sw.free:
		return nil
	default:
	}
	timer := time.NewTimer(sw.stall)
	defer timer.Stop()
	select {
	case sw.pending = <-sw.free:
		return nil
	case <-timer.C:
		return sw.declareSlow()
	}
}

// handOver queues the pending chunk. It never blocks: the queue has room
// for every buffer the pool owns.
func (sw *sessionWriter) handOver(ack chan error) {
	sw.chunks <- wchunk{data: sw.pending, ack: ack}
	sw.pending, sw.lines = nil, 0
}

// tuple appends one streamed output row to the pending chunk without
// waiting for delivery, handing the chunk over once it holds chunkLines
// lines. It waits only when it must start a chunk and the pool is empty.
func (sw *sessionWriter) tuple(tup []uint64) error {
	if sw.pending == nil {
		if err := sw.take(); err != nil {
			return err
		}
	}
	sw.pending = appendTupleLine(sw.pending, tup)
	if sw.lines++; sw.lines == sw.chunkLines {
		sw.handOver(nil)
	}
	return nil
}

// enqueueSync appends one complete line (newline included) behind any
// pending tuple lines, hands the chunk over and waits (bounded by the
// stall budget) until it — and everything queued before it — has been
// handed to the peer. Responses use this: an acknowledgement must reach
// the transport before the session reads its next request, so a client
// never observes more than one acknowledged-but-undelivered mutation.
func (sw *sessionWriter) enqueueSync(line []byte) error {
	if err := sw.take(); err != nil {
		return err
	}
	sw.pending = append(sw.pending, line...)
	ack := make(chan error, 1) // buffered: the loop never blocks on it
	sw.handOver(ack)
	timer := time.NewTimer(sw.stall)
	defer timer.Stop()
	select {
	case err := <-ack:
		return err
	case <-timer.C:
		return sw.declareSlow()
	}
}

// declareSlow marks the peer a slow consumer (sticky) and cuts any
// write the drain goroutine is blocked on.
func (sw *sessionWriter) declareSlow() error {
	sw.slow.Store(true)
	if sw.dl != nil {
		sw.dl.SetWriteDeadline(time.Now())
	}
	return errSlowConsumer
}

// finish hands over any pending chunk, closes the stream and waits for
// the drain goroutine to exit (delivering everything queued, unless the
// sink already failed). Idempotent; must be called by the producer, and
// before any direct write to the underlying writer. One exception to the
// wait: a slow consumer on a sink without write deadlines cannot have
// its blocked write cut, so finish leaves the drain goroutine to die
// with the sink rather than hanging the session teardown on it.
func (sw *sessionWriter) finish() {
	sw.finishOnce.Do(func() {
		if sw.pending != nil {
			sw.handOver(nil)
		}
		close(sw.chunks)
		if sw.slow.Load() && sw.dl == nil {
			return
		}
		<-sw.done
	})
}
