// Command tetrisd serves the Tetris join engine over a line-oriented
// JSON protocol: a long-lived catalog of named, versioned relations
// with warm indexes and a prepared-plan cache, driven by load / append
// / delete / query / prepare / maintain / exec / stats requests.
//
// By default it speaks the protocol on stdin/stdout (one session):
//
//	printf '%s\n' \
//	  '{"op":"load","name":"R","attrs":["s","d"],"depth":4,"tuples":[[1,2],[2,3],[1,3]]}' \
//	  '{"op":"prepare","id":"tri","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}' \
//	  '{"op":"exec","id":"tri"}' \
//	  '{"op":"stats"}' | tetrisd
//
// A maintained statement ({"op":"maintain","id":…,"query":…}) keeps
// its materialized result alive across appends and deletes: exec after
// a write patches the result from the delta (the response reports
// "refresh":"patched" and delta-sized index_builds) instead of
// re-executing — the steady-state serving mode under a trickle of
// writes.
//
// With -addr it listens on TCP, one session per connection, all
// sessions sharing the catalog (and therefore its relations, indexes
// and plan cache):
//
//	tetrisd -addr :7423
//
// With -data-dir the catalog is durable: every acknowledged mutation is
// write-ahead logged and fsynced before its response, checkpoints bound
// replay cost, and a restart recovers relations, indexes and maintained
// statements exactly as acknowledged. Durable or not, a maintained id is
// the catalog's: any session can exec it, and re-maintaining it attaches
// when the query matches and fails when it differs. SIGINT/SIGTERM
// trigger a graceful drain (bounded by -drain-timeout) before the
// process exits.
//
// With -metrics-addr the process serves /metrics in Prometheus text
// format: engine counters (resolutions, index builds, plan cache), WAL
// position, admission queue depth and wait time, and per-query-shape
// latency histograms with p50/p95/p99 gauges. The server sheds
// executions with an "overloaded" error when the admission wait queue
// (-max-queue) is full, and disconnects peers that stop draining their
// output (-output-buffer lines of slack, -write-stall patience) with an
// explicit "slow consumer" error.
//
// Responses are one JSON object per line; executions stream their
// output as {"tuple":[…]} lines before the final response. See
// internal/server for the full protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/durable"
	"tetrisjoin/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "", "TCP listen address (empty: serve one session on stdin/stdout)")
		dataDir      = flag.String("data-dir", "", "directory for the write-ahead log and checkpoints (empty: in-memory only)")
		planCache    = flag.Int("plan-cache", 0, "prepared plans kept in the LRU (0 = default 64, negative disables)")
		maxConc      = flag.Int("max-concurrent", 1, "engine executions admitted at once across sessions")
		parallelism  = flag.Int("parallel", 1, "engine worker goroutines per execution")
		maxRes       = flag.Int64("session-max-resolutions", 0, "per-session geometric-resolution budget (0 = unlimited)")
		maxOut       = flag.Int("session-max-output", 0, "per-session output-tuple budget (0 = unlimited)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "WAL records between checkpoints (0 = default 256, negative disables)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "close connections silent for this long (0 = never)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget for in-flight requests")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP listen address for /metrics in Prometheus text format (empty: disabled)")
		maxQueue     = flag.Int("max-queue", 0, "executions that may wait for an engine slot before arrivals are shed (0 = 4×max-concurrent, negative = shed immediately)")
		outputBuffer = flag.Int("output-buffer", 0, "per-session output buffer in lines before slow-consumer backpressure (0 = default 256)")
		writeStall   = flag.Duration("write-stall", 0, "how long a session's output may stall on a full buffer before the peer is disconnected as a slow consumer (0 = default 5s)")
	)
	flag.Parse()

	catOpts := catalog.Options{PlanCache: *planCache}
	cfg := server.Config{
		MaxConcurrent:         *maxConc,
		Parallelism:           *parallelism,
		SessionMaxResolutions: *maxRes,
		SessionMaxOutput:      *maxOut,
		IdleTimeout:           *idleTimeout,
		MaxQueue:              *maxQueue,
		OutputBuffer:          *outputBuffer,
		WriteStallTimeout:     *writeStall,
	}

	var srv *server.Server
	closeStore := func() {} // an in-memory catalog has nothing to flush
	if *dataDir != "" {
		dur, err := durable.Open(*dataDir, durable.Options{
			Catalog:         catOpts,
			CheckpointEvery: *ckptEvery,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "tetrisd: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tetrisd:", err)
			os.Exit(1)
		}
		srv = server.NewDurable(dur, cfg)
		closeStore = func() {
			if err := dur.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "tetrisd: close:", err)
			}
		}
	} else {
		srv = server.New(catalog.NewWithOptions(catOpts), cfg)
	}
	defer srv.Close()

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tetrisd: metrics:", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		fmt.Fprintln(os.Stderr, "tetrisd: metrics on", ml.Addr())
		go func() {
			if err := http.Serve(ml, mux); err != nil {
				fmt.Fprintln(os.Stderr, "tetrisd: metrics:", err)
			}
		}()
	}

	// Graceful drain on SIGINT/SIGTERM: stop accepting, let in-flight
	// requests finish (acknowledged mutations are already synced — the
	// ack happens inside the request), then close the durable catalog.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	drained := make(chan struct{})
	var sigSeen atomic.Bool
	go func() {
		sig, ok := <-sigs
		if !ok {
			return
		}
		sigSeen.Store(true)
		fmt.Fprintf(os.Stderr, "tetrisd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "tetrisd: drain cut short:", err)
		}
		close(drained)
	}()

	if *addr == "" {
		err := srv.ServeSession(os.Stdin, os.Stdout)
		if sigSeen.Load() {
			<-drained
			err = nil // a signal-driven shutdown is a clean exit
		}
		closeStore()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tetrisd:", err)
			os.Exit(1)
		}
		return
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrisd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "tetrisd: listening on", l.Addr())
	serveErr := srv.Serve(l)
	if sigSeen.Load() {
		<-drained // signal path: let the drain finish before closing
	}
	closeStore()
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "tetrisd:", serveErr)
		os.Exit(1)
	}
}
