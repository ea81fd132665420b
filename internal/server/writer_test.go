package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"tetrisjoin/internal/catalog"
)

// streamCase is one request of a streaming transcript and the tuples its
// reply must stream before its ok:true response line.
type streamCase struct {
	req    string
	tuples [][]uint64
}

// rows are the tuples (i, i+1) for i < n: a relation whose output is in
// the same order under either SAO.
func rows(n int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = []uint64{uint64(i), uint64(i + 1)}
	}
	return out
}

func loadRows(name string, n int) string {
	tuples, _ := json.Marshal(rows(n))
	return fmt.Sprintf(`{"op":"load","name":%q,"attrs":["s","d"],"depth":8,"tuples":%s}`, name, tuples)
}

// checkTranscript drives one session over the cases and requires its
// output to be, byte for byte, each case's tuple lines followed by one
// response line.
func checkTranscript(t *testing.T, srv *Server, cases []streamCase) {
	t.Helper()
	reqs := make([]string, len(cases))
	for i, c := range cases {
		reqs[i] = c.req
	}
	var out bytes.Buffer
	if err := srv.ServeSession(strings.NewReader(strings.Join(reqs, "\n")+"\n"), &out); err != nil {
		t.Fatalf("session error: %v", err)
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for _, c := range cases {
		for i, tup := range c.tuples {
			want := jsonTupleLine(t, tup)
			if !sc.Scan() {
				t.Fatalf("%s: transcript ends before tuple %d of %d", c.req, i, len(c.tuples))
			}
			if got := append(sc.Bytes(), '\n'); !bytes.Equal(got, want) {
				t.Fatalf("%s: line %d = %q, want %q", c.req, i, got, want)
			}
		}
		if !sc.Scan() {
			t.Fatalf("%s: no response line after %d tuples", c.req, len(c.tuples))
		}
		var resp map[string]any
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("%s: response line %q: %v", c.req, sc.Text(), err)
		}
		if _, isTuple := resp["tuple"]; isTuple {
			t.Fatalf("%s: more than %d tuple lines", c.req, len(c.tuples))
		}
		if ok, _ := resp["ok"].(bool); !ok {
			t.Fatalf("%s: response %s, want ok", c.req, sc.Text())
		}
	}
	if sc.Scan() {
		t.Fatalf("unexpected line after the last response: %q", sc.Text())
	}
}

// Streamed replies whose sizes sit on either side of a chunk boundary are
// one {"tuple":…} line per tuple, in order, then the response line — for
// a query, a prepared statement and a maintained one, with and without a
// limit, at the default chunk size and at a small one.
func TestStreamedRepliesAtChunkBoundaries(t *testing.T) {
	for _, buf := range []int{0, 10} {
		srv := New(catalog.New(), Config{OutputBuffer: buf})
		n := chunkLinesFor(srv.outputBufferLines())
		t.Run(fmt.Sprintf("chunk=%d", n), func(t *testing.T) {
			defer srv.Close()
			most := 3*n + 5
			var cases []streamCase
			setup := func(req string) { cases = append(cases, streamCase{req: req}) }
			stream := func(req string, tuples [][]uint64) {
				cases = append(cases, streamCase{req: req, tuples: tuples})
			}
			setup(loadRows("Big", most))
			setup(`{"op":"prepare","id":"big","query":"Big(A,B)"}`)
			setup(`{"op":"maintain","id":"mbig","query":"Big(A,B)"}`)
			for _, size := range []int{0, 1, n - 1, n, n + 1, most} {
				name := fmt.Sprintf("S%d", size)
				setup(loadRows(name, size))
				setup(fmt.Sprintf(`{"op":"prepare","id":"p%d","query":"%s(A,B)"}`, size, name))
				setup(fmt.Sprintf(`{"op":"maintain","id":"m%d","query":"%s(A,B)"}`, size, name))
				stream(fmt.Sprintf(`{"op":"query","query":"%s(A,B)"}`, name), rows(size))
				stream(fmt.Sprintf(`{"op":"exec","id":"p%d"}`, size), rows(size))
				stream(fmt.Sprintf(`{"op":"exec","id":"m%d"}`, size), rows(size))
				if size == 0 {
					continue // limit 0 means no limit
				}
				stream(fmt.Sprintf(`{"op":"query","query":"Big(A,B)","limit":%d}`, size), rows(size))
				stream(fmt.Sprintf(`{"op":"exec","id":"big","limit":%d}`, size), rows(size))
				stream(fmt.Sprintf(`{"op":"exec","id":"mbig","limit":%d}`, size), rows(size))
			}
			setup(`{"op":"stats"}`)
			checkTranscript(t, srv, cases)
		})
	}
}

// A reply cut short by the session's output budget streams exactly the
// tuples the budget allows, then its response; the session goes on.
func TestStreamStoppedBySessionBudget(t *testing.T) {
	n := chunkLinesFor(New(catalog.New(), Config{}).outputBufferLines())
	srv := New(catalog.New(), Config{SessionMaxOutput: n + 3})
	defer srv.Close()
	drive(t, srv, loadRows("Big", 3*n+5))
	checkTranscript(t, srv, []streamCase{
		{req: `{"op":"query","query":"Big(A,B)"}`, tuples: rows(n + 3)},
		{req: `{"op":"query","query":"Big(A,B)"}`},
		{req: `{"op":"stats"}`},
	})
}

// blockedSink is a peer that never reads: every Write waits until
// release is closed.
type blockedSink struct{ release chan struct{} }

func (s blockedSink) Write(p []byte) (int, error) {
	<-s.release
	return len(p), nil
}

// The writer's slack is counted in lines: against a peer that reads
// nothing, it accepts at least the configured buffer and at most one
// chunk more in the blocked write and one being filled, then the next
// tuple fails as a slow consumer.
func TestWriterBoundInLines(t *testing.T) {
	for _, buf := range []int{1, 4, 256} {
		n := chunkLinesFor(buf)
		sink := blockedSink{make(chan struct{})}
		sw := newSessionWriter(sink, buf, 20*time.Millisecond)
		accepted := 0
		var err error
		for ; accepted < 4*(buf+2*n); accepted++ {
			if err = sw.tuple([]uint64{uint64(accepted), 7}); err != nil {
				break
			}
		}
		close(sink.release)
		sw.finish()
		if !errors.Is(err, errSlowConsumer) {
			t.Fatalf("buf=%d: tuple %d returned %v, want errSlowConsumer", buf, accepted, err)
		}
		if accepted < buf || accepted > buf+2*n {
			t.Errorf("buf=%d: %d tuples accepted before the stall, want %d..%d", buf, accepted, buf, buf+2*n)
		}
		if err := sw.tuple([]uint64{1}); !errors.Is(err, errSlowConsumer) {
			t.Errorf("buf=%d: after the stall a tuple returned %v, want the sticky errSlowConsumer", buf, err)
		}
	}
}

// failingSink fails every Write.
type failingSink struct{}

var errSinkBroken = errors.New("sink broken")

func (failingSink) Write(p []byte) (int, error) { return 0, errSinkBroken }

// A write error is sticky: the response that hits it reports it, and so
// does every later response and the next chunk a stream starts.
func TestWriterWriteErrorIsSticky(t *testing.T) {
	sw := newSessionWriter(failingSink{}, 4, time.Second)
	defer sw.finish()
	if err := sw.tuple([]uint64{1}); err != nil {
		t.Fatalf("first tuple: %v (nothing has been written yet)", err)
	}
	if err := sw.enqueueSync([]byte("{}\n")); !errors.Is(err, errSinkBroken) {
		t.Fatalf("response over a broken sink returned %v", err)
	}
	if err := sw.enqueueSync([]byte("{}\n")); !errors.Is(err, errSinkBroken) {
		t.Fatalf("second response returned %v, want the sticky error", err)
	}
	if err := sw.tuple([]uint64{2}); !errors.Is(err, errSinkBroken) {
		t.Fatalf("tuple after the failure returned %v, want the sticky error", err)
	}
}

// Lines queued before finish reach the sink, the pending chunk included.
func TestWriterFinishDeliversPendingChunk(t *testing.T) {
	var out bytes.Buffer
	sw := newSessionWriter(&out, 256, time.Second)
	var want []byte
	for i := range 5 {
		tup := []uint64{uint64(i)}
		if err := sw.tuple(tup); err != nil {
			t.Fatal(err)
		}
		want = appendTupleLine(want, tup)
	}
	sw.finish()
	if got, _ := io.ReadAll(&out); !bytes.Equal(got, want) {
		t.Fatalf("sink got %q, want %q", got, want)
	}
}
