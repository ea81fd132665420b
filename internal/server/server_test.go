package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tetrisjoin/internal/catalog"
)

// drive runs one session over the given request lines and returns the
// response/tuple lines.
func drive(t *testing.T, srv *Server, reqs ...string) []map[string]any {
	t.Helper()
	var out bytes.Buffer
	in := strings.NewReader(strings.Join(reqs, "\n") + "\n")
	if err := srv.ServeSession(in, &out); err != nil {
		t.Fatalf("session error: %v", err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	return lines
}

func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

const loadTriangle = `{"op":"load","name":"R","attrs":["s","d"],"depth":4,"tuples":[[1,2],[2,3],[1,3],[3,4]]}`

func TestSessionLifecycle(t *testing.T) {
	srv := New(catalog.New(), Config{})
	defer srv.Close()

	lines := drive(t, srv,
		loadTriangle,
		`{"op":"prepare","id":"tri","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}`,
		`{"op":"exec","id":"tri"}`,
		`{"op":"exec","id":"tri"}`,
		`{"op":"exec","id":"tri","count":true}`,
		`{"op":"stats"}`,
		`{"op":"close"}`,
	)
	if len(lines) != 9 { // 7 responses + 2 streamed tuples
		t.Fatalf("got %d lines, want 9: %v", len(lines), lines)
	}
	for i, m := range lines {
		if _, streamed := m["tuple"]; streamed {
			continue
		}
		if ok, _ := m["ok"].(bool); !ok {
			t.Fatalf("line %d not ok: %v", i, m)
		}
	}
	prep := lines[1]
	if num(prep, "index_builds") == 0 {
		t.Error("cold prepare reported zero index builds")
	}
	// Both execs stream exactly the triangle tuple and build nothing.
	for _, i := range []int{2, 4} {
		if fmt.Sprint(lines[i]["tuple"]) != "[1 2 3]" {
			t.Errorf("streamed tuple line %d = %v, want [1 2 3]", i, lines[i]["tuple"])
		}
		final := lines[i+1]
		if num(final, "index_builds") != 0 || num(final, "outputs") != 1 {
			t.Errorf("exec response %d: %v", i+1, final)
		}
	}
	if c, _ := lines[6]["count"].(string); c != "1" {
		t.Errorf("count = %q, want 1", c)
	}
	stats, _ := lines[7]["stats"].(map[string]any)
	if stats == nil || num(stats, "queries") != 3 || num(stats, "plan_misses") == 0 {
		t.Errorf("stats = %v", stats)
	}
}

func TestSessionAppendRepreparesAndLimit(t *testing.T) {
	srv := New(catalog.New(), Config{})
	defer srv.Close()

	lines := drive(t, srv,
		loadTriangle,
		`{"op":"query","query":"R(A,B), R(B,C)","buffer":true}`,
		`{"op":"append","name":"R","tuples":[[4,1]]}`,
		`{"op":"query","query":"R(A,B), R(B,C)","buffer":true}`,
		`{"op":"query","query":"R(A,B), R(B,C)","buffer":true,"limit":2}`,
		`{"op":"delete","name":"R","tuples":[[4,1]]}`,
		`{"op":"query","query":"R(A,B), R(B,C)","buffer":true}`,
	)
	count := func(i int) int {
		ts, _ := lines[i]["tuples"].([]any)
		return len(ts)
	}
	before, after, limited, restored := count(1), count(3), count(4), count(6)
	if after <= before {
		t.Errorf("append invisible: %d paths before, %d after", before, after)
	}
	if limited != 2 {
		t.Errorf("limit=2 returned %d tuples", limited)
	}
	if restored != before {
		t.Errorf("delete did not restore: %d paths, want %d", restored, before)
	}
	// The re-prepared query against the new version is a cache miss but
	// the registry keeps the orders warm: no new index builds.
	if num(lines[3], "index_builds") != 0 {
		t.Errorf("post-append query rebuilt %v indexes; registry should carry orders forward", lines[3]["index_builds"])
	}
}

func TestSessionBudgetSharedAcrossExecutions(t *testing.T) {
	// The triangle under Preloaded costs a fixed number of resolutions
	// (deterministic sequential accounting); measure it, then grant a
	// session 1.5× that: the first execution fits, the second must
	// exhaust the SHARED session budget — while a fresh session, with a
	// fresh budget, runs fine.
	probe := New(catalog.New(), Config{})
	lines := drive(t, probe,
		loadTriangle,
		`{"op":"query","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded","buffer":true}`,
	)
	cost := int64(num(lines[1], "resolutions"))
	if cost == 0 {
		t.Fatalf("probe run reported zero resolutions: %v", lines[1])
	}
	probe.Close()

	srv := New(catalog.New(), Config{SessionMaxResolutions: cost + cost/2})
	defer srv.Close()
	q := `{"op":"query","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded","buffer":true}`
	lines = drive(t, srv, loadTriangle, q, q)
	if ok, _ := lines[1]["ok"].(bool); !ok {
		t.Fatalf("first execution within budget failed: %v", lines[1])
	}
	last := lines[2]
	if ok, _ := last["ok"].(bool); ok {
		t.Fatalf("second execution did not exhaust the shared session budget: %v", last)
	}
	if msg, _ := last["error"].(string); !strings.Contains(msg, "resolution") {
		t.Errorf("error %q does not mention the resolution budget", msg)
	}

	// A fresh session gets a fresh budget.
	lines = drive(t, srv, q)
	if ok, _ := lines[len(lines)-1]["ok"].(bool); !ok {
		t.Errorf("fresh session inherited the exhausted budget: %v", lines[len(lines)-1])
	}
}

// TestSessionBudgetBoundsCount: a count resolves like any run, so it
// reports its resolutions and draws them from the session budget. A
// budget below one count's cost fails the count with the budget error,
// and the session goes on answering.
func TestSessionBudgetBoundsCount(t *testing.T) {
	q := `{"op":"query","query":"R(A,B), R(B,C), R(A,C)","count":true}`
	probe := New(catalog.New(), Config{})
	lines := drive(t, probe, loadTriangle, q)
	probe.Close()
	if c, _ := lines[1]["count"].(string); c != "1" {
		t.Fatalf("count = %q, want 1: %v", c, lines[1])
	}
	cost := int64(num(lines[1], "resolutions"))
	if cost < 2 {
		t.Fatalf("count reported %d resolutions; too few to undercut: %v", cost, lines[1])
	}

	srv := New(catalog.New(), Config{SessionMaxResolutions: cost - 1})
	defer srv.Close()
	lines = drive(t, srv, loadTriangle, q, `{"op":"stats"}`)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}
	if ok, _ := lines[1]["ok"].(bool); ok {
		t.Fatalf("count within %d resolutions did not exhaust the budget: %v", cost-1, lines[1])
	}
	if msg, _ := lines[1]["error"].(string); !strings.Contains(msg, "resolution budget") {
		t.Errorf("error %q does not name the resolution budget", msg)
	}
	if ok, _ := lines[2]["ok"].(bool); !ok {
		t.Errorf("session did not answer after the exhausted count: %v", lines[2])
	}
}

func TestServeTCPConcurrentSessions(t *testing.T) {
	srv := New(catalog.New(), Config{MaxConcurrent: 2})
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// One session loads; the others query concurrently through the
	// shared catalog.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(conn, loadTriangle)
	if !bufio.NewScanner(conn).Scan() {
		t.Fatal("no load response")
	}
	conn.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			fmt.Fprintln(conn, `{"op":"query","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded","buffer":true}`)
			sc := bufio.NewScanner(conn)
			if !sc.Scan() {
				errs <- fmt.Errorf("worker %d: no response", w)
				return
			}
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				errs <- fmt.Errorf("worker %d: %v", w, err)
				return
			}
			if ok, _ := m["ok"].(bool); !ok {
				errs <- fmt.Errorf("worker %d: %v", w, m)
				return
			}
			if num(m, "outputs") != 1 {
				errs <- fmt.Errorf("worker %d: outputs = %v, want 1", w, m["outputs"])
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	srv.Close()
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

func TestSessionErrors(t *testing.T) {
	srv := New(catalog.New(), Config{})
	defer srv.Close()

	lines := drive(t, srv,
		`not json`,
		`{"op":"frobnicate"}`,
		`{"op":"exec","id":"nope"}`,
		`{"op":"query","query":"Missing(A,B)"}`,
		`{"op":"load","name":"R","attrs":["a"]}`,
		`{"op":"append","name":"ghost","tuples":[[1]]}`,
	)
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	for i, m := range lines {
		if ok, _ := m["ok"].(bool); ok {
			t.Errorf("line %d unexpectedly ok: %v", i, m)
		}
		if msg, _ := m["error"].(string); msg == "" {
			t.Errorf("line %d has no error: %v", i, m)
		}
	}
}

// refusesLB drives req, an op with the mode left as %s, in both LB modes
// and requires the refusal that names cmd/tetris, with nothing prepared:
// a stats request after it reports no plan looked up or cached.
func refusesLB(t *testing.T, req string) {
	t.Helper()
	for _, mode := range []string{"reloaded-lb", "preloaded-lb"} {
		srv := New(catalog.New(), Config{})
		lines := drive(t, srv, loadTriangle, fmt.Sprintf(req, mode), `{"op":"stats"}`)
		srv.Close()
		want := fmt.Sprintf("mode %q is not served; run the LB modes with cmd/tetris", mode)
		if ok, _ := lines[1]["ok"].(bool); ok || lines[1]["error"] != want {
			t.Errorf("%s: %v, want the error %q", mode, lines[1], want)
		}
		if st, _ := lines[2]["stats"].(map[string]any); st["plan_misses"] != 0.0 || st["plans_cached"] != 0.0 {
			t.Errorf("%s: a refused request prepared a plan: %v", mode, st)
		}
	}
}

func TestSessionPrepareRefusesLB(t *testing.T) {
	refusesLB(t, `{"op":"prepare","id":"tri","query":"R(A,B), R(B,C), R(A,C)","mode":"%s"}`)
}

func TestSessionMaintainRefusesLB(t *testing.T) {
	refusesLB(t, `{"op":"maintain","id":"tri","query":"R(A,B), R(B,C), R(A,C)","mode":"%s"}`)
}

func TestSessionQueryRefusesLB(t *testing.T) {
	refusesLB(t, `{"op":"query","query":"R(A,B), R(B,C), R(A,C)","mode":"%s"}`)
}

// TestCloseUnblocksIdleSessions: Serve must return from Close even while
// a client connection sits idle mid-session (the blocking read must be
// broken, not waited out).
func TestCloseUnblocksIdleSessions(t *testing.T) {
	srv := New(catalog.New(), Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, loadTriangle)
	if !bufio.NewScanner(conn).Scan() {
		t.Fatal("no load response")
	}
	// The session now idles in its read loop. Close must still win.
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within 5s of Close with an idle session open")
	}
}

// TestBufferedLimitSpendsOnlyDeliveredBudget: a buffered request with a
// limit must stop the engine at the limit, spending only the delivered
// tuples from the shared session output budget — not the full result.
func TestBufferedLimitSpendsOnlyDeliveredBudget(t *testing.T) {
	srv := New(catalog.New(), Config{SessionMaxOutput: 4})
	defer srv.Close()

	// R(A,B) alone has 4 tuples; with a 4-output session budget, two
	// limit=2 queries must each deliver exactly 2.
	q := `{"op":"query","query":"R(A,B)","buffer":true,"limit":2}`
	lines := drive(t, srv, loadTriangle, q, q)
	for _, i := range []int{1, 2} {
		if ok, _ := lines[i]["ok"].(bool); !ok {
			t.Fatalf("query %d failed: %v", i, lines[i])
		}
		if ts, _ := lines[i]["tuples"].([]any); len(ts) != 2 {
			t.Errorf("query %d delivered %d tuples, want 2 (budget drained by undelivered output?)", i, len(ts))
		}
	}
}

// TestSessionMaintainLifecycle drives the steady-state serving story
// the protocol exists to demonstrate: maintain → exec (no change) →
// append → exec. The post-append exec must report a patched refresh
// with delta-sized index builds — not a re-preparation — and deliver
// the updated result.
func TestSessionMaintainLifecycle(t *testing.T) {
	srv := New(catalog.New(), Config{})
	defer srv.Close()

	lines := drive(t, srv,
		loadTriangle,
		`{"op":"maintain","id":"mt","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}`,
		`{"op":"exec","id":"mt"}`,
		`{"op":"append","name":"R","tuples":[[2,4]]}`,
		`{"op":"exec","id":"mt"}`,
		`{"op":"exec","id":"mt","count":true}`,
		`{"op":"close"}`,
	)
	// load, maintain, exec(+1 tuple), append, exec(+2 tuples), count, close.
	if len(lines) != 10 {
		t.Fatalf("got %d lines, want 10: %v", len(lines), lines)
	}
	maintainResp := lines[1]
	if ok, _ := maintainResp["ok"].(bool); !ok || num(maintainResp, "index_builds") == 0 {
		t.Fatalf("maintain response wrong (cold materialization must build): %v", maintainResp)
	}
	// First exec: nothing changed since maintain.
	exec1 := lines[3]
	if exec1["refresh"] != "none" || num(exec1, "index_builds") != 0 || num(exec1, "outputs") != 1 {
		t.Fatalf("idle exec response wrong: %v", exec1)
	}
	// Post-append exec: patched, delta-sized builds, both triangles.
	exec2 := lines[7]
	if exec2["refresh"] != "patched" {
		t.Fatalf("post-append exec refresh %v, want patched: %v", exec2["refresh"], exec2)
	}
	if b := num(exec2, "index_builds"); b < 1 || b > 3 {
		t.Fatalf("post-append exec built %v indexes, want delta-sized (1..3): %v", b, exec2)
	}
	if num(exec2, "outputs") != 2 {
		t.Fatalf("post-append exec outputs %v, want 2: %v", num(exec2, "outputs"), exec2)
	}
	var streamed []string
	for _, i := range []int{5, 6} {
		b, _ := json.Marshal(lines[i]["tuple"])
		streamed = append(streamed, string(b))
	}
	want := []string{"[1,2,3]", "[2,3,4]"}
	for i := range want {
		if streamed[i] != want[i] {
			t.Fatalf("streamed tuples %v, want %v", streamed, want)
		}
	}
	count := lines[8]
	if count["count"] != "2" || count["refresh"] != "none" {
		t.Fatalf("maintained count response wrong: %v", count)
	}
}

// One id names one statement to a session: a prepare under a maintained
// id shadows it, and re-maintaining the id drops the shadow — exec never
// serves whichever of the two the session named first.
func TestSessionStatementIDReplacement(t *testing.T) {
	srv := New(catalog.New(), Config{})
	defer srv.Close()

	lines := drive(t, srv,
		loadTriangle,
		`{"op":"maintain","id":"q","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}`,
		`{"op":"prepare","id":"q","query":"R(A,B)","mode":"preloaded"}`,
		`{"op":"exec","id":"q","buffer":true}`,
		`{"op":"maintain","id":"q","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}`,
		`{"op":"exec","id":"q","buffer":true}`,
		`{"op":"close"}`,
	)
	// exec after re-prepare must serve R(A,B): 4 tuples, no refresh field.
	exec1 := lines[3]
	if ts, _ := exec1["tuples"].([]any); len(ts) != 4 {
		t.Fatalf("exec after re-prepare served %d tuples, want 4 (stale maintained statement?): %v", len(ts), exec1)
	}
	if _, hasRefresh := exec1["refresh"]; hasRefresh {
		t.Fatalf("exec after re-prepare still maintained: %v", exec1)
	}
	// exec after re-maintain must serve the triangle again.
	exec2 := lines[5]
	if exec2["refresh"] != "none" || num(exec2, "outputs") != 1 {
		t.Fatalf("exec after re-maintain wrong: %v", exec2)
	}
}

// TestAppendTupleLineMatchesJSON pins the streamed row encoder to the
// bytes encoding/json produced before it: the protocol's tuple lines must
// not move. Each line is appended both to an empty buffer and behind the
// lines before it, as a chunk is built.
func TestAppendTupleLineMatchesJSON(t *testing.T) {
	var chunk, wantChunk []byte
	for _, tup := range [][]uint64{
		nil,
		{},
		{0},
		{math.MaxUint64},
		{0, math.MaxUint64, 9, 10, 99, 100},
		{18446744073709551615, 1, 12345678901234567890},
	} {
		want := jsonTupleLine(t, tup)
		if got := appendTupleLine(nil, tup); !bytes.Equal(got, want) {
			t.Errorf("appendTupleLine(%v) = %q, want %q", tup, got, want)
		}
		chunk = appendTupleLine(chunk, tup)
		wantChunk = append(wantChunk, want...)
		if !bytes.Equal(chunk, wantChunk) {
			t.Errorf("appending %v to a chunk gave %q, want %q", tup, chunk, wantChunk)
		}
	}
}

// jsonTupleLine is the streamed line for tup as encoding/json writes it.
func jsonTupleLine(t *testing.T, tup []uint64) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Tuple []uint64 `json:"tuple"`
	}{tup})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}
