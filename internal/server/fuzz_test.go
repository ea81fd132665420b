package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"tetrisjoin/internal/catalog"
)

// smokeSessions are the request lines the CI tetrisd smokes send.
var smokeSessions = [][]string{
	{
		loadTriangle,
		`{"op":"prepare","id":"tri","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}`,
		`{"op":"prepare","id":"tri2","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}`,
		`{"op":"exec","id":"tri"}`,
		`{"op":"exec","id":"tri"}`,
		`{"op":"stats"}`,
		`{"op":"close"}`,
	},
	{
		loadTriangle,
		`{"op":"maintain","id":"mt","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}`,
		`{"op":"exec","id":"mt"}`,
		`{"op":"append","name":"R","tuples":[[2,4]]}`,
		`{"op":"exec","id":"mt"}`,
		`{"op":"stats"}`,
		`{"op":"close"}`,
	},
	{
		loadTriangle,
		`{"op":"maintain","id":"tri","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded"}`,
		`{"op":"exec","id":"tri"}`,
		`{"op":"append","name":"R","tuples":[[2,4]]}`,
		`{"op":"exec","id":"tri"}`,
		`{"op":"checkpoint"}`,
	},
	{
		loadTriangle,
		`{"op":"query","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded","buffer":true}`,
		`{"op":"query","query":"R(A,B), R(B,C), R(A,C)","mode":"preloaded","buffer":true}`,
	},
}

// hostileSession reaches the validation paths: bad schemas, arities,
// depths and SAOs, the refused LB modes, limits and counts, and a relation
// reloaded under a different schema beneath live statements.
var hostileSession = []string{
	`{"op":"load","name":"X","attrs":["a","a"],"depths":[8]}`,
	`{"op":"load","name":"X","attrs":["a","b"],"depth":62,"tuples":[[4611686018427387903,0],[0,4611686018427387903],[5,5]]}`,
	`{"op":"query","query":"X(A,B), X(B,C), X(A,C)","mode":"reloaded-lb"}`,
	`{"op":"query","query":"X(A,B), R(B,C)","count":true}`,
	`{"op":"query","query":"R(A,A), R(A)","sao":["A","A"]}`,
	`{"op":"query","query":"R(A,B)","limit":-5,"buffer":true}`,
	`{"op":"append","name":"R","tuples":[[99,99],[1],null]}`,
	`{"op":"maintain","id":"m","query":"R(A,B), R(B,C)","mode":"preloaded-lb"}`,
	`{"op":"prepare","id":"p","query":"R(A,B), R(B,C)","sao":["C","B","A"]}`,
	`{"op":"load","name":"R","attrs":["a","b"],"depths":[2,9],"tuples":[[1,300]]}`,
	`{"op":"exec","id":"m","limit":1}`,
	`{"op":"exec","id":"p","count":true}`,
	`{"op":"checkpoint"}`,
}

// wantResponses is how many response lines a session owes for input:
// one per line that is not blank once trimmed, up to and including a
// close.
func wantResponses(input []byte) int {
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(input))
	sc.Buffer(nil, len(input)+1)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		n++
		var req Request
		if json.Unmarshal(line, &req) == nil && req.Op == "close" {
			break
		}
	}
	return n
}

// FuzzRequestLine is the protocol's trust boundary: arbitrary bytes, one
// request per line, through a session on an in-memory server holding one
// small relation. Whatever the bytes, the session returns, every
// non-blank line up to a close gets exactly one response line (streamed
// tuple lines aside), and no handler panics — a panic the session
// contains still counts as a failure. The session budget keeps fuzzed
// joins small.
func FuzzRequestLine(f *testing.F) {
	for _, s := range append(smokeSessions, hostileSession) {
		f.Add([]byte(strings.Join(s, "\n") + "\n"))
	}
	f.Add([]byte("\n \r\n{\"op\":\"stats\"}\r\nnot json\n{\"op\":\"close\"}\n{\"op\":\"stats\"}"))
	f.Fuzz(func(t *testing.T, input []byte) {
		srv := New(catalog.New(), Config{SessionMaxResolutions: 1 << 14, SessionMaxOutput: 1 << 10})
		defer srv.Close()
		drive(t, srv, loadTriangle)

		var out bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- srv.ServeSession(bytes.NewReader(input), &out) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("session did not return within 10s")
		}
		if p := srv.panics.Load(); p != 0 {
			t.Fatalf("%d request(s) panicked in a handler", p)
		}
		got := 0
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, 1<<26)
		for sc.Scan() {
			var line map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("output line %q is not a JSON object: %v", sc.Text(), err)
			}
			if _, isTuple := line["tuple"]; !isTuple {
				got++
			}
		}
		if want := wantResponses(input); got != want {
			t.Fatalf("%d response lines for %d requests", got, want)
		}
	})
}
