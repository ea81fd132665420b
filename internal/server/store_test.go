package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/durable"
	"tetrisjoin/internal/wal"
)

// stores are the two things a server can sit on. Everything the protocol
// promises is promised for both, so tests of the mutation path and the
// statement registry run once per entry.
var stores = []struct {
	name string
	open func(t *testing.T, cfg Config) *Server
}{
	{"memory", func(t *testing.T, cfg Config) *Server {
		srv := New(catalog.New(), cfg)
		t.Cleanup(srv.Close)
		return srv
	}},
	{"durable", func(t *testing.T, cfg Config) *Server {
		d, err := durable.Open("", durable.Options{FS: wal.NewMemFS(), CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewDurable(d, cfg)
		t.Cleanup(func() {
			srv.Close()
			if err := d.Close(); err != nil {
				t.Error(err)
			}
		})
		return srv
	}},
}

const triangleQuery = `R(A,B), R(B,C), R(A,C)`

// Sessions registering the same new id with the same query at the
// same time all succeed — one creates, the rest attach — and the registry
// holds one statement. Lookup-then-create as two steps let the loser of
// the race see "already exists".
func TestConcurrentMaintainAttachesOrCreates(t *testing.T) {
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			// One admission slot per session: with fewer, the maintain ops
			// would be serialized before they reach the registry.
			const sessions = 8
			srv := st.open(t, Config{MaxConcurrent: sessions})
			drive(t, srv, loadTriangle)
			const rounds = 25
			for round := 0; round < rounds; round++ {
				req := fmt.Sprintf(`{"op":"maintain","id":"m%d","query":%q,"mode":"preloaded"}`, round, triangleQuery)
				var wg sync.WaitGroup
				replies := make([]bytes.Buffer, sessions)
				start := make(chan struct{})
				for i := range replies {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						if err := srv.ServeSession(strings.NewReader(req+"\n"), &replies[i]); err != nil {
							t.Errorf("round %d: session %d: %v", round, i, err)
						}
					}()
				}
				close(start)
				wg.Wait()
				for i := range replies {
					if r := replies[i].String(); !strings.HasPrefix(r, `{"ok":true,`) {
						t.Fatalf("round %d: session %d: %s", round, i, r)
					}
				}
			}
			if ids := srv.Catalog().MaintainedIDs(); len(ids) != rounds {
				t.Fatalf("registry holds %d statements, want %d: %v", len(ids), rounds, ids)
			}
		})
	}
}

// One transcript, both stores: a maintained id registered by session A
// is the same statement to session B — exec, patched refresh, attach on
// a matching re-maintain, refusal of a different query — a session-local
// prepare shadows it for that session only, and the reply lines are the
// same whether or not the catalog is journaled. What may differ is what
// durability itself adds: the checkpoint reply and the WAL stats keys.
func TestTranscriptIdenticalOnBothStores(t *testing.T) {
	sessionA := []string{
		loadTriangle,
		fmt.Sprintf(`{"op":"maintain","id":"tri","query":%q,"mode":"preloaded"}`, triangleQuery),
	}
	sessionB := []string{
		`{"op":"exec","id":"tri","buffer":true}`,
		`{"op":"append","name":"R","tuples":[[2,4]]}`,
		`{"op":"exec","id":"tri","buffer":true}`,
		fmt.Sprintf(`{"op":"maintain","id":"tri","query":%q,"mode":"preloaded"}`, triangleQuery),
		`{"op":"maintain","id":"tri","query":"R(A,B), R(B,C)","mode":"preloaded"}`,
		`{"op":"prepare","id":"tri","query":"R(A,B)"}`,
		`{"op":"exec","id":"tri","buffer":true}`,
		`{"op":"checkpoint"}`,
		`{"op":"stats"}`,
	}
	sessionC := []string{`{"op":"exec","id":"tri","buffer":true}`}

	transcripts := map[string][]string{}
	for _, st := range stores {
		srv := st.open(t, Config{})
		var lines []string
		for _, reqs := range [][]string{sessionA, sessionB, sessionC} {
			for _, reply := range drive(t, srv, reqs...) {
				// Version stamps come from one process-wide counter, so two
				// servers in one test process can never agree on them.
				delete(reply, "version")
				if reply["op"] == "checkpoint" {
					reply = map[string]any{"op": "checkpoint"}
				}
				if stats, ok := reply["stats"].(map[string]any); ok {
					for _, key := range []string{"wal_last_lsn", "wal_size", "checkpoints"} {
						delete(stats, key)
					}
				}
				b, err := json.Marshal(reply)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, string(b))
			}
		}
		transcripts[st.name] = lines
	}

	mem, dur := transcripts["memory"], transcripts["durable"]
	if len(mem) != len(dur) {
		t.Fatalf("memory replied %d lines, durable %d", len(mem), len(dur))
	}
	for i := range mem {
		if mem[i] != dur[i] {
			t.Errorf("reply %d differs:\n memory  %s\n durable %s", i, mem[i], dur[i])
		}
	}

	// The shared transcript says what the unified semantics are.
	a, b := len(sessionA), len(sessionA)+len(sessionB)
	for i, want := range map[int]string{
		a + 0: `"refresh":"none"`,                      // B execs A's statement
		a + 2: `"refresh":"patched"`,                   // after B's append
		a + 3: `"ok":true`,                             // same id, same query: attaches
		a + 4: `already exists with a different query`, // same id, other query
		a + 6: `"outputs":5`,                           // B's prepare shadows the id: R(A,B), no refresh
		b + 0: `"refresh":"none"`,                      // C still sees the maintained one
	} {
		if !strings.Contains(mem[i], want) {
			t.Errorf("reply %d = %s, want it to contain %s", i, mem[i], want)
		}
	}
	if strings.Contains(mem[a+6], "refresh") {
		t.Errorf("exec of the shadowing prepared statement reports a refresh: %s", mem[a+6])
	}
}
