package catalog

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// fakeJournal records what the catalog hands its journal. gate, when
// set, holds every Begin until it is closed; reject and fail inject the
// two ways a journal can refuse.
type fakeJournal struct {
	c *Catalog

	mu     sync.Mutex
	ops    []string
	reject error         // returned by Begin
	fail   error         // returned by Log
	gate   chan struct{} // Begin waits for it
	begun  chan struct{} // signalled once per Begin that reached the gate
}

func (j *fakeJournal) Begin() error {
	if j.gate != nil {
		j.begun <- struct{}{}
		<-j.gate
	}
	j.mu.Lock() // held until End: the serialization a real journal provides
	if j.reject != nil {
		j.mu.Unlock()
		return j.reject
	}
	return nil
}

func (j *fakeJournal) End() { j.mu.Unlock() }

// Log records the op and what a reader of the catalog sees at that
// moment: Log runs after the data mutation is applied, and before a
// registration's id is published.
func (j *fakeJournal) Log(m Mutation) error {
	if j.fail != nil {
		return j.fail
	}
	switch m.Op {
	case "ingest":
		_, published := j.c.Relation(m.Rel.Name())
		j.ops = append(j.ops, fmt.Sprintf("ingest %s specs=%d published=%v", m.Rel.Name(), len(m.Specs), published))
	case "append", "delete":
		rel, _ := j.c.Relation(m.Name)
		j.ops = append(j.ops, fmt.Sprintf("%s %s %v len=%d", m.Op, m.Name, m.Tuples, rel.Len()))
	case "maintain":
		_, registered := j.c.MaintainedByID(m.Statement.ID)
		j.ops = append(j.ops, fmt.Sprintf("maintain %s %v %v registered=%v",
			m.Statement.ID, m.Statement.Mode, m.Statement.SAOVars, registered))
	}
	return nil
}

// Every mutation reaches the journal exactly once, after it is applied,
// carrying the caller's arguments; reads, anonymous statements,
// attachments and IngestPrepared do not.
func TestJournalSeesEveryMutationOnceAfterApply(t *testing.T) {
	c := triangleCatalog(t) // ingested before the journal is attached: not logged
	j := &fakeJournal{c: c}
	c.SetJournal(j)

	s := relation.MustNewUniform("S", []string{"x", "y"}, 4)
	s.MustInsert(1, 1)
	if _, err := c.Ingest(s); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("R", relation.Tuple{2, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("R", relation.Tuple{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Maintain(triQuery, join.Options{}); err != nil { // anonymous
		t.Fatal(err)
	}
	opts := join.Options{Mode: core.Preloaded, SAOVars: []string{"C", "B", "A"}}
	m, err := c.MaintainAs("tri", triQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := c.MaintainAs("tri", triQuery, opts); err != nil || again != m { // attaches
		t.Fatalf("attach returned %p, %v; want %p", again, err, m)
	}
	if _, err := c.MaintainAs("tri", "R(A,B)", opts); err == nil {
		t.Fatal("an id accepted a second query")
	}
	u := relation.MustNewUniform("U", []string{"x"}, 4)
	if _, err := c.IngestPrepared(u, nil); err != nil { // the recovery path
		t.Fatal(err)
	}
	if _, err := c.Execute(triQuery, join.Options{}); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"ingest S specs=0 published=true",
		"append R [[2 4]] len=5",
		"delete R [[3 4]] len=4",
		"maintain tri tetris-preloaded [C B A] registered=false",
	}
	if !reflect.DeepEqual(j.ops, want) {
		t.Fatalf("journal saw\n %q\nwant\n %q", j.ops, want)
	}
	if got := m.Registration(); got.ID != "tri" || got.Query != triQuery || got.Mode != core.Preloaded ||
		!reflect.DeepEqual(got.SAOVars, opts.SAOVars) {
		t.Fatalf("registration %+v does not carry MaintainAs's arguments", got)
	}
	if ids := c.MaintainedIDs(); !reflect.DeepEqual(ids, []string{"tri"}) {
		t.Fatalf("registry holds %v", ids)
	}
}

// A journal that refuses in Begin stops the mutation before it is
// applied; one that fails in Log fails the call after it was.
func TestJournalRefusals(t *testing.T) {
	c := triangleCatalog(t)
	j := &fakeJournal{c: c, reject: errors.New("poisoned")}
	c.SetJournal(j)
	gen := c.Generation()
	if _, err := c.Append("R", relation.Tuple{2, 4}); !errors.Is(err, j.reject) {
		t.Fatalf("append on a refusing journal: %v", err)
	}
	if _, err := c.MaintainAs("tri", triQuery, join.Options{}); !errors.Is(err, j.reject) {
		t.Fatalf("maintain on a refusing journal: %v", err)
	}
	if c.Generation() != gen || len(c.MaintainedIDs()) != 0 {
		t.Fatal("a mutation refused in Begin was applied anyway")
	}

	j.reject, j.fail = nil, errors.New("disk full")
	if _, err := c.Append("R", relation.Tuple{2, 4}); !errors.Is(err, j.fail) {
		t.Fatalf("append with a failing Log: %v", err)
	}
	if c.Generation() == gen {
		t.Fatal("Log ran before the mutation was applied")
	}
	// A registration whose Log failed is not there to attach to: the retry
	// must fail the same way, never report success for an unjournaled id.
	for range 2 {
		if m, err := c.MaintainAs("tri", triQuery, join.Options{}); !errors.Is(err, j.fail) || m != nil {
			t.Fatalf("maintain with a failing Log: %v, %v", m, err)
		}
		if ids := c.MaintainedIDs(); len(ids) != 0 {
			t.Fatalf("unjournaled registration stayed registered: %v", ids)
		}
	}
}

// Attach-or-create is one operation: two registrations of the same new
// id that both start before either finishes produce one statement and
// one journal record. The gate holds the first inside Begin — past the
// point where a separate lookup would already have missed — until the
// second has started.
func TestMaintainAsIsAtomic(t *testing.T) {
	c := triangleCatalog(t)
	j := &fakeJournal{c: c, gate: make(chan struct{}), begun: make(chan struct{}, 2)}
	c.SetJournal(j)

	var wg sync.WaitGroup
	got := make([]*Maintained, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.MaintainAs("tri", triQuery, join.Options{})
		}()
	}
	<-j.begun // one creator is inside the journal
	// The other must be parked behind it, not beside it. Being parked is
	// not observable, so give it time to show up where it must never be.
	select {
	case <-j.begun:
		t.Error("both registrations got past the lookup")
	case <-time.After(20 * time.Millisecond):
	}
	close(j.gate)
	wg.Wait()

	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errors %v, %v", errs[0], errs[1])
	}
	if got[0] != got[1] {
		t.Fatal("two registrations of one id produced two statements")
	}
	if len(j.ops) != 1 || len(c.MaintainedIDs()) != 1 {
		t.Fatalf("journal %q, registry %v: want one record, one statement", j.ops, c.MaintainedIDs())
	}
}
