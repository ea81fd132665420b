package durable

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/wal"
)

// openMem opens a durable catalog over the in-memory FS with automatic
// checkpoints off, so tests control every checkpoint explicitly.
func openMem(t *testing.T, fs *wal.MemFS) *Catalog {
	t.Helper()
	d, err := Open("", Options{FS: fs, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const pathQuery = "R1(A,B), R2(B,C), R3(C,D)"

// seedPath ingests the three path-query relations with explicit specs.
func seedPath(t *testing.T, d *Catalog, n int, depth uint8, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for i := 1; i <= 3; i++ {
		rel := relation.MustNewUniform(fmt.Sprintf("R%d", i), []string{"X", "Y"}, depth)
		for k := 0; k < n; k++ {
			rel.MustInsert(uint64(r.Intn(1<<depth)), uint64(r.Intn(1<<depth)))
		}
		if _, err := d.Ingest(rel, index.BTreeSpec("X", "Y")); err != nil {
			t.Fatal(err)
		}
	}
}

// execOpts is the deterministic execution configuration used for
// byte-identity comparisons.
var execOpts = join.Options{Mode: core.Preloaded, Parallelism: 1}

// assertSameCatalog compares the recovered catalog against an oracle:
// same relation names, same tuple sets, same maintained ids.
func assertSameCatalog(t *testing.T, label string, got *Catalog, want *catalog.Catalog) {
	t.Helper()
	gn, wn := got.Names(), want.Names()
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("%s: relations %v, want %v", label, gn, wn)
	}
	for _, name := range wn {
		gr, _ := got.Relation(name)
		wr, _ := want.Relation(name)
		if !reflect.DeepEqual(gr.Tuples(), wr.Tuples()) {
			t.Fatalf("%s: relation %s has %d tuples, want %d (or differing contents)",
				label, name, gr.Len(), wr.Len())
		}
	}
}

func TestOpenEmptyThenRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	if info := d.Recovery(); info.Relations != 0 || info.LastLSN != 0 || info.CorruptOffset != -1 {
		t.Fatalf("empty open recovered %+v", info)
	}
	seedPath(t, d, 40, 6, 1)
	if _, err := d.Append("R2", relation.Tuple{1, 2}, relation.Tuple{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete("R1", relation.Tuple{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MaintainAs("path", pathQuery, execOpts); err != nil {
		t.Fatal(err)
	}
	res, err := d.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openMem(t, fs)
	defer re.Close()
	info := re.Recovery()
	if info.Relations != 3 || info.Maintained != 1 || info.TornTail || info.CorruptOffset != -1 {
		t.Fatalf("recovery info %+v", info)
	}
	// The recovered catalog serves the prepared query byte-identically.
	res2, err := re.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tuples, res2.Tuples) {
		t.Fatalf("recovered result differs: %d tuples vs %d", len(res2.Tuples), len(res.Tuples))
	}
	m, ok := re.MaintainedByID("path")
	if !ok {
		t.Fatal("maintained statement not recovered")
	}
	mres, err := m.Execute(execOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mres.Tuples, res.Tuples) {
		t.Fatal("recovered maintained statement serves a different result")
	}
	// Ingest's eager specs are part of the durable state.
	if specs := re.Specs("R1"); len(specs) == 0 {
		t.Fatal("ingest-time specs lost in recovery")
	}
	// A recovered id attaches when the query matches and is refused when
	// it differs; new ids keep working after recovery.
	if again, err := re.MaintainAs("path", pathQuery, execOpts); err != nil || again != m {
		t.Fatalf("re-registering a recovered id: statement %p (want %p), err %v", again, m, err)
	}
	if _, err := re.MaintainAs("path", "R1(A,B), R2(B,C)", execOpts); err == nil {
		t.Fatal("recovered id accepted a different query")
	}
	if _, err := re.MaintainAs("path2", pathQuery, execOpts); err != nil {
		t.Fatal(err)
	}
}

// A torn final record is truncated away and recovery is idempotent:
// reopening any number of times converges to the acknowledged prefix.
func TestTornTailRepairAndIdempotence(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	seedPath(t, d, 20, 6, 2)
	if _, err := d.Append("R1", relation.Tuple{5, 6}); err != nil {
		t.Fatal(err)
	}
	sizeBefore := d.WAL().WALSize
	if _, err := d.Append("R1", relation.Tuple{7, 8}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Tear the final record: cut three bytes off its frame.
	if err := fs.Truncate(WALName, d.WAL().WALSize-3); err != nil {
		t.Fatal(err)
	}

	oracle := catalog.New()
	r := rand.New(rand.NewSource(2))
	for i := 1; i <= 3; i++ {
		rel := relation.MustNewUniform(fmt.Sprintf("R%d", i), []string{"X", "Y"}, 6)
		for k := 0; k < 20; k++ {
			rel.MustInsert(uint64(r.Intn(64)), uint64(r.Intn(64)))
		}
		if _, err := oracle.Ingest(rel); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := oracle.Append("R1", relation.Tuple{5, 6}); err != nil {
		t.Fatal(err)
	}

	re := openMem(t, fs)
	if info := re.Recovery(); !info.TornTail || info.CorruptOffset != -1 {
		t.Fatalf("recovery info %+v, want torn tail and no corruption", info)
	}
	assertSameCatalog(t, "after tear", re, oracle)
	if got := re.WAL().WALSize; got != sizeBefore {
		t.Fatalf("repaired WAL is %d bytes, want %d", got, sizeBefore)
	}
	lsn := re.WAL().LastLSN
	re.Close()

	// Restart twice more: identical state, no further repair needed.
	for round := 0; round < 2; round++ {
		re = openMem(t, fs)
		if info := re.Recovery(); info.TornTail {
			t.Fatalf("round %d: repair was not persistent: %+v", round, info)
		}
		if re.WAL().LastLSN != lsn {
			t.Fatalf("round %d: LSN drifted: %d, want %d", round, re.WAL().LastLSN, lsn)
		}
		assertSameCatalog(t, fmt.Sprintf("restart %d", round), re, oracle)
		re.Close()
	}
}

// Mid-log corruption: lenient mode recovers the prefix before the
// damaged record and reports its offset; strict mode refuses to open.
func TestMidLogCorruption(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	rel := relation.MustNewUniform("R", []string{"X", "Y"}, 6)
	rel.MustInsert(1, 1)
	if _, err := d.Ingest(rel, index.BTreeSpec("X", "Y")); err != nil {
		t.Fatal(err)
	}
	ends := []int64{d.WAL().WALSize}
	for i := 0; i < 3; i++ {
		if _, err := d.Append("R", relation.Tuple{uint64(i + 2), uint64(i + 2)}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, d.WAL().WALSize)
	}
	d.Close()
	// Damage the payload of the second append (record index 2): its
	// frame spans [ends[1], ends[2]).
	if err := fs.FlipByte(WALName, ends[1]+20); err != nil {
		t.Fatal(err)
	}

	if _, err := Open("", Options{FS: fs.Clone(), CheckpointEvery: -1, StrictReplay: true}); err == nil {
		t.Fatal("strict replay opened a corrupt log")
	} else if !strings.Contains(err.Error(), fmt.Sprint(ends[1])) {
		t.Fatalf("strict error %q does not name offset %d", err, ends[1])
	}

	re := openMem(t, fs)
	defer re.Close()
	info := re.Recovery()
	if info.CorruptOffset != ends[1] {
		t.Fatalf("corrupt offset %d, want %d", info.CorruptOffset, ends[1])
	}
	r, _ := re.Relation("R")
	if r.Len() != 2 { // ingest tuple + first append; appends 2 and 3 lost
		t.Fatalf("recovered %d tuples, want the 2 before the damage", r.Len())
	}
	if got := re.WAL().WALSize; got != ends[1] {
		t.Fatalf("log truncated to %d, want %d", got, ends[1])
	}
}

// Checkpoint plus tail: recovery loads the snapshot and replays only
// the records logged after it.
func TestCheckpointPlusTail(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	seedPath(t, d, 30, 6, 3)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.WAL().WALSize; got != 0 {
		t.Fatalf("WAL not truncated by checkpoint: %d bytes", got)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.Append("R2", relation.Tuple{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	re := openMem(t, fs)
	defer re.Close()
	info := re.Recovery()
	if info.CheckpointLSN == 0 || info.Replayed != 4 {
		t.Fatalf("recovery info %+v, want checkpoint + 4 tail records", info)
	}
	res2, err := re.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tuples, res2.Tuples) {
		t.Fatal("checkpoint+tail recovery serves a different result")
	}
	// The checkpoint carried the relations' index specs.
	if specs := re.Specs("R2"); len(specs) == 0 {
		t.Fatal("checkpoint lost the maintained specs")
	}
}

// A maintained statement checkpointed before further mutations is
// re-materialized BEFORE the tail replays, so it digests the tail as
// live deltas — the mid-delta-chain recovery path.
func TestMaintainedRecoveredMidDeltaChain(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	seedPath(t, d, 30, 6, 4)
	if _, err := d.MaintainAs("path", pathQuery, execOpts); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 6; i++ {
		if _, err := d.Append("R2", relation.Tuple{uint64(r.Intn(64)), uint64(r.Intn(64))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.MaintainAs("late", "R1(A,B), R2(B,C)", execOpts); err != nil {
		t.Fatal(err)
	}
	d.Close()

	re := openMem(t, fs)
	defer re.Close()
	if info := re.Recovery(); info.Maintained != 2 {
		t.Fatalf("recovered %d maintained statements, want 2", info.Maintained)
	}
	for id, query := range map[string]string{"path": pathQuery, "late": "R1(A,B), R2(B,C)"} {
		m, ok := re.MaintainedByID(id)
		if !ok {
			t.Fatalf("statement %q not recovered", id)
		}
		mres, err := m.Execute(execOpts)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: a scratch execution over the recovered relations.
		want, err := re.Execute(query, join.Options{Mode: core.Preloaded, Parallelism: 1, SAOVars: mres.SAO})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mres.Tuples, want.Tuples) {
			t.Fatalf("statement %q serves %d tuples, scratch recompute %d",
				id, len(mres.Tuples), len(want.Tuples))
		}
	}
}

// A crash between checkpoint publish and WAL truncation leaves a WAL
// whose records are all covered by the checkpoint; recovery skips them
// (idempotent replay) and completes the truncation.
func TestCheckpointCrashBeforeWALTruncate(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	seedPath(t, d, 25, 6, 5)
	pre := fs.Clone() // image with the full WAL, before checkpoint
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Graft the published checkpoint — manifest plus the segment files
	// it references — into the pre-checkpoint image: exactly the
	// on-disk state after the manifest rename, before the WAL rotation.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	grafted := 0
	for _, name := range names {
		_, isCkpt := parseCkptName(name)
		if !isCkpt && !isSegName(name) {
			continue
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pre.OpenAppend(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Sync()
		f.Close()
		grafted++
	}
	if grafted < 2 {
		t.Fatalf("expected a manifest and at least one segment, grafted %d files", grafted)
	}

	re, err := Open("", Options{FS: pre, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	info := re.Recovery()
	if info.CheckpointLSN == 0 || info.Replayed != 0 {
		t.Fatalf("recovery info %+v, want checkpoint with zero tail replay", info)
	}
	// The stale covered records stay in the live log (the LSN filter
	// skipped them); the next checkpoint rotates the whole file out.
	res2, err := re.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tuples, res2.Tuples) {
		t.Fatal("crash-before-truncate recovery serves a different result")
	}
}

// A failed sync poisons the catalog: the op errors, later mutations
// fail fast, and the crash image recovers only the acknowledged prefix.
func TestFailedSyncPoisons(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	rel := relation.MustNewUniform("R", []string{"X", "Y"}, 6)
	rel.MustInsert(1, 1)
	if _, err := d.Ingest(rel); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append("R", relation.Tuple{2, 2}); err != nil {
		t.Fatal(err)
	}

	fail := true
	fs.SyncHook = func(name string, pending int) (int, bool) {
		if fail && name == WALName {
			return 0, true // clean sync failure: nothing reaches disk
		}
		return pending, false
	}
	if _, err := d.Append("R", relation.Tuple{3, 3}); err == nil {
		t.Fatal("append acknowledged despite failed sync")
	}
	if d.Err() == nil {
		t.Fatal("failed sync did not poison the catalog")
	}
	fail = false
	if _, err := d.Append("R", relation.Tuple{4, 4}); err == nil {
		t.Fatal("poisoned catalog accepted a mutation")
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatal("poisoned catalog accepted a checkpoint")
	}

	re, err := Open("", Options{FS: fs.CrashClone(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	r, _ := re.Relation("R")
	if !reflect.DeepEqual(r.Tuples(), []relation.Tuple{{1, 1}, {2, 2}}) {
		t.Fatalf("crash image recovered %v, want the acknowledged prefix", r.Tuples())
	}
}

// With automatic checkpoints off nothing but mutations syncs the WAL, so
// the count is exact: every acknowledged mutation costs one fsync,
// attaching to a registered id and reading cost none. (The benchmark
// ladder's wal.syncs_per_op cannot pin this: its auto-checkpoints land by
// timing.)
func TestOneSyncPerMutation(t *testing.T) {
	fs := wal.NewMemFS()
	syncs := 0
	fs.SyncHook = func(name string, pending int) (int, bool) {
		if name == WALName {
			syncs++
		}
		return pending, false
	}
	d := openMem(t, fs)
	defer d.Close()
	seedPath(t, d, 20, 4, 7) // 3 ingests
	if _, err := d.MaintainAs("path", pathQuery, execOpts); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if _, err := d.Append("R2", relation.Tuple{i, i}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Delete("R2", relation.Tuple{i, i}); err != nil {
			t.Fatal(err)
		}
	}
	size := d.WAL().WALSize
	// 1878 bytes is what the same 20 mutations logged before durability
	// moved behind the catalog's journal (measured at that commit).
	if syncs != 3+1+16 || d.WAL().LastLSN != 20 || size != 1878 {
		t.Fatalf("%d WAL syncs, last LSN %d, %d bytes; want 20, 20, 1878 for 20 mutations", syncs, d.WAL().LastLSN, size)
	}
	if _, err := d.MaintainAs("path", pathQuery, execOpts); err != nil { // attaches
		t.Fatal(err)
	}
	if _, err := d.Execute(pathQuery, execOpts); err != nil {
		t.Fatal(err)
	}
	if syncs != 20 || d.WAL().WALSize != size {
		t.Fatalf("an attach or a read touched the WAL: %d syncs, %d → %d bytes", syncs, size, d.WAL().WALSize)
	}
}

// A registration whose sync failed was never journaled: retrying the same
// id and query must keep failing, not attach to a leftover and report a
// success no restart would honour.
func TestFailedSyncDoesNotRegister(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	seedPath(t, d, 20, 4, 7)
	fs.SyncHook = func(name string, pending int) (int, bool) { return 0, name == WALName }
	for range 2 {
		if m, err := d.MaintainAs("path", pathQuery, execOpts); err == nil {
			t.Fatalf("maintain acknowledged despite failed sync: %v", m)
		}
		if ids := d.MaintainedIDs(); len(ids) != 0 {
			t.Fatalf("unjournaled registration stayed registered: %v", ids)
		}
	}
	re, err := Open("", Options{FS: fs.CrashClone(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ids := re.MaintainedIDs(); len(ids) != 0 {
		t.Fatalf("crash image recovered registrations %v", ids)
	}
}

// Automatic checkpoints fire after CheckpointEvery records and bound
// the WAL.
func TestAutoCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open("", Options{FS: fs, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.MustNewUniform("R", []string{"X", "Y"}, 6)
	rel.MustInsert(1, 1)
	if _, err := d.Ingest(rel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Append("R", relation.Tuple{uint64(i + 10), uint64(i + 10)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.WAL().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic checkpoint after 6 records with CheckpointEvery=2")
		}
		time.Sleep(time.Millisecond)
	}
	d.Close()

	re := openMem(t, fs)
	defer re.Close()
	if info := re.Recovery(); info.CheckpointLSN == 0 {
		t.Fatalf("recovery ignored the automatic checkpoint: %+v", info)
	}
	r, _ := re.Relation("R")
	if r.Len() != 6 {
		t.Fatalf("recovered %d tuples, want 6", r.Len())
	}
}

// stallFS is a MemFS whose WAL syncs park until released, signalling
// each arrival: the test's handle on "a mutation is inside its fsync".
type stallFS struct {
	*wal.MemFS
	arrived, release chan struct{}
}

type stallFile struct {
	wal.File
	fs *stallFS
}

func (fs *stallFS) OpenAppend(name string) (wal.File, error) {
	f, err := fs.MemFS.OpenAppend(name)
	if err != nil || name != WALName {
		return f, err
	}
	return stallFile{f, fs}, nil
}

func (f stallFile) Sync() error {
	f.fs.arrived <- struct{}{}
	<-f.fs.release
	return f.File.Sync()
}

// Readers never wait on an fsync: while a mutation is parked inside its
// WAL sync — applied, not yet acknowledged — lookups, preparation and the
// exec of a registered statement all complete. Only another writer
// queues behind it.
func TestReadersDoNotWaitOnSync(t *testing.T) {
	fs := &stallFS{MemFS: wal.NewMemFS(), arrived: make(chan struct{}), release: make(chan struct{})}
	unstall := func() { <-fs.arrived; fs.release <- struct{}{} }
	d, err := Open("", Options{FS: fs, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 4; i++ { // three ingests and the registration
		go unstall()
	}
	seedPath(t, d, 30, 6, 5)
	if _, err := d.MaintainAs("path", pathQuery, execOpts); err != nil {
		t.Fatal(err)
	}

	appended := make(chan error, 1)
	go func() {
		_, err := d.Append("R2", relation.Tuple{1, 2})
		appended <- err
	}()
	<-fs.arrived // the append is applied and sits in its fsync

	reads := make(chan error, 1)
	go func() {
		m, ok := d.MaintainedByID("path")
		if !ok {
			reads <- fmt.Errorf("registered statement not found")
			return
		}
		if _, err := m.Execute(execOpts); err != nil {
			reads <- err
			return
		}
		if _, err := d.Prepare("R1(A,B), R2(B,C)", execOpts); err != nil {
			reads <- err
			return
		}
		_ = d.Stats()
		_ = d.MaintainedIDs()
		reads <- nil
	}()
	select {
	case err := <-reads:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		fs.release <- struct{}{} // let the append finish, or Close hangs too
		t.Fatal("a reader is waiting on a writer's fsync")
	}
	select {
	case err := <-appended:
		t.Fatalf("append acknowledged before its sync returned (err %v)", err)
	default:
	}
	fs.release <- struct{}{}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
}

// A maintain record in an LB mode — journaled before maintained
// statements were held to the plain modes — still opens: the statement
// replays in the plain mode with the same initial load and serves the
// query's tuples. A new LB registration is refused before it is logged.
func TestLBMaintainRecordReplaysPlain(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	seedPath(t, d, 30, 6, 5)
	if _, err := d.MaintainAs("lb", pathQuery, join.Options{Mode: core.ReloadedLB}); err == nil ||
		!strings.Contains(err.Error(), "maintained statements run the plain modes") {
		t.Fatalf("MaintainAs in reloaded-lb: err %v", err)
	}
	for id, mode := range map[string]string{"lb": "reloaded-lb", "plb": "preloaded-lb"} {
		d.mu.Lock()
		err := d.logOp(walOp{Op: "maintain", ID: id, Query: pathQuery, Mode: mode})
		d.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	re := openMem(t, fs)
	for id, want := range map[string]core.Mode{"lb": core.Reloaded, "plb": core.Preloaded} {
		m, ok := re.MaintainedByID(id)
		if !ok {
			t.Fatalf("statement %q not recovered", id)
		}
		if got := m.Registration().Mode; got != want {
			t.Errorf("statement %q replayed in %v, want %v", id, got, want)
		}
		mres, err := m.Execute(execOpts)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := re.Execute(pathQuery, join.Options{Mode: want, Parallelism: 1, SAOVars: mres.SAO})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mres.Tuples, scratch.Tuples) || len(mres.Tuples) == 0 {
			t.Fatalf("statement %q serves %d tuples, scratch run %d", id, len(mres.Tuples), len(scratch.Tuples))
		}
	}
	// The next checkpoint records the plain modes, and reopens from them.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re.Close()
	again := openMem(t, fs)
	defer again.Close()
	if info := again.Recovery(); info.Maintained != 2 {
		t.Fatalf("recovered %d maintained statements after the checkpoint, want 2", info.Maintained)
	}
}
