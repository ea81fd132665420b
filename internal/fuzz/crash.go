package fuzz

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/durable"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/segment"
	"tetrisjoin/internal/wal"
)

// crashMutations is the mutation-script length of the CrashRecovery
// configuration: enough writes that crashes can land before, inside and
// after every kind of record, without dominating the per-case budget.
const crashMutations = 5

// crashMaintID is the durable id of the maintained statement every
// crash script registers.
const crashMaintID = "crash-stmt"

// crashOp is one scripted mutation of the CrashRecovery configuration.
// The same plan is replayed against a WAL-backed durable catalog (with
// crashes injected) and against plain in-memory oracle catalogs that
// see only the durably-acknowledged prefix.
type crashOp struct {
	kind   string // ingest | append | delete | maintain
	name   string
	snap   relation.Snapshot // ingest payload
	tuples []relation.Tuple  // append/delete payload
	query  string            // maintain payload
	sao    []string          // maintain SAO, pinned so plans can't drift
	desc   string

	// Filled in when the op is acknowledged by a durable run.
	end    int64 // WAL byte offset where this op's record ends
	inCkpt bool  // folded into a checkpoint (durable regardless of WAL bytes)
}

// checkCrashRecovery is the CrashRecovery engine configuration: the
// case's relations are driven through a WAL-backed durable catalog via
// a deterministic mutation script, crashes are simulated by truncating
// and corrupting the log at random byte offsets (plus torn-write and
// failed-sync injection through the MemFS sync hook), and every
// recovered catalog must answer — relation contents, the maintained
// statement, and the prepared query, byte-identically — exactly as an
// in-memory oracle that saw only the durably-acknowledged prefix.
func (ck *Checker) checkCrashRecovery(c Case) *Discrepancy {
	// The script is a pure function of the case bytes (salted away from
	// the incremental-maintenance stream), so corpus replay and campaign
	// reruns exercise identical crash scenarios.
	h := fnv.New64a()
	h.Write([]byte("crash-recovery"))
	h.Write(c.Marshal())
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	plan, text, names, err := buildCrashPlan(c, rng)
	if err != nil {
		return &Discrepancy{Config: "crash-recovery", Detail: fmt.Sprintf("plan: %v", err)}
	}

	if d := ck.crashTruncationRun(plan, text, names, rng); d != nil {
		return d
	}
	if d := ck.crashCheckpointRun(plan, text, names, rng); d != nil {
		return d
	}
	if d := ck.crashSegmentRun(plan, text, names, rng); d != nil {
		return d
	}
	return ck.crashFailedSyncRun(plan, text, names, rng)
}

// crashSegmentRun attacks the checkpoint's segment files and manifest.
// On a full-script checkpoint image (no WAL tail) it checks the
// rebuild-free restart invariant — a clean segment-backed open builds
// zero indexes — then recovers byte-identically through every injector:
// a flipped or truncated or deleted segment file, a flipped manifest
// (which StrictReplay must refuse), and a flip confined to a frozen
// index section, which must rebuild just that index rather than fall
// back to an older manifest. A second image keeps a live WAL tail so
// fallback recovery has to compose both log epochs with the mutations.
func (ck *Checker) crashSegmentRun(plan []crashOp, text string, names []string, rng *rand.Rand) *Discrepancy {
	ops := clonePlan(plan)
	fs := wal.NewMemFS()
	if d := runCrashScript(fs, ops, len(ops)-1); d != nil {
		return d
	}

	// Clean restart probe: every index comes back from its segment.
	rec, err := durable.Open("", durable.Options{FS: fs.Clone(), CheckpointEvery: -1})
	if err != nil {
		return &Discrepancy{Config: "crash-recovery/segment-clean", Detail: fmt.Sprintf("open: %v", err)}
	}
	info := rec.Recovery()
	builds := rec.IndexBuilds()
	rec.Close()
	if info.CheckpointFallback || info.IndexesRebuilt != 0 || info.Replayed != 0 {
		return &Discrepancy{Config: "crash-recovery/segment-clean",
			Detail: fmt.Sprintf("clean segment restart not clean: %+v", info)}
	}
	if builds != 0 {
		return &Discrepancy{Config: "crash-recovery/segment-clean",
			Detail: fmt.Sprintf("clean segment restart built %d indexes, want 0", builds)}
	}
	if d := ck.recoverAndCompare("crash-recovery/segment-clean", fs.Clone(), ops, 0, text, names, nil); d != nil {
		return d
	}

	files, err := fs.List()
	if err != nil {
		return &Discrepancy{Config: "crash-recovery/segment", Detail: fmt.Sprintf("list: %v", err)}
	}
	var segFiles []string
	manifest := ""
	for _, f := range files {
		switch {
		case strings.HasPrefix(f, "seg-"):
			segFiles = append(segFiles, f)
		case strings.HasPrefix(f, "checkpoint-"):
			manifest = f
		}
	}
	if len(segFiles) == 0 || manifest == "" {
		return &Discrepancy{Config: "crash-recovery/segment",
			Detail: fmt.Sprintf("checkpoint image has %d segment files, manifest %q", len(segFiles), manifest)}
	}
	victim := segFiles[rng.Intn(len(segFiles))]

	// Damaged or missing pieces: recovery must reconstruct the exact
	// acknowledged state from whatever remains (older manifests, the
	// rotated log epochs), never fail open. The oracle cut is moot —
	// every op is checkpoint-covered.
	type injector struct {
		name   string
		mutate func(img *wal.MemFS) error
		sanity func(durable.RecoveryInfo) string
		strict bool // StrictReplay must refuse the image
	}
	injectors := []injector{
		{name: "seg-flip", mutate: func(img *wal.MemFS) error {
			return img.FlipByte(victim, rng.Int63n(img.Size(victim)))
		}},
		{name: "seg-truncate", mutate: func(img *wal.MemFS) error {
			return img.Truncate(victim, rng.Int63n(img.Size(victim)))
		}},
		{name: "seg-remove", mutate: func(img *wal.MemFS) error {
			return img.Remove(victim)
		}},
		{name: "manifest-flip", mutate: func(img *wal.MemFS) error {
			return img.FlipByte(manifest, rng.Int63n(img.Size(manifest)))
		}, sanity: func(info durable.RecoveryInfo) string {
			if !info.CheckpointFallback {
				return "damaged manifest did not trigger fallback"
			}
			return ""
		}, strict: true},
	}
	// A flip confined to a frozen index section must cost exactly a
	// rebuild of that index — the tuple data is intact, so falling back
	// to an older manifest would be wrong (some relation has one whose
	// planner touched an index unless the script degenerated).
	if off, ok := indexSectionOffset(fs, victim, rng); ok {
		injectors = append(injectors, injector{
			name:   "index-section-flip",
			mutate: func(img *wal.MemFS) error { return img.FlipByte(victim, off) },
			sanity: func(info durable.RecoveryInfo) string {
				if info.CheckpointFallback {
					return "index-section damage escalated to manifest fallback"
				}
				if info.IndexesRebuilt == 0 {
					return "index-section damage rebuilt nothing"
				}
				return ""
			},
		})
	}
	for _, inj := range injectors {
		img := fs.Clone()
		if err := inj.mutate(img); err != nil {
			return &Discrepancy{Config: "crash-recovery/" + inj.name, Detail: fmt.Sprintf("mutate: %v", err)}
		}
		if inj.strict {
			if _, err := durable.Open("", durable.Options{FS: img.Clone(), CheckpointEvery: -1, StrictReplay: true}); err == nil {
				return &Discrepancy{Config: "crash-recovery/" + inj.name,
					Detail: "StrictReplay opened an image with a damaged newest checkpoint"}
			}
		}
		if d := ck.recoverAndCompare("crash-recovery/"+inj.name, img, ops, 0, text, names, inj.sanity); d != nil {
			return d
		}
	}

	// Image with a live WAL tail past the checkpoint: a damaged segment
	// now forces fallback recovery to compose both log epochs with the
	// tail mutations.
	ops = clonePlan(plan)
	tailFS := wal.NewMemFS()
	if d := runCrashScript(tailFS, ops, rng.Intn(len(ops)-1)); d != nil {
		return d
	}
	img := tailFS.Clone()
	tailVictim := ""
	tfiles, _ := img.List()
	for _, f := range tfiles {
		if strings.HasPrefix(f, "seg-") {
			tailVictim = f
			break
		}
	}
	if tailVictim == "" {
		return &Discrepancy{Config: "crash-recovery/segment-tail", Detail: "tail image has no segment files"}
	}
	if err := img.FlipByte(tailVictim, rng.Int63n(img.Size(tailVictim))); err != nil {
		return &Discrepancy{Config: "crash-recovery/segment-tail", Detail: fmt.Sprintf("mutate: %v", err)}
	}
	return ck.recoverAndCompare("crash-recovery/segment-tail", img, ops, tailFS.Size(durable.WALName), text, names, nil)
}

// indexSectionOffset picks a byte offset strictly inside one of the
// victim segment's index sections (any section past the leading tuple
// section). ok is false when the segment froze no indexes.
func indexSectionOffset(fs *wal.MemFS, victim string, rng *rand.Rand) (int64, bool) {
	data, err := fs.ReadFile(victim)
	if err != nil {
		return 0, false
	}
	seg, err := segment.Load(data)
	if err != nil || seg.Sections() < 2 {
		return 0, false
	}
	off, length := seg.Extent(1 + rng.Intn(seg.Sections()-1))
	return off + rng.Int63n(length), true
}

// crashTruncationRun: run the whole script against a pure-WAL durable
// catalog, then crash it offline — truncations at record boundaries,
// inside records and at random offsets, plus a flipped byte — and check
// every recovery against the acknowledged-prefix oracle. One truncated
// image is recovered twice to pin idempotence.
func (ck *Checker) crashTruncationRun(plan []crashOp, text string, names []string, rng *rand.Rand) *Discrepancy {
	ops := clonePlan(plan)
	fs := wal.NewMemFS()
	if d := runCrashScript(fs, ops, -1); d != nil {
		return d
	}
	size := fs.Size(durable.WALName)

	// Crash offsets: the full log (clean restart), empty, a random byte,
	// a record boundary, and one byte short of a boundary (torn tail).
	k := rng.Intn(len(ops))
	cuts := map[int64]bool{size: true, 0: true, rng.Int63n(size + 1): true, ops[k].end: true}
	if ops[k].end > 0 {
		cuts[ops[k].end-1] = true
	}
	reopenCut := ops[k].end // the boundary image doubles as the idempotence probe
	for cut := range cuts {
		img := fs.Clone()
		if cut < size {
			if err := img.Truncate(durable.WALName, cut); err != nil {
				return &Discrepancy{Config: "crash-recovery", Detail: fmt.Sprintf("truncate@%d: %v", cut, err)}
			}
		}
		opens := 1
		if cut == reopenCut {
			opens = 2 // recover, close, recover again: same answers both times
		}
		for n := 0; n < opens; n++ {
			config := fmt.Sprintf("crash-recovery/truncate@%d(open %d/%d)", cut, n+1, opens)
			if d := ck.recoverAndCompare(config, img, ops, cut, text, names, func(info durable.RecoveryInfo) string {
				if info.CorruptOffset >= 0 {
					return fmt.Sprintf("truncation misread as corruption at offset %d", info.CorruptOffset)
				}
				return ""
			}); d != nil {
				return d
			}
		}
	}

	// Mid-log corruption: flip one byte, recover leniently, and expect
	// exactly the records before the damaged one.
	off := rng.Int63n(size)
	img := fs.Clone()
	if err := img.FlipByte(durable.WALName, off); err != nil {
		return &Discrepancy{Config: "crash-recovery", Detail: fmt.Sprintf("corrupt@%d: %v", off, err)}
	}
	// Strict mode must refuse a log corrupted strictly inside — unless
	// the flip hit the damaged record's length field (the parser then
	// cannot tell it from a torn final write) or the final record (torn
	// tails are legal even under StrictReplay).
	di := 0
	for di < len(ops) && ops[di].end <= off {
		di++
	}
	start := int64(0)
	if di > 0 {
		start = ops[di-1].end
	}
	inLenField := off >= start+8 && off < start+12
	if di < len(ops)-1 && !inLenField {
		if _, err := durable.Open("", durable.Options{FS: img.Clone(), CheckpointEvery: -1, StrictReplay: true}); err == nil {
			return &Discrepancy{Config: fmt.Sprintf("crash-recovery/corrupt@%d", off),
				Detail: "StrictReplay opened a log with mid-log corruption"}
		}
	}
	return ck.recoverAndCompare(fmt.Sprintf("crash-recovery/corrupt@%d", off), img, ops, off, text, names, nil)
}

// crashCheckpointRun: same script with a checkpoint taken mid-way, then
// a crash in the WAL tail. Recovery must compose the snapshot with the
// surviving tail records — including re-materializing the maintained
// statement at checkpoint state and feeding it the tail as deltas.
func (ck *Checker) crashCheckpointRun(plan []crashOp, text string, names []string, rng *rand.Rand) *Discrepancy {
	ops := clonePlan(plan)
	ckptAfter := rng.Intn(len(ops) - 1) // always leaves at least one tail record
	fs := wal.NewMemFS()
	if d := runCrashScript(fs, ops, ckptAfter); d != nil {
		return d
	}
	size := fs.Size(durable.WALName) // tail records only: the checkpoint rotated the log
	for _, cut := range []int64{size, rng.Int63n(size + 1)} {
		img := fs.Clone()
		if cut < size {
			if err := img.Truncate(durable.WALName, cut); err != nil {
				return &Discrepancy{Config: "crash-recovery", Detail: fmt.Sprintf("ckpt truncate@%d: %v", cut, err)}
			}
		}
		config := fmt.Sprintf("crash-recovery/ckpt@%d-truncate@%d", ckptAfter, cut)
		if d := ck.recoverAndCompare(config, img, ops, cut, text, names, func(info durable.RecoveryInfo) string {
			if info.CheckpointLSN == 0 {
				return "recovery ignored the checkpoint"
			}
			return ""
		}); d != nil {
			return d
		}
	}
	return nil
}

// crashFailedSyncRun: replay the script online against a filesystem
// whose sync fails at a random operation, persisting only a random
// prefix of the pending record (a torn write). The failing operation
// must surface the error, the durable catalog must poison itself, and
// the crash image — synced bytes only — must recover to exactly the
// operations it acknowledged (plus the torn record only when the
// failed sync happened to persist all of it).
func (ck *Checker) crashFailedSyncRun(plan []crashOp, text string, names []string, rng *rand.Rand) *Discrepancy {
	ops := clonePlan(plan)
	failAt := rng.Intn(len(ops))
	fs := wal.NewMemFS()
	syncs := 0
	fs.SyncHook = func(name string, pending int) (int, bool) {
		if name != durable.WALName {
			return pending, false
		}
		syncs++
		if syncs == failAt+1 {
			return rng.Intn(pending + 1), true
		}
		return pending, false
	}
	d, err := durable.Open("", durable.Options{FS: fs, CheckpointEvery: -1})
	if err != nil {
		return &Discrepancy{Config: "crash-recovery/failed-sync", Detail: fmt.Sprintf("open: %v", err)}
	}
	defer d.Close()
	for i := range ops {
		err := applyToDurable(d, &ops[i])
		ops[i].end = d.WAL().WALSize // counts written bytes even when the sync failed
		if i < failAt {
			if err != nil {
				return &Discrepancy{Config: "crash-recovery/failed-sync",
					Detail: fmt.Sprintf("op %d (%s) failed before the injected fault: %v", i, ops[i].desc, err)}
			}
			continue
		}
		if err == nil {
			return &Discrepancy{Config: "crash-recovery/failed-sync",
				Detail: fmt.Sprintf("op %d (%s) acknowledged over a failed sync", i, ops[i].desc)}
		}
		break
	}
	if d.Err() == nil {
		return &Discrepancy{Config: "crash-recovery/failed-sync",
			Detail: "durable catalog not poisoned after a failed sync"}
	}
	if _, err := d.Append(names[0]); err == nil {
		return &Discrepancy{Config: "crash-recovery/failed-sync",
			Detail: "mutation succeeded on a poisoned durable catalog"}
	}

	img := fs.CrashClone()
	cut := img.Size(durable.WALName)
	config := fmt.Sprintf("crash-recovery/failed-sync@%d-keep@%d", failAt, cut)
	return ck.recoverAndCompare(config, img, ops[:failAt+1], cut, text, names, nil)
}

// recoverAndCompare opens the crash image leniently and compares the
// recovered catalog against an oracle that replays only the ops durable
// in that image: those folded into a checkpoint, plus those whose WAL
// record ends at or before the cut offset. sanity, when non-nil, may
// veto the RecoveryInfo.
func (ck *Checker) recoverAndCompare(config string, img *wal.MemFS, ops []crashOp, cut int64,
	text string, names []string, sanity func(durable.RecoveryInfo) string) *Discrepancy {

	rec, err := durable.Open("", durable.Options{FS: img, CheckpointEvery: -1})
	if err != nil {
		return &Discrepancy{Config: config, Detail: fmt.Sprintf("recovery failed: %v", err)}
	}
	defer rec.Close()
	if sanity != nil {
		if msg := sanity(rec.Recovery()); msg != "" {
			return &Discrepancy{Config: config, Detail: msg}
		}
	}
	oracle, om, err := crashOracle(ops, cut)
	if err != nil {
		return &Discrepancy{Config: config, Detail: fmt.Sprintf("oracle replay: %v", err)}
	}
	return ck.compareCrashState(config, rec, oracle, om, text, names)
}

// crashOracle replays the durably-acknowledged prefix of the script
// into a plain in-memory catalog: checkpointed ops always, WAL-tail ops
// up to the cut. Durability is prefix-closed — checkpointed ops precede
// all tail ops and tail offsets are monotone — so the first op past the
// cut ends the replay.
func crashOracle(ops []crashOp, cut int64) (*catalog.Catalog, *catalog.Maintained, error) {
	cat := catalog.New()
	var m *catalog.Maintained
	for i := range ops {
		op := &ops[i]
		if !op.inCkpt && op.end > cut {
			break
		}
		switch op.kind {
		case "ingest":
			rel, err := relation.FromSnapshot(op.snap)
			if err != nil {
				return nil, nil, err
			}
			if _, err := cat.Ingest(rel); err != nil {
				return nil, nil, err
			}
		case "append":
			if _, err := cat.Append(op.name, op.tuples...); err != nil {
				return nil, nil, err
			}
		case "delete":
			if _, err := cat.Delete(op.name, op.tuples...); err != nil {
				return nil, nil, err
			}
		case "maintain":
			var err error
			m, err = cat.Maintain(op.query, join.Options{Mode: core.Preloaded, SAOVars: op.sao})
			if err != nil {
				return nil, nil, err
			}
		}
	}
	return cat, m, nil
}

// compareCrashState: the recovered durable catalog must match the
// oracle exactly — same relations with the same tuple sets, the
// maintained statement present iff its registration was durable and
// answering byte-identically, and the prepared query byte-identical.
func (ck *Checker) compareCrashState(config string, rec *durable.Catalog, oracle *catalog.Catalog,
	om *catalog.Maintained, text string, names []string) *Discrepancy {

	got := append([]string(nil), rec.Names()...)
	want := append([]string(nil), oracle.Names()...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return &Discrepancy{Config: config,
			Detail: fmt.Sprintf("recovered relations %v, want %v", got, want)}
	}
	for _, name := range want {
		orel, _ := oracle.Relation(name)
		rrel, _ := rec.Relation(name)
		if d := diffTuples(config+"/"+name, relationTuples(rrel), sortedCopy(relationTuples(orel))); d != nil {
			return d
		}
	}

	rm, ok := rec.MaintainedByID(crashMaintID)
	if ok != (om != nil) {
		return &Discrepancy{Config: config,
			Detail: fmt.Sprintf("maintained statement recovered=%v, want %v", ok, om != nil)}
	}
	if om != nil {
		wantRes, err := om.Execute(join.Options{})
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("oracle maintained execute: %v", err)}
		}
		gotRes, err := rm.Execute(join.Options{})
		if err != nil {
			return &Discrepancy{Config: config, Detail: fmt.Sprintf("recovered maintained execute: %v", err)}
		}
		if d := baseline.FirstDivergence(gotRes.Tuples, wantRes.Tuples); d != nil {
			return &Discrepancy{Config: config + "/maintained",
				Detail: fmt.Sprintf("recovered maintained result differs from oracle (%d tuples vs %d)",
					len(gotRes.Tuples), len(wantRes.Tuples)),
				Got: len(gotRes.Tuples), Want: len(wantRes.Tuples), Diff: d}
		}
	}

	// The prepared query, when every relation it touches survived the
	// crash: identical tuples in identical enumeration order.
	for _, n := range names {
		if _, ok := oracle.Relation(n); !ok {
			return nil
		}
	}
	opts := join.Options{Mode: core.Preloaded, Parallelism: 1}
	wantRes, err := oracle.Execute(text, opts)
	if err != nil {
		return &Discrepancy{Config: config, Detail: fmt.Sprintf("oracle execute: %v", err)}
	}
	gotRes, err := rec.Execute(text, opts)
	if err != nil {
		return &Discrepancy{Config: config, Detail: fmt.Sprintf("recovered execute: %v", err)}
	}
	if d := baseline.FirstDivergence(gotRes.Tuples, wantRes.Tuples); d != nil {
		return &Discrepancy{Config: config + "/query",
			Detail: fmt.Sprintf("recovered query result differs from oracle (%d tuples vs %d)",
				len(gotRes.Tuples), len(wantRes.Tuples)),
			Got: len(gotRes.Tuples), Want: len(wantRes.Tuples), Diff: d}
	}
	return nil
}

// buildCrashPlan derives the deterministic mutation script: ingest the
// case's relations, register the maintained statement (SAO pinned to
// the query's variable order so the oracle and every recovery plan
// identically), then crashMutations random writes. A scratch catalog
// tracks state so victim and duplicate picks see prior script effects.
func buildCrashPlan(c Case, rng *rand.Rand) (ops []crashOp, text string, names []string, _ error) {
	q, err := c.BuildQuery()
	if err != nil {
		return nil, "", nil, err
	}
	scratch := catalog.New()
	seen := map[string]bool{}
	var atoms []string
	for _, a := range q.Atoms() {
		name := a.Relation.Name()
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
			if _, err := scratch.Ingest(a.Relation); err != nil {
				return nil, "", nil, err
			}
			ops = append(ops, crashOp{kind: "ingest", name: name, snap: a.Relation.Snapshot(), desc: "ingest " + name})
		}
		atoms = append(atoms, name+"("+strings.Join(a.Vars, ",")+")")
	}
	text = strings.Join(atoms, ", ")
	ops = append(ops, crashOp{kind: "maintain", query: text,
		sao: append([]string(nil), q.Vars()...), desc: "maintain " + crashMaintID})
	for i := 0; i < crashMutations; i++ {
		op, err := planCrashMutation(scratch, names[rng.Intn(len(names))], rng)
		if err != nil {
			return nil, "", nil, err
		}
		ops = append(ops, op)
	}
	return ops, text, names, nil
}

// planCrashMutation picks one random write (the incremental-maintenance
// op mix: deletes of present and absent tuples, duplicate appends,
// batches, plain appends), applies it to the scratch catalog and
// records it as a plan op.
func planCrashMutation(scratch *catalog.Catalog, name string, rng *rand.Rand) (crashOp, error) {
	rel, ok := scratch.Relation(name)
	if !ok {
		return crashOp{}, fmt.Errorf("relation %q vanished", name)
	}
	depths := rel.Depths()
	randTuple := func() relation.Tuple {
		t := make(relation.Tuple, len(depths))
		for i, d := range depths {
			t[i] = uint64(rng.Intn(1 << d))
		}
		return t
	}
	op := crashOp{name: name}
	switch k := rng.Intn(6); {
	case k == 0 && rel.Len() > 0:
		victim := rel.Tuples()[rng.Intn(rel.Len())]
		op.kind, op.tuples = "delete", []relation.Tuple{victim}
		op.desc = fmt.Sprintf("delete %s%v", name, victim)
	case k == 1:
		t := randTuple()
		op.kind, op.tuples = "delete", []relation.Tuple{t}
		op.desc = fmt.Sprintf("delete-absent %s%v", name, t)
	case k == 2 && rel.Len() > 0:
		dup := rel.Tuples()[rng.Intn(rel.Len())]
		op.kind, op.tuples = "append", []relation.Tuple{dup}
		op.desc = fmt.Sprintf("append-dup %s%v", name, dup)
	case k == 3:
		op.kind, op.tuples = "append", []relation.Tuple{randTuple(), randTuple(), randTuple()}
		op.desc = fmt.Sprintf("append-batch %s x%d", name, len(op.tuples))
	default:
		t := randTuple()
		op.kind, op.tuples = "append", []relation.Tuple{t}
		op.desc = fmt.Sprintf("append %s%v", name, t)
	}
	var err error
	if op.kind == "append" {
		_, err = scratch.Append(name, op.tuples...)
	} else {
		_, err = scratch.Delete(name, op.tuples...)
	}
	return op, err
}

// runCrashScript drives the plan through a fresh durable catalog over
// fs, recording each acknowledged op's WAL end offset. With ckptAfter
// >= 0 a checkpoint is taken after that op, marking everything logged
// so far as checkpoint-covered.
func runCrashScript(fs *wal.MemFS, ops []crashOp, ckptAfter int) *Discrepancy {
	d, err := durable.Open("", durable.Options{FS: fs, CheckpointEvery: -1})
	if err != nil {
		return &Discrepancy{Config: "crash-recovery/script", Detail: fmt.Sprintf("open: %v", err)}
	}
	defer d.Close()
	for i := range ops {
		if err := applyToDurable(d, &ops[i]); err != nil {
			return &Discrepancy{Config: "crash-recovery/script",
				Detail: fmt.Sprintf("op %d (%s): %v", i, ops[i].desc, err)}
		}
		ops[i].end = d.WAL().WALSize
		if i == ckptAfter {
			if err := d.Checkpoint(); err != nil {
				return &Discrepancy{Config: "crash-recovery/script",
					Detail: fmt.Sprintf("checkpoint after op %d: %v", i, err)}
			}
			for j := 0; j <= i; j++ {
				ops[j].inCkpt = true
			}
		}
	}
	return nil
}

// applyToDurable applies one plan op to the journaled catalog.
func applyToDurable(d *durable.Catalog, op *crashOp) error {
	switch op.kind {
	case "ingest":
		rel, err := relation.FromSnapshot(op.snap)
		if err != nil {
			return err
		}
		_, err = d.Ingest(rel)
		return err
	case "append":
		_, err := d.Append(op.name, op.tuples...)
		return err
	case "delete":
		_, err := d.Delete(op.name, op.tuples...)
		return err
	case "maintain":
		_, err := d.MaintainAs(crashMaintID, op.query, join.Options{Mode: core.Preloaded, SAOVars: op.sao})
		return err
	default:
		return fmt.Errorf("unknown plan op %q", op.kind)
	}
}

// clonePlan copies the plan so each run records its own offsets.
func clonePlan(plan []crashOp) []crashOp {
	out := make([]crashOp, len(plan))
	copy(out, plan)
	return out
}

// relationTuples converts a relation's tuples for diffTuples.
func relationTuples(rel *relation.Relation) [][]uint64 {
	ts := rel.Tuples()
	out := make([][]uint64, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}
