// Package durable makes a catalog.Catalog survive crashes: it is the
// catalog's journal (a write-ahead log), its checkpoints, and the
// recovery that puts the two back together. The mutation methods stay
// the catalog's own, promoted unchanged; this package implements the
// catalog.Journal seam they all pass through.
//
// Every mutation is applied to the in-memory catalog, then encoded as
// one JSON record, appended to the WAL, and fsynced before the call
// returns. The sync point IS the acknowledgement: an operation whose
// call returned nil error survives any crash; an operation whose call
// returned an error may or may not have reached disk and the caller
// must treat it as not-done. A failed append or sync poisons the journal
// (every later mutation is rejected before it is applied) because the
// in-memory state may then be ahead of the durable prefix — the only
// safe continuation is a restart, which recovers exactly the
// acknowledged prefix.
//
// A checkpoint (checkpoint.go) is a manifest — one CRC-framed record
// naming every relation's segment file and the registered maintained
// statements — plus one segment file per relation with its tuple slab
// and frozen indexes, each published atomically (write temp, sync,
// rename). The WAL is then rotated, not truncated: an older manifest
// plus both epochs still covers the acknowledged prefix if the newest
// manifest is later found damaged.
//
// Recovery is load-newest-valid-manifest + replay-WAL-tail, applied
// before the journal is attached so nothing is logged twice. Records at
// or below the manifest's LSN are skipped, which makes recovery
// idempotent: reopening the same directory any number of times yields
// the same catalog. Replay tolerates a torn final record (truncated
// away, the tail was never acknowledged) and detects mid-log corruption
// by offset; by default it recovers the last consistent prefix, with
// StrictReplay it refuses to open.
package durable

import (
	"encoding/json"
	"fmt"
	"sync"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/wal"
)

// WALName is the write-ahead log file inside the data directory.
// Exported so the crash-recovery fuzz harness can truncate and corrupt
// it by name when simulating crashes.
const WALName = "wal.log"

// WALPrevName is the previous WAL epoch: each checkpoint rotates the
// live log here instead of truncating it, so a checkpoint manifest
// that later fails validation can fall back to the prior manifest plus
// both epochs and still recover the full acknowledged prefix.
const WALPrevName = "wal-prev.log"

// defaultCheckpointEvery bounds WAL replay cost: after this many logged
// records a background checkpoint folds the log into a snapshot.
const defaultCheckpointEvery = 256

// Options configures opening a durable catalog.
type Options struct {
	// FS is the storage to recover from and log to. Nil means a DirFS
	// over the Dir argument of Open.
	FS wal.FS
	// Catalog configures the wrapped in-memory catalog.
	Catalog catalog.Options
	// CheckpointEvery is the number of logged records after which a
	// background checkpoint is taken. 0 means the default (256);
	// negative disables automatic checkpoints (Checkpoint can still be
	// called explicitly).
	CheckpointEvery int
	// StrictReplay refuses to open when the WAL has a mid-log CRC
	// mismatch, instead of recovering the last consistent prefix.
	StrictReplay bool
	// Logf, when non-nil, receives recovery and checkpoint diagnostics.
	Logf func(format string, args ...any)
}

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// CheckpointLSN is the LSN covered by the checkpoint that was
	// loaded; 0 when recovery started from an empty state.
	CheckpointLSN uint64
	// LastLSN is the last applied LSN after recovery.
	LastLSN uint64
	// Replayed is the number of WAL tail records applied on top of the
	// checkpoint.
	Replayed int
	// Relations and Maintained count what the recovered catalog holds.
	Relations  int
	Maintained int
	// TornTail is true when a torn final record was truncated away.
	TornTail bool
	// CorruptOffset is the byte offset of a mid-log CRC mismatch, or -1
	// when the log was clean. Non-negative only with StrictReplay off —
	// the log was truncated to the last consistent prefix.
	CorruptOffset int64
	// SegmentRelations counts relations materialized from segment files
	// (as opposed to replayed from WAL records).
	SegmentRelations int
	// IndexesLoaded counts indexes loaded zero-copy from frozen segment
	// sections; IndexesRebuilt counts manifest-listed index sections
	// that were missing or corrupt and had to be rebuilt from tuples.
	IndexesLoaded  int
	IndexesRebuilt int
	// CheckpointFallback is true when the newest manifest failed
	// validation and recovery used an older one (plus the previous WAL
	// epoch) instead.
	CheckpointFallback bool
}

// Catalog is a catalog.Catalog whose mutations are write-ahead logged.
// Every catalog method, reads and mutations alike, is promoted from the
// embedded catalog unchanged; what this type adds is the journal behind
// them, Checkpoint, and Close. Mutations are serialized by one mutex —
// the WAL is a single append stream — while reads stay concurrent.
type Catalog struct {
	*catalog.Catalog

	fsys wal.FS
	opts Options

	mu        sync.Mutex
	log       *wal.Log
	lastLSN   uint64 // last LSN applied to the catalog and logged
	ckptLSN   uint64 // LSN covered by the newest durable checkpoint
	sinceCkpt int    // records logged since that checkpoint
	broken    error  // sticky: set when an append/sync fails
	closed    bool
	// segs tracks which segment file currently holds each relation and
	// at which version it was frozen — the churn detector that lets a
	// checkpoint skip re-serializing unchanged relations.
	segs map[string]segRef

	info        RecoveryInfo
	checkpoints int64

	ckptCh chan struct{} // kicks the background checkpoint worker
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// walOp is the JSON payload of one WAL record: exactly the arguments
// needed to re-apply the mutation against a recovering catalog. Mode is
// stored as Mode.Name ("preloaded", not Mode.String()'s
// "tetris-preloaded"), and specs by family name, so records survive a
// round-trip through core.ParseMode and index.ParseFamily.
type walOp struct {
	Op     string             `json:"op"`
	Name   string             `json:"name,omitempty"`
	Rel    *relation.Snapshot `json:"rel,omitempty"`
	Specs  []specRecord       `json:"specs,omitempty"`
	Tuples []relation.Tuple   `json:"tuples,omitempty"`
	ID     string             `json:"id,omitempty"`
	Query  string             `json:"query,omitempty"`
	Mode   string             `json:"mode,omitempty"`
	SAO    []string           `json:"sao,omitempty"`
}

// specRecord is an index.Spec in durable form.
type specRecord struct {
	Family string   `json:"family"`
	Order  []string `json:"order,omitempty"`
}

// maintRecord is a maintained-statement registration in durable form.
type maintRecord struct {
	ID    string   `json:"id"`
	Query string   `json:"query"`
	Mode  string   `json:"mode,omitempty"`
	SAO   []string `json:"sao,omitempty"`
}

// Open recovers a durable catalog from dir (or opts.FS when set): load
// the newest valid checkpoint, replay the WAL tail on top, repair a
// torn tail, and resume logging where the last acknowledged record
// ended.
func Open(dir string, opts Options) (*Catalog, error) {
	fsys := opts.FS
	if fsys == nil {
		dfs, err := wal.NewDirFS(dir)
		if err != nil {
			return nil, err
		}
		fsys = dfs
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	ckpt, fellBack, err := loadNewestCheckpoint(fsys, opts.StrictReplay, logf)
	if err != nil {
		return nil, err
	}

	// Replay the previous WAL epoch only when it can matter: with no
	// manifest, or with a fallback manifest, the previous epoch holds
	// acknowledged records past the manifest actually loaded. A clean
	// newest manifest covers everything up to its own rotation point,
	// so wal-prev is skipped entirely.
	var prevRecords []wal.Record
	if ckpt == nil || ckpt.Fallback {
		prev, err := wal.Replay(fsys, WALPrevName)
		if err != nil {
			return nil, fmt.Errorf("durable: replay %s: %w", WALPrevName, err)
		}
		if prev.Corrupt != nil {
			if opts.StrictReplay {
				return nil, fmt.Errorf("durable: %w", prev.Corrupt)
			}
			logf("durable: %s: %v; recovering %d-byte prefix", WALPrevName, prev.Corrupt, prev.Size)
		}
		prevRecords = prev.Records
	}

	rep, err := wal.Replay(fsys, WALName)
	if err != nil {
		return nil, fmt.Errorf("durable: replay %s: %w", WALName, err)
	}
	if rep.Corrupt != nil {
		if opts.StrictReplay {
			return nil, fmt.Errorf("durable: %w", rep.Corrupt)
		}
		logf("durable: %v; recovering %d-byte prefix", rep.Corrupt, rep.Size)
	}

	d := &Catalog{
		Catalog: catalog.NewWithOptions(opts.Catalog),
		fsys:    fsys,
		opts:    opts,
		segs:    map[string]segRef{},
		info:    RecoveryInfo{CorruptOffset: -1},
	}
	if rep.Corrupt != nil {
		d.info.CorruptOffset = rep.Corrupt.Offset
	}
	d.info.TornTail = rep.TornTail

	// Rebuild the checkpointed state first: relations with their loaded
	// indexes registered and the remaining maintained specs ensured,
	// then the maintained statements — before the tail replays, so a
	// statement registered in the checkpoint sees the tail mutations as
	// ordinary deltas, exactly as it would have live. On a fully
	// segment-backed restart every spec arrives via Put, Ensure finds
	// them all present, and the catalog's build counter never moves.
	d.info.CheckpointFallback = fellBack
	if ckpt != nil {
		d.ckptLSN = ckpt.LSN
		d.lastLSN = ckpt.LSN
		d.info.CheckpointLSN = ckpt.LSN
		d.info.IndexesLoaded = ckpt.IndexesLoaded
		d.info.IndexesRebuilt = ckpt.IndexesRebuilt
		for _, lr := range ckpt.Relations {
			_, err := d.Catalog.IngestPrepared(lr.rel, func(set *index.Set) error {
				for _, li := range lr.loaded {
					if err := set.Put(li.spec, li.ix); err != nil {
						return err
					}
				}
				return set.Ensure(append(append([]index.Spec{}, d.opts.Catalog.DefaultSpecs...), lr.specs...)...)
			})
			if err != nil {
				return nil, fmt.Errorf("durable: checkpoint relation %s: %w", lr.rel.Name(), err)
			}
			d.segs[lr.rel.Name()] = segRef{version: lr.rel.Version(), entry: lr.entry}
			d.info.SegmentRelations++
		}
		for _, mr := range ckpt.Maintained {
			if err := d.applyMaintain(mr); err != nil {
				return nil, fmt.Errorf("durable: checkpoint statement %q: %w", mr.ID, err)
			}
		}
	}

	// Replay the tail: previous epoch first (empty unless recovery fell
	// back), then the live log. Records at or below the loaded
	// manifest's LSN are already folded into its segments — they
	// reappear after a crash between manifest publish and rotation —
	// and are skipped, which is what makes repeated recovery
	// idempotent.
	for _, rec := range append(prevRecords, rep.Records...) {
		if rec.LSN <= d.ckptLSN {
			continue
		}
		var op walOp
		if err := json.Unmarshal(rec.Payload, &op); err != nil {
			return nil, fmt.Errorf("durable: record lsn=%d: %w", rec.LSN, err)
		}
		if err := d.applyOp(op); err != nil {
			return nil, fmt.Errorf("durable: record lsn=%d (%s): %w", rec.LSN, op.Op, err)
		}
		d.lastLSN = rec.LSN
		d.info.Replayed++
	}

	// Repair the live log to match what was applied: a torn or corrupt
	// tail is cut so appends resume on a consistent prefix.
	if rep.TornTail || rep.Corrupt != nil {
		if err := fsys.Truncate(WALName, rep.Size); err != nil {
			return nil, fmt.Errorf("durable: repair %s: %w", WALName, err)
		}
	}

	lg, err := wal.OpenLog(fsys, WALName, rep.Size, d.lastLSN)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", WALName, err)
	}
	d.log = lg
	d.sinceCkpt = d.info.Replayed
	d.info.LastLSN = d.lastLSN
	d.info.Relations = len(d.Catalog.Names())
	d.info.Maintained = len(d.MaintainedIDs())
	logf("durable: recovered %d relations, %d statements (checkpoint lsn=%d, %d replayed, %d indexes loaded, %d rebuilt, torn=%v)",
		d.info.Relations, d.info.Maintained, d.info.CheckpointLSN, d.info.Replayed, d.info.IndexesLoaded, d.info.IndexesRebuilt, d.info.TornTail)

	// Everything above was applied unjournaled — it is already on disk.
	// From here on every catalog mutation is logged before it is
	// acknowledged.
	d.SetJournal(journal{d})
	if every := d.checkpointEvery(); every > 0 {
		d.ckptCh = make(chan struct{}, 1)
		d.stopCh = make(chan struct{})
		d.wg.Add(1)
		go d.checkpointLoop()
	}
	return d, nil
}

// checkpointEvery resolves the configured auto-checkpoint interval:
// 0 → default, negative → disabled.
func (d *Catalog) checkpointEvery() int {
	if d.opts.CheckpointEvery == 0 {
		return defaultCheckpointEvery
	}
	return max(d.opts.CheckpointEvery, 0)
}

// Recovery returns what Open found and did.
func (d *Catalog) Recovery() RecoveryInfo { return d.info }

// Err returns the sticky poisoning error, or nil while the durable
// catalog is healthy.
func (d *Catalog) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.broken
}

// usable gates every mutation.
func (d *Catalog) usable() error {
	if d.broken != nil {
		return fmt.Errorf("durable: log poisoned by earlier failure: %w", d.broken)
	}
	if d.closed {
		return fmt.Errorf("durable: catalog closed")
	}
	return nil
}

// logOp encodes and durably appends one mutation record; the fsync
// before return is the acknowledgement point. Any failure poisons the
// catalog: the in-memory state may now be ahead of the durable prefix,
// and only a restart reconciles them.
func (d *Catalog) logOp(op walOp) error {
	payload, err := json.Marshal(op)
	if err != nil {
		d.broken = err
		return fmt.Errorf("durable: encode %s: %w", op.Op, err)
	}
	if _, _, err := d.log.Append(payload); err != nil {
		d.broken = err
		return fmt.Errorf("durable: append %s: %w", op.Op, err)
	}
	if err := d.log.Sync(); err != nil {
		d.broken = err
		return fmt.Errorf("durable: sync %s: %w", op.Op, err)
	}
	d.lastLSN = d.log.LastLSN()
	d.sinceCkpt++
	if every := d.checkpointEvery(); every > 0 && d.sinceCkpt >= every {
		select {
		case d.ckptCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// journal is the catalog.Journal over the write-ahead log.
type journal struct{ d *Catalog }

// Begin takes the mutation mutex for the whole apply → log → sync span:
// the WAL is one append stream, and a checkpoint must see a catalog
// state that corresponds to exactly one LSN.
func (j journal) Begin() error {
	j.d.mu.Lock()
	if err := j.d.usable(); err != nil {
		j.d.mu.Unlock()
		return err
	}
	return nil
}

func (j journal) End() { j.d.mu.Unlock() }

func (j journal) Log(m catalog.Mutation) error {
	op := walOp{Op: m.Op}
	switch m.Op {
	case "ingest":
		snap := m.Rel.Snapshot()
		op.Rel, op.Specs = &snap, specsToRecords(m.Specs)
	case "append", "delete":
		op.Name, op.Tuples = m.Name, m.Tuples
	case "maintain":
		rec := recordOf(m.Statement)
		op.ID, op.Query, op.Mode, op.SAO = rec.ID, rec.Query, rec.Mode, rec.SAO
	}
	return j.d.logOp(op)
}

// recordOf is a registration in durable form.
func recordOf(r catalog.Registration) maintRecord {
	return maintRecord{ID: r.ID, Query: r.Query, Mode: r.Mode.Name(), SAO: r.SAOVars}
}

// applyOp re-applies one WAL record during recovery. These records were
// produced after a successful catalog apply, so failure here means the
// log and the code disagree — a hard error, not something to skip.
func (d *Catalog) applyOp(op walOp) error {
	switch op.Op {
	case "ingest":
		if op.Rel == nil {
			return fmt.Errorf("ingest record without relation")
		}
		rel, err := relation.FromSnapshot(*op.Rel)
		if err != nil {
			return err
		}
		specs, err := specsFromRecords(op.Specs)
		if err != nil {
			return err
		}
		_, err = d.Catalog.Ingest(rel, specs...)
		return err
	case "append":
		_, err := d.Catalog.Append(op.Name, op.Tuples...)
		return err
	case "delete":
		_, err := d.Catalog.Delete(op.Name, op.Tuples...)
		return err
	case "maintain":
		return d.applyMaintain(maintRecord{ID: op.ID, Query: op.Query, Mode: op.Mode, SAO: op.SAO})
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}

// applyMaintain re-materializes a maintained statement from its durable
// record, at whatever catalog state recovery has reached — mid-tail
// registrations then see the remaining tail as live deltas. A record in
// an LB mode, written before maintained statements were held to the plain
// modes, replays in the plain mode with the same initial load: the same
// tuples, and the next checkpoint records the plain mode.
func (d *Catalog) applyMaintain(rec maintRecord) error {
	mode, err := core.ParseMode(rec.Mode)
	if err != nil {
		return err
	}
	_, err = d.MaintainAs(rec.ID, rec.Query, join.Options{Mode: mode.Unlifted(), SAOVars: rec.SAO})
	return err
}

// WALStats reports the durable layer's position.
type WALStats struct {
	LastLSN         uint64
	CheckpointLSN   uint64
	SinceCheckpoint int
	WALSize         int64
	Checkpoints     int64
	Broken          bool
}

// WAL returns the current durable-layer counters.
func (d *Catalog) WAL() WALStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return WALStats{
		LastLSN:         d.lastLSN,
		CheckpointLSN:   d.ckptLSN,
		SinceCheckpoint: d.sinceCkpt,
		WALSize:         d.log.Size(),
		Checkpoints:     d.checkpoints,
		Broken:          d.broken != nil,
	}
}

// checkpointLoop runs auto-checkpoints off the mutation path. The
// worker holds the mutation mutex while snapshotting, so writers stall
// during a fold but never pay its cost inside their own ack latency
// accounting; kicks are coalesced through the 1-buffered channel.
func (d *Catalog) checkpointLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stopCh:
			return
		case <-d.ckptCh:
			if err := d.Checkpoint(); err != nil && d.opts.Logf != nil {
				d.opts.Logf("durable: auto checkpoint: %v", err)
			}
		}
	}
}

// Close stops the checkpoint worker, waits for in-flight index
// compactions, and closes the log. The state on disk remains exactly
// the acknowledged prefix.
func (d *Catalog) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	stop := d.stopCh
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		d.wg.Wait()
	}
	d.Catalog.WaitCompactions()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Close()
}

func specToRecord(s index.Spec) specRecord {
	return specRecord{Family: s.Family.String(), Order: append([]string(nil), s.Order...)}
}

func specFromRecord(r specRecord) (index.Spec, error) {
	fam, err := index.ParseFamily(r.Family)
	if err != nil {
		return index.Spec{}, err
	}
	return index.Spec{Family: fam, Order: append([]string(nil), r.Order...)}, nil
}

func specsToRecords(specs []index.Spec) []specRecord {
	if len(specs) == 0 {
		return nil
	}
	out := make([]specRecord, len(specs))
	for i, s := range specs {
		out[i] = specToRecord(s)
	}
	return out
}

func specsFromRecords(recs []specRecord) ([]index.Spec, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	out := make([]index.Spec, len(recs))
	for i, r := range recs {
		s, err := specFromRecord(r)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
