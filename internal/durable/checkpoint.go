// Incremental checkpoints over mmap-able segments.
//
// A checkpoint is a manifest (one CRC-framed record per file, named
// checkpoint-<lsn>.ckpt like before) plus one segment file per
// relation. The segment holds the relation's tuple slab and the frozen
// form of every maintained index (internal/segment container); the
// manifest records, per relation, which file holds it and which
// section is which. Only relations whose Version() moved since the
// previous checkpoint are re-frozen — unchanged relations re-reference
// their existing segment file — so checkpoint cost is proportional to
// churn, not to catalog size. Publishes stay atomic (stage, sync,
// rename); segment garbage collection runs strictly after manifest
// retention and never removes a file any retained manifest still
// references.
package durable

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tetrisjoin/internal/index"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/segment"
	"tetrisjoin/internal/wal"
)

// ckptTmpName is the scratch file a manifest is staged in before the
// atomic rename; a leftover one (crash mid-write) is removed at open.
const ckptTmpName = "checkpoint.tmp"

// segTmpName is the scratch file a segment is staged in. One at a
// time: segments are written sequentially under the mutation mutex.
const segTmpName = "segment.tmp"

// keepCheckpoints is how many published checkpoints are retained; the
// older ones are insurance against a latest-checkpoint file that fails
// validation at recovery. Every segment file a retained manifest
// references is retained with it.
const keepCheckpoints = 2

// Segment section kinds.
const (
	segKindTuples = 1
	segKindIndex  = 2
)

// checkpoint is one manifest: the catalog state as of LSN, described
// by reference into segment files.
type checkpoint struct {
	LSN        uint64         `json:"-"`
	Relations  []ckptRelation `json:"relations"`
	Maintained []maintRecord  `json:"maintained,omitempty"`
}

// ckptRelation locates one relation inside a segment file: its schema,
// the tuple-slab section, the maintained spec list (always complete —
// recovery must rebuild these even when no index section loads), and
// the frozen index sections actually present.
type ckptRelation struct {
	Name          string       `json:"name"`
	Attrs         []string     `json:"attrs"`
	Depths        []uint8      `json:"depths"`
	File          string       `json:"file"`
	TuplesSection int          `json:"tuples_section"`
	Specs         []specRecord `json:"specs,omitempty"`
	Indexes       []ckptIndex  `json:"indexes,omitempty"`
}

// ckptIndex names one frozen index section.
type ckptIndex struct {
	Spec    specRecord `json:"spec"`
	Section int        `json:"section"`
}

// segRef is the in-memory churn tracker: which segment file currently
// holds a relation, frozen at which version. Seeded from the loaded
// manifest at recovery so unchanged relations keep reusing their
// segment files across restarts.
type segRef struct {
	version uint64
	entry   ckptRelation
}

// ckptName formats the published manifest name; the LSN rides in the
// name so recovery can order candidates without opening them.
func ckptName(lsn uint64) string {
	return fmt.Sprintf("checkpoint-%016x.ckpt", lsn)
}

// parseCkptName extracts the LSN from a manifest file name.
func parseCkptName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "checkpoint-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".ckpt")
	if !ok {
		return 0, false
	}
	lsn, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// segName formats a segment file name: the checkpoint LSN that wrote
// it plus a per-checkpoint sequence number.
func segName(lsn uint64, seq int) string {
	return fmt.Sprintf("seg-%016x-%d.seg", lsn, seq)
}

// isSegName reports whether a directory entry is a published segment.
func isSegName(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")
}

// Checkpoint folds the current catalog state into a manifest plus
// segment files and rotates the WAL. Mutations are blocked for the
// duration; the automatic path runs this from a background worker so
// the fold never rides inside a caller's acknowledgement. Only
// relations that changed since the previous checkpoint are serialized;
// the rest are referenced from their existing segments. No-op when
// nothing was logged since the last checkpoint.
func (d *Catalog) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return err
	}
	if d.sinceCkpt == 0 || d.lastLSN == 0 {
		return nil
	}

	ck := checkpoint{LSN: d.lastLSN}
	names := d.Catalog.Names()
	sort.Strings(names)
	live := map[string]bool{}
	seq := 0
	for _, name := range names {
		rel, ok := d.Catalog.Relation(name)
		if !ok {
			continue
		}
		live[name] = true
		if ref, ok := d.segs[name]; ok && ref.version == rel.Version() {
			ck.Relations = append(ck.Relations, ref.entry)
			continue
		}
		entry, err := d.freezeRelation(name, rel, ck.LSN, seq)
		if err != nil {
			return err
		}
		seq++
		d.segs[name] = segRef{version: rel.Version(), entry: entry}
		ck.Relations = append(ck.Relations, entry)
	}
	for name := range d.segs {
		if !live[name] {
			delete(d.segs, name)
		}
	}
	for _, id := range d.MaintainedIDs() {
		m, _ := d.MaintainedByID(id)
		ck.Maintained = append(ck.Maintained, recordOf(m.Registration()))
	}

	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("durable: encode checkpoint: %w", err)
	}
	if err := d.stageAndPublish(ckptTmpName, ckptName(ck.LSN), wal.EncodeRecord(ck.LSN, payload)); err != nil {
		return err
	}

	d.ckptLSN = ck.LSN
	d.sinceCkpt = 0
	d.checkpoints++

	// The WAL records below the manifest's LSN are now redundant: rotate
	// the log so the previous epoch stays available as the fallback for
	// a manifest that later fails validation (wal-prev plus wal covers
	// everything past the previous checkpoint). A rotation failure
	// poisons the catalog — the log handle's state is unknown.
	if err := d.rotateWAL(); err != nil {
		d.broken = err
		return fmt.Errorf("durable: rotate wal after checkpoint: %w", err)
	}
	d.pruneCheckpoints()
	return nil
}

// freezeRelation serializes one relation — tuple slab plus every
// maintained index in its frozen flat form — into a fresh segment
// file, returning the manifest entry that locates it. Delta-layered
// indexes have no flat form; they are folded by building a fresh flat
// index at the current snapshot (the fold a checkpoint performs
// anyway), without charging the catalog's build counter.
func (d *Catalog) freezeRelation(name string, rel *relation.Relation, lsn uint64, seq int) (ckptRelation, error) {
	var w segment.Writer
	entry := ckptRelation{
		Name:   name,
		Attrs:  rel.Attrs(),
		Depths: rel.Depths(),
		File:   segName(lsn, seq),
	}
	entry.TuplesSection = w.AddSection(segKindTuples, rel.AppendWords(nil))

	specs := d.Catalog.Specs(name)
	sort.Slice(specs, func(i, j int) bool { return specs[i].Key() < specs[j].Key() })
	entry.Specs = specsToRecords(specs)
	if set := d.Catalog.IndexSet(name); set != nil {
		for _, spec := range specs {
			ix, _, err := set.Get(spec)
			if err != nil {
				return entry, fmt.Errorf("durable: freeze %s %s: %w", name, spec.Key(), err)
			}
			words, ok := index.FreezeIndex(ix)
			if !ok {
				flat, err := spec.Build(rel)
				if err != nil {
					return entry, fmt.Errorf("durable: fold %s %s: %w", name, spec.Key(), err)
				}
				if words, ok = index.FreezeIndex(flat); !ok {
					continue // unfreezable family: recovery rebuilds it
				}
			}
			sec := w.AddSection(segKindIndex, words)
			entry.Indexes = append(entry.Indexes, ckptIndex{Spec: specToRecord(spec), Section: sec})
		}
	}
	if err := d.stageAndPublish(segTmpName, entry.File, w.Encode()); err != nil {
		return entry, err
	}
	return entry, nil
}

// stageAndPublish writes data to a scratch file, syncs it, and renames
// it into place — the file named final either exists complete or not
// at all.
func (d *Catalog) stageAndPublish(tmp, final string, data []byte) error {
	_ = d.fsys.Remove(tmp)
	f, err := d.fsys.OpenAppend(tmp)
	if err != nil {
		return fmt.Errorf("durable: stage %s: %w", final, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: stage %s: %w", final, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: sync %s: %w", final, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", final, err)
	}
	if err := d.fsys.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: publish %s: %w", final, err)
	}
	return nil
}

// rotateWAL closes the live log, renames it to the previous-epoch
// name, and starts a fresh one. The LSN counter continues — recovery
// filters on LSN, never on which file a record sits in.
func (d *Catalog) rotateWAL() error {
	if err := d.log.Close(); err != nil {
		return err
	}
	if err := d.fsys.Rename(WALName, WALPrevName); err != nil {
		return err
	}
	lg, err := wal.OpenLog(d.fsys, WALName, 0, d.lastLSN)
	if err != nil {
		return err
	}
	d.log = lg
	return nil
}

// pruneCheckpoints removes manifests beyond the newest keepCheckpoints
// and then garbage-collects segment files no retained manifest
// references. Removal order matters: manifests go first, so a crash
// anywhere in here leaves at worst unreferenced segment files (cleaned
// next time), never a retained manifest pointing at a deleted segment.
// If any retained manifest cannot be re-read, GC is skipped outright —
// better stale files than deleting a segment we failed to account for.
func (d *Catalog) pruneCheckpoints() {
	names, err := d.fsys.List()
	if err != nil {
		return
	}
	var lsns []uint64
	for _, name := range names {
		if lsn, ok := parseCkptName(name); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	retained := lsns
	if len(lsns) > keepCheckpoints {
		retained = lsns[:keepCheckpoints]
		for _, lsn := range lsns[keepCheckpoints:] {
			_ = d.fsys.Remove(ckptName(lsn))
		}
	}

	referenced := map[string]bool{}
	for _, lsn := range retained {
		man, err := readManifest(d.fsys, lsn)
		if err != nil {
			return // conservative: cannot prove a segment unreferenced
		}
		for _, cr := range man.Relations {
			referenced[cr.File] = true
		}
	}
	for _, name := range names {
		if isSegName(name) && !referenced[name] {
			_ = d.fsys.Remove(name)
		}
	}
}

// readManifest reads and parses one published manifest: exactly one
// CRC-clean record whose LSN matches the file name.
func readManifest(fsys wal.FS, lsn uint64) (*checkpoint, error) {
	name := ckptName(lsn)
	rep, err := wal.Replay(fsys, name)
	if err != nil {
		return nil, fmt.Errorf("durable: read checkpoint %s: %w", name, err)
	}
	if rep.Corrupt != nil || rep.TornTail || len(rep.Records) != 1 || rep.Records[0].LSN != lsn {
		return nil, fmt.Errorf("durable: checkpoint %s damaged (records=%d torn=%v corrupt=%v)",
			name, len(rep.Records), rep.TornTail, rep.Corrupt)
	}
	var ck checkpoint
	if err := json.Unmarshal(rep.Records[0].Payload, &ck); err != nil {
		return nil, fmt.Errorf("durable: checkpoint %s: %w", name, err)
	}
	ck.LSN = lsn
	return &ck, nil
}

// loadedCheckpoint is the result of validating and materializing the
// newest usable checkpoint at recovery.
type loadedCheckpoint struct {
	LSN        uint64
	Relations  []loadedRelation
	Maintained []maintRecord
	// Fallback is true when the newest manifest candidate failed
	// validation and an older one was used — recovery must then replay
	// the previous WAL epoch too, because the newest rotation point is
	// not covered by the manifest actually loaded.
	Fallback bool
	// IndexesLoaded/IndexesRebuilt count frozen index sections that
	// loaded zero-copy vs. ones recovery had to rebuild.
	IndexesLoaded  int
	IndexesRebuilt int
}

// loadedRelation is one relation materialized from its segment: the
// relation itself, the maintained specs to ensure, the subset of
// indexes that loaded from their frozen sections, and the manifest
// entry (for seeding the churn tracker).
type loadedRelation struct {
	rel    *relation.Relation
	specs  []index.Spec
	loaded []loadedIndex
	entry  ckptRelation
}

type loadedIndex struct {
	spec index.Spec
	ix   index.Index
}

// loadNewestCheckpoint scans for published manifests, newest first,
// and returns the first whose every relation materializes from its
// segment file. A manifest whose tuple data is unreachable (missing or
// corrupt segment, bad slab) is an invalid candidate: strict mode
// refuses, lenient mode falls back to the next older manifest (or
// empty state) and says loudly what it skipped. A frozen index section
// that fails to load does NOT invalidate the candidate — the index is
// rebuilt from the (validated) tuples instead, counted in
// IndexesRebuilt. Leftover staging files are removed.
func loadNewestCheckpoint(fsys wal.FS, strict bool, logf func(string, ...any)) (*loadedCheckpoint, bool, error) {
	names, err := fsys.List()
	if err != nil {
		return nil, false, fmt.Errorf("durable: list checkpoints: %w", err)
	}
	var lsns []uint64
	for _, name := range names {
		if name == ckptTmpName || name == segTmpName {
			_ = fsys.Remove(name)
			continue
		}
		if lsn, ok := parseCkptName(name); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })

	fallback := false
	for _, lsn := range lsns {
		lc, reason := materializeCheckpoint(fsys, lsn)
		if reason != "" {
			if strict {
				return nil, false, fmt.Errorf("durable: checkpoint %s invalid (%s)", ckptName(lsn), reason)
			}
			logf("durable: checkpoint %s invalid (%s); falling back", ckptName(lsn), reason)
			fallback = true
			continue
		}
		lc.Fallback = fallback
		return lc, fallback, nil
	}
	// fallback true here means every manifest failed: recovery proceeds
	// from empty state plus both WAL epochs, and the caller must still
	// surface the fallback in RecoveryInfo.
	return nil, fallback, nil
}

// materializeCheckpoint loads one manifest candidate and every
// relation it references. Returns a non-empty reason string when the
// candidate is unusable.
func materializeCheckpoint(fsys wal.FS, lsn uint64) (*loadedCheckpoint, string) {
	ck, err := readManifest(fsys, lsn)
	if err != nil {
		return nil, err.Error()
	}
	lc := &loadedCheckpoint{LSN: lsn, Maintained: ck.Maintained}
	for _, cr := range ck.Relations {
		lr, err := materializeRelation(fsys, cr, lc)
		if err != nil {
			return nil, fmt.Sprintf("relation %s: %v", cr.Name, err)
		}
		lc.Relations = append(lc.Relations, lr)
	}
	return lc, ""
}

// materializeRelation loads one relation (and whatever frozen indexes
// load cleanly) from its segment file. Tuple-slab failures are errors;
// index-section failures only mean that index gets rebuilt.
func materializeRelation(fsys wal.FS, cr ckptRelation, lc *loadedCheckpoint) (loadedRelation, error) {
	lr := loadedRelation{entry: cr}
	data, err := fsys.ReadFile(cr.File)
	if err != nil {
		return lr, err
	}
	seg, err := segment.Load(data)
	if err != nil {
		return lr, err
	}
	if cr.TuplesSection < 0 || cr.TuplesSection >= seg.Sections() || seg.Kind(cr.TuplesSection) != segKindTuples {
		return lr, fmt.Errorf("tuple section %d missing", cr.TuplesSection)
	}
	if err := seg.Verify(cr.TuplesSection); err != nil {
		return lr, err
	}
	rel, err := relation.FromWords(cr.Name, cr.Attrs, cr.Depths, seg.Words(cr.TuplesSection))
	if err != nil {
		return lr, err
	}
	lr.rel = rel
	lr.specs, err = specsFromRecords(cr.Specs)
	if err != nil {
		return lr, err
	}
	for _, ci := range cr.Indexes {
		spec, err := specFromRecord(ci.Spec)
		if err != nil {
			return lr, err
		}
		if ci.Section < 0 || ci.Section >= seg.Sections() || seg.Kind(ci.Section) != segKindIndex || seg.Verify(ci.Section) != nil {
			lc.IndexesRebuilt++
			continue
		}
		ix, err := index.LoadIndex(rel, spec, seg.Words(ci.Section))
		if err != nil {
			lc.IndexesRebuilt++
			continue
		}
		lr.loaded = append(lr.loaded, loadedIndex{spec: spec, ix: ix})
		lc.IndexesLoaded++
	}
	return lr, nil
}
