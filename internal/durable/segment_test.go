package durable

import (
	"fmt"
	"reflect"
	"testing"

	"tetrisjoin/internal/index"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/segment"
	"tetrisjoin/internal/wal"
)

// TestSegmentBackedRestartZeroBuilds is the tentpole regression: a
// clean restart of a checkpointed catalog with maintained statements
// loads every index from segments — zero index builds, zero WAL
// replay — and serves byte-identical results.
func TestSegmentBackedRestartZeroBuilds(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	for i := 1; i <= 3; i++ {
		rel := relation.MustNewUniform(fmt.Sprintf("R%d", i), []string{"X", "Y"}, 6)
		for k := 0; k < 40; k++ {
			rel.MustInsert(uint64((k*7+i)%64), uint64((k*13+3*i)%64))
		}
		specs := []index.Spec{index.BTreeSpec("X", "Y"), index.BTreeSpec("Y", "X"), index.DyadicSpec(), index.KDTreeSpec()}
		if _, err := d.Ingest(rel, specs...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.MaintainAs("path", pathQuery, execOpts); err != nil {
		t.Fatal(err)
	}
	res, err := d.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	walOnly := fs.Clone()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oracle := d.Catalog
	d.Close()

	// The same image before the checkpoint recovers from the WAL alone:
	// re-ingesting three relations rebuilds their four index families each.
	replayed, err := Open("", Options{FS: walOnly, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if builds := replayed.Stats().IndexBuilds; builds != 12 {
		t.Errorf("WAL-only restart performed %d index builds, want 12", builds)
	}
	replayed.Close()

	re, err := Open("", Options{FS: fs.Clone(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	info := re.Recovery()
	if info.SegmentRelations != 3 || info.Replayed != 0 || info.IndexesRebuilt != 0 || info.CheckpointFallback {
		t.Fatalf("recovery info %+v, want 3 segment relations, clean load", info)
	}
	if info.IndexesLoaded < 12 {
		t.Fatalf("loaded %d indexes, want at least the 12 maintained ones", info.IndexesLoaded)
	}
	if builds := re.Stats().IndexBuilds; builds != 0 {
		t.Fatalf("segment-backed restart performed %d index builds, want 0", builds)
	}
	assertSameCatalog(t, "segment restart", re, oracle)
	res2, err := re.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tuples, res2.Tuples) {
		t.Fatal("segment-backed restart serves a different result")
	}
	if builds := re.Stats().IndexBuilds; builds != 0 {
		t.Fatalf("first exec after restart performed %d index builds, want 0", builds)
	}
	m, ok := re.MaintainedByID("path")
	if !ok {
		t.Fatal("maintained statement lost across restart")
	}
	mres, err := m.Execute(execOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tuples, mres.Tuples) {
		t.Fatal("maintained statement serves a different result after restart")
	}
}

// TestIncrementalCheckpointBytes pins the O(churn) property: after a
// 1-relation change in a 10-relation catalog, the next checkpoint
// writes a small fraction of the bytes a full one writes, and the nine
// unchanged relations re-reference their existing segment files.
func TestIncrementalCheckpointBytes(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	defer d.Close()
	for i := 0; i < 10; i++ {
		rel := relation.MustNewUniform(fmt.Sprintf("T%d", i), []string{"X", "Y"}, 8)
		for k := 0; k < 300; k++ {
			rel.MustInsert(uint64((k*11+i)%256), uint64((k*29+7*i)%256))
		}
		if _, err := d.Ingest(rel, index.BTreeSpec("X", "Y"), index.DyadicSpec()); err != nil {
			t.Fatal(err)
		}
	}
	before := fs.BytesWritten()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fullBytes := fs.BytesWritten() - before
	firstLSN := d.WAL().CheckpointLSN

	if _, err := d.Append("T4", relation.Tuple{250, 251}); err != nil {
		t.Fatal(err)
	}
	before = fs.BytesWritten()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	incrBytes := fs.BytesWritten() - before

	if incrBytes*5 > fullBytes {
		t.Fatalf("incremental checkpoint wrote %d bytes, full wrote %d — not O(churn)", incrBytes, fullBytes)
	}

	man1, err := readManifest(fs, firstLSN)
	if err != nil {
		t.Fatal(err)
	}
	man2, err := readManifest(fs, d.WAL().CheckpointLSN)
	if err != nil {
		t.Fatal(err)
	}
	files1 := map[string]string{}
	for _, cr := range man1.Relations {
		files1[cr.Name] = cr.File
	}
	reused := 0
	for _, cr := range man2.Relations {
		if cr.Name == "T4" {
			if files1[cr.Name] == cr.File {
				t.Fatal("changed relation T4 did not get a fresh segment")
			}
			continue
		}
		if files1[cr.Name] != cr.File {
			t.Fatalf("unchanged relation %s was re-frozen (%s -> %s)", cr.Name, files1[cr.Name], cr.File)
		}
		reused++
	}
	if reused != 9 {
		t.Fatalf("reused %d segment files, want 9", reused)
	}
}

// TestSegmentGCPinning is the retention regression: GC must never
// remove a segment file that any retained manifest still references —
// including files shared between the two retained manifests — while
// unreferenced files (older generations, crash leftovers) are removed.
func TestSegmentGCPinning(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	defer d.Close()
	seedPath(t, d, 30, 6, 9)
	if err := d.Checkpoint(); err != nil { // C1: freezes R1..R3
		t.Fatal(err)
	}
	lsn1 := d.WAL().CheckpointLSN

	// Simulate a crash between manifest write and old-segment deletion:
	// an orphaned segment file no manifest references.
	orphan := segName(lsn1-1, 0)
	f, err := fs.OpenAppend(orphan)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("leftover"))
	f.Sync()
	f.Close()

	if _, err := d.Append("R1", relation.Tuple{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // C2: refreezes R1, reuses R2/R3
		t.Fatal(err)
	}

	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, n := range names {
		onDisk[n] = true
	}
	if onDisk[orphan] {
		t.Fatal("unreferenced orphan segment survived GC")
	}
	// Both manifests retained; every file either references is present.
	for _, lsn := range []uint64{lsn1, d.WAL().CheckpointLSN} {
		man, err := readManifest(fs, lsn)
		if err != nil {
			t.Fatalf("retained manifest %d unreadable: %v", lsn, err)
		}
		for _, cr := range man.Relations {
			if !onDisk[cr.File] {
				t.Fatalf("segment %s referenced by retained manifest %d was deleted", cr.File, lsn)
			}
		}
	}

	// Two more checkpoints push C1 out of retention; its then-
	// unreferenced segments must go, and recovery must stay clean.
	for i := 0; i < 2; i++ {
		if _, err := d.Append("R2", relation.Tuple{uint64(10 + i), 1}); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readManifest(fs, lsn1); err == nil {
		t.Fatal("manifest beyond keep-2 not pruned")
	}
	re, err := Open("", Options{FS: fs.Clone(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()

	names, _ = fs.List()
	segCount := 0
	for _, n := range names {
		if isSegName(n) {
			segCount++
		}
	}
	// Retained: C3 {R1,R2,R3} and C4 {R2'} sharing R1,R3 files → 4
	// distinct segment files at most (R1, R3, R2@C3, R2@C4).
	if segCount > 4 {
		t.Fatalf("%d segment files on disk after GC, want <= 4", segCount)
	}
}

// corruptSection flips one byte inside the given section of a segment
// file, returning the section extent it hit.
func corruptSection(t *testing.T, fs *wal.MemFS, file string, section int) {
	t.Helper()
	data, err := fs.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Load(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	off, ln := seg.Extent(section)
	if err := fs.FlipByte(file, off+ln/2); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptIndexSectionRebuilds: a damaged frozen index falls back
// to rebuild-from-tuples — same state, no manifest fallback, catalog
// still opens and serves.
func TestCorruptIndexSectionRebuilds(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	seedPath(t, d, 30, 6, 21)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := d.Catalog
	man, err := readManifest(fs, d.WAL().CheckpointLSN)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	cr := man.Relations[0]
	if len(cr.Indexes) == 0 {
		t.Fatal("no frozen index sections to corrupt")
	}
	img := fs.Clone()
	corruptSection(t, img, cr.File, cr.Indexes[0].Section)

	re, err := Open("", Options{FS: img, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	info := re.Recovery()
	if info.IndexesRebuilt < 1 || info.CheckpointFallback {
		t.Fatalf("recovery info %+v, want >=1 index rebuilt without manifest fallback", info)
	}
	if builds := re.Stats().IndexBuilds; builds < 1 {
		t.Fatalf("rebuilt index did not charge the build counter (%d)", builds)
	}
	assertSameCatalog(t, "corrupt index section", re, oracle)
	res2, err := re.Execute(pathQuery, execOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tuples, res2.Tuples) {
		t.Fatal("rebuild-after-corruption serves a different result")
	}
}

// TestCorruptTupleSectionFallsBack: damaged tuple data invalidates the
// manifest; recovery falls back to the previous manifest plus both WAL
// epochs and still recovers the exact acknowledged state.
func TestCorruptTupleSectionFallsBack(t *testing.T) {
	fs := wal.NewMemFS()
	d := openMem(t, fs)
	seedPath(t, d, 30, 6, 33)
	if err := d.Checkpoint(); err != nil { // C1
		t.Fatal(err)
	}
	if _, err := d.Append("R1", relation.Tuple{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // C2: refreezes R1
		t.Fatal(err)
	}
	if _, err := d.Append("R2", relation.Tuple{7, 8}); err != nil {
		t.Fatal(err)
	}
	lsn2 := d.WAL().CheckpointLSN
	man, err := readManifest(fs, lsn2)
	if err != nil {
		t.Fatal(err)
	}
	oracle := d.Catalog
	d.Close()

	var target ckptRelation
	for _, cr := range man.Relations {
		if cr.Name == "R1" {
			target = cr
		}
	}
	for _, mutate := range []func(img *wal.MemFS){
		func(img *wal.MemFS) { corruptSection(t, img, target.File, target.TuplesSection) },
		func(img *wal.MemFS) {
			if err := img.Remove(target.File); err != nil {
				t.Fatal(err)
			}
		},
		func(img *wal.MemFS) {
			if err := img.FlipByte(ckptName(lsn2), 20); err != nil {
				t.Fatal(err)
			}
		},
	} {
		img := fs.Clone()
		mutate(img)
		re, err := Open("", Options{FS: img, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		info := re.Recovery()
		if !info.CheckpointFallback {
			t.Fatalf("recovery info %+v, want manifest fallback", info)
		}
		if info.Replayed == 0 {
			t.Fatalf("fallback recovery replayed nothing: %+v", info)
		}
		assertSameCatalog(t, "manifest fallback", re, oracle)
		re.Close()

		// Strict mode must refuse the damaged newest manifest instead.
		if _, err := Open("", Options{FS: img.Clone(), CheckpointEvery: -1, StrictReplay: true}); err == nil {
			t.Fatal("strict open accepted a damaged newest checkpoint")
		}
	}
}
