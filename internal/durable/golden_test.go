package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
	"tetrisjoin/internal/wal"
)

// goldenDiskHash is the SHA-256 TestGoldenOnDiskBytes computed at commit
// f4fa9ac (PR 11), before durability moved behind the catalog's journal
// seam. A data directory is an interface between versions of this
// program: a change that moves this hash changes what an older or newer
// tetrisd finds on disk, and must say so (and say how old directories
// are still read) rather than just update the constant.
const goldenDiskHash = "51a25c6a42bb521e412863a387efb01bdc533c6ffddac6496569a72496527c0d"

// TestGoldenOnDiskBytes drives a fixed script through every kind of
// journaled mutation, a checkpoint, a restart and a second checkpoint,
// and hashes every file (name, length, bytes; names sorted) at three
// stages — the raw log before it is rotated away, the first checkpoint,
// and the state a recovered process leaves — so WAL records, manifests
// and segments are all pinned byte for byte.
func TestGoldenOnDiskBytes(t *testing.T) {
	fs := wal.NewMemFS()
	h := sha256.New()
	fold := func(stage string) {
		t.Helper()
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		fmt.Fprintf(h, "== %s\n", stage)
		for _, name := range names {
			data, err := fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", name, len(data))
			h.Write(data)
			t.Logf("%s: %s %d bytes", stage, name, len(data))
		}
	}
	must := func(_ uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	d := openMem(t, fs)
	seedPath(t, d, 40, 6, 1) // three ingests with explicit specs
	must(d.Append("R2", relation.Tuple{1, 2}, relation.Tuple{3, 4}))
	must(d.Delete("R1", relation.Tuple{3, 4}))
	if _, err := d.MaintainAs("path", pathQuery, execOpts); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MaintainAs("ordered", pathQuery, join.Options{SAOVars: []string{"D", "C", "B", "A"}}); err != nil {
		t.Fatal(err)
	}
	fold("logged")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	must(d.Append("R3", relation.Tuple{5, 6}))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	fold("checkpointed")

	d = openMem(t, fs)
	must(d.Append("R1", relation.Tuple{7, 8}))
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	must(d.Delete("R3", relation.Tuple{5, 6}))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	fold("recovered")

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDiskHash {
		t.Fatalf("on-disk bytes changed: hash %s, want %s (run with -v for the per-file sizes)", got, goldenDiskHash)
	}
}
