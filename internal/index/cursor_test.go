package index

import (
	"math/rand"
	"sync"
	"testing"

	"tetrisjoin/internal/relation"
)

// TestCursorsShareImmutableIndex exercises the concurrency contract: one
// index, many goroutines, one cursor each, probing the whole domain at
// once. Run with -race; results are checked against a single-threaded
// reference cursor.
func TestCursorsShareImmutableIndex(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	rel := relation.MustNewUniform("R", []string{"A", "B"}, 4)
	for i := 0; i < 40; i++ {
		rel.MustInsert(uint64(r.Intn(16)), uint64(r.Intn(16)))
	}
	indices := []Index{
		MustSorted(rel, "A", "B"),
		MustSorted(rel, "B", "A"),
		NewDyadic(rel),
		NewKDTree(rel),
	}
	u, err := NewUnion(indices...)
	if err != nil {
		t.Fatal(err)
	}
	indices = append(indices, u)

	for _, ix := range indices {
		// Reference answers from a private cursor, keyed by probe point. An
		// answer is a list, not a set: a union repeats a box its members
		// share, and a probe must come out the same whoever makes it.
		ref := ix.NewCursor()
		type probe struct{ a, b uint64 }
		want := map[probe][]string{}
		for a := uint64(0); a < 16; a++ {
			for b := uint64(0); b < 16; b++ {
				var list []string
				for _, g := range ref.GapsAt([]uint64{a, b}) {
					list = append(list, g.String())
				}
				want[probe{a, b}] = list
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cur := ix.NewCursor()
				pt := make([]uint64, 2)
				// Each worker sweeps the domain in a different order so
				// cursors are at different probe points simultaneously.
				for i := 0; i < 256; i++ {
					j := (i*7 + w*37) % 256
					pt[0], pt[1] = uint64(j/16), uint64(j%16)
					got := cur.GapsAt(pt)
					wantList := want[probe{pt[0], pt[1]}]
					if len(got) != len(wantList) {
						t.Errorf("%s: worker %d probe %v: %d boxes, want %d", ix.Kind(), w, pt, len(got), len(wantList))
						return
					}
					for i, g := range got {
						if g.String() != wantList[i] {
							t.Errorf("%s: worker %d probe %v: box %d is %v, want %s", ix.Kind(), w, pt, i, g, wantList[i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestAllGapsConcurrent: AllGaps only reads the index and allocates fresh
// storage, so concurrent calls must agree. Run with -race.
func TestAllGapsConcurrent(t *testing.T) {
	rel := relation.MustNewUniform("R", []string{"A", "B"}, 3)
	for _, v := range []uint64{1, 3, 5, 7} {
		rel.MustInsert(3, v)
		rel.MustInsert(v, 3)
	}
	for _, ix := range []Index{MustSorted(rel), NewDyadic(rel), NewKDTree(rel)} {
		wantLen := len(ix.AllGaps())
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := len(ix.AllGaps()); got != wantLen {
					t.Errorf("%s: concurrent AllGaps returned %d boxes, want %d", ix.Kind(), got, wantLen)
				}
			}()
		}
		wg.Wait()
	}
}
