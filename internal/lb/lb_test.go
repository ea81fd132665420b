package lb

import (
	"testing"

	"tetrisjoin/internal/core"
)

// TestLiftedRetainsOutputsOnlyForRebuilds: a rebuild re-covers the tuples
// reported so far, so ReloadedLB keeps them even when the caller streams;
// PreloadedLB never rebuilds and must keep none (it used to hold all Z).
func TestLiftedRetainsOutputsOnlyForRebuilds(t *testing.T) {
	o := core.MustBoxOracle([]uint8{2, 2, 2}, nil) // 64 outputs
	for mode, want := range map[core.Mode]int{core.PreloadedLB: 0, core.ReloadedLB: 64} {
		sp, err := New(mode, o.Depths(), o.AllGaps())
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Run(o, core.Options{Mode: mode, Space: New, OnOutput: func(tup []uint64) bool {
			sp.Cover(tup) // what the pass does with an output
			return true
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(sp.(*space).outputs); got != want {
			t.Errorf("%v: the adapter retained %d of 64 streamed outputs, want %d", mode, got, want)
		}
	}
}
