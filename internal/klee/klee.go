// Package klee solves Klee's measure problem over the Boolean semiring
// via Tetris (Corollaries F.8 and F.12 of the paper): given a set of
// boxes, decide whether their union covers the whole space — in time
// Õ(|B|^{n/2}) through the load-balanced Tetris variant. An exact
// measure-by-coordinate-compression routine is included as a
// cross-check for small inputs.
package klee

import (
	"fmt"
	"math/big"
	"sort"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/lb"
)

// Report is the outcome of a Boolean Klee query.
type Report struct {
	// Covered is true when the union of the boxes is the whole space.
	Covered bool
	// Uncovered, when not Covered, is a point outside the union.
	Uncovered []uint64
	// Stats reports the Tetris work performed.
	Stats core.Stats
}

// CoversSpace decides the Boolean Klee's measure problem with
// Tetris-Preloaded-LB (Algorithm 3): Õ(|B|^{n/2}) resolutions.
func CoversSpace(depths []uint8, boxes []dyadic.Box) (*Report, error) {
	o, err := core.NewBoxOracle(depths, boxes)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(o, core.Options{Mode: core.PreloadedLB, Space: lb.New, MaxOutput: 1})
	if err != nil {
		return nil, err
	}
	rep := &Report{Covered: res.Stats.Outputs == 0, Stats: res.Stats}
	if !rep.Covered {
		rep.Uncovered = res.Tuples[0]
	}
	return rep, nil
}

// Measure computes the exact number of points covered by the union of
// the boxes via coordinate compression — O((2m)^n) cells — for
// cross-checking. Limited to n ≤ 4 dimensions and 64 boxes.
func Measure(depths []uint8, boxes []dyadic.Box) (uint64, error) {
	n := len(depths)
	if n == 0 || n > 4 {
		return 0, fmt.Errorf("klee: Measure supports 1..4 dimensions, got %d", n)
	}
	if len(boxes) > 64 {
		return 0, fmt.Errorf("klee: Measure limited to 64 boxes, got %d", len(boxes))
	}
	for _, b := range boxes {
		if err := b.Check(depths); err != nil {
			return 0, err
		}
	}
	// Coordinate compression per dimension: cell boundaries at box edges.
	cuts := make([][]uint64, n)
	for i := 0; i < n; i++ {
		set := map[uint64]bool{0: true}
		for _, b := range boxes {
			set[b[i].Lo(depths[i])] = true
			if hi := b[i].Hi(depths[i]); hi+1 < 1<<depths[i] {
				set[hi+1] = true
			}
		}
		for v := range set {
			cuts[i] = append(cuts[i], v)
		}
		sort.Slice(cuts[i], func(a, b int) bool { return cuts[i][a] < cuts[i][b] })
	}
	cellWidth := func(dim, idx int) uint64 {
		lo := cuts[dim][idx]
		var hi uint64
		if idx+1 < len(cuts[dim]) {
			hi = cuts[dim][idx+1]
		} else {
			hi = 1 << depths[dim]
		}
		return hi - lo
	}
	var total uint64
	idx := make([]int, n)
	var rec func(dim int, width uint64)
	rec = func(dim int, width uint64) {
		if dim == n {
			// Cell representative point: the cut corner.
			pt := make([]uint64, n)
			for i, j := range idx {
				pt[i] = cuts[i][j]
			}
			for _, b := range boxes {
				if b.ContainsPoint(pt, depths) {
					total += width
					return
				}
			}
			return
		}
		for j := range cuts[dim] {
			idx[dim] = j
			rec(dim+1, width*cellWidth(dim, j))
		}
	}
	rec(0, 1)
	return total, nil
}

// SpaceSize returns the total number of points of the space (panics above
// 63 total bits).
func SpaceSize(depths []uint8) uint64 {
	total := 0
	for _, d := range depths {
		total += int(d)
	}
	if total > 63 {
		panic("klee: space size overflow")
	}
	return 1 << uint(total)
}

// MeasureExact computes the exact measure of the union of the boxes —
// Klee's measure problem over the counting semiring — in any dimension
// and at any depth, via the counting variant of Tetris:
// measure = |space| − #uncovered points. Unlike Measure it has no
// dimension or box-count limits and returns an exact big integer.
func MeasureExact(depths []uint8, boxes []dyadic.Box) (*big.Int, error) {
	rep, err := core.CountUncovered(depths, boxes, core.Options{})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, d := range depths {
		total += int(d)
	}
	space := new(big.Int).Lsh(big.NewInt(1), uint(total))
	return space.Sub(space, rep.Uncovered), nil
}
