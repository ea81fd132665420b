package core

import (
	"slices"

	"tetrisjoin/internal/balance"
	"tetrisjoin/internal/dyadic"
)

// lifted is the space the pass works in under the load-balanced variants
// of Section 4.5: the gap boxes are carried through the Balance map into
// 2n-2 dimensions and Tetris runs there with the lifted splitting
// attribute order (A'_1..A'_{n-2}, A_n, A_{n-1}, A”_{n-2}..A”_1), which is
// Algorithm 5 (PreloadedLB) and the online strategy of Appendix F.6
// (ReloadedLB, with periodic partition rebuilds). It is an adapter, not a
// driver: runPlain settles an uncovered unit box through it, and the
// oracle, the gap-box checks and the reported tuples stay in base space.
// A nil *lifted is the identity — the pass works in the oracle's own space.
type lifted struct {
	lift   *balance.Lift
	depths []uint8      // base depths
	online bool         // ReloadedLB: partitions are rebuilt when the loaded boxes double
	built  int          // len(boxes) at the last partition build
	boxes  []dyadic.Box // base gap boxes loaded so far, re-lifted by a rebuild
	// outputs are the reported tuples, which a rebuild must re-cover; kept
	// only when a rebuild can happen.
	outputs [][]uint64
}

// newLifted prepares the lifted space of a run. PreloadedLB balances the
// partitions over the oracle's whole gap set, loaded here (validated, and
// counted like every Preloaded load); ReloadedLB starts from the trivial
// partitions and no boxes.
func newLifted(o Oracle, mode Mode, stats *Stats) (*lifted, error) {
	l := &lifted{depths: o.Depths(), online: mode == ReloadedLB}
	if !l.online {
		loaded := getTree(len(l.depths))
		fresh, err := loadGapSet(o, nil, loaded, func(b dyadic.Box) { l.boxes = append(l.boxes, b) })
		putTree(loaded)
		if err != nil {
			return nil, err
		}
		stats.BoxesLoaded += fresh
	}
	return l, l.partition()
}

// partition balances the partitions over the boxes loaded so far. It
// changes the lifted space: every box of the old one must be discarded.
func (l *lifted) partition() (err error) {
	l.lift, err = balance.LiftFromBoxes(l.depths, l.boxes)
	l.built = len(l.boxes)
	return err
}

// fill loads an empty knowledge base of the current lifted space with the
// images of the loaded gap boxes and the classes of the retained outputs:
// the region a rebuild must keep covered. Learned resolvents are boxes of
// the old space and are not carried over.
func (l *lifted) fill(sk *skeleton) {
	for _, b := range l.boxes {
		sk.add(l.lift.Box(b))
	}
	for _, t := range l.outputs {
		sk.add(l.lift.Point(t))
	}
}

// due reports whether the gap boxes loaded have doubled since the
// partitions were built (Appendix F.6's re-adjustment, O(log |C|) times).
func (l *lifted) due() bool {
	return l != nil && l.online && len(l.boxes) >= 2*max(1, l.built)
}

// point writes into point the base tuple of the uncovered unit box b of
// the working space (depths are the working space's).
func (l *lifted) point(b dyadic.Box, point []uint64, depths []uint8) {
	if l == nil {
		b.ValuesInto(point, depths)
		return
	}
	copy(point, l.lift.DecodePoint(b.Values(depths)))
}

// image is the working-space box of a gap box the oracle returned.
func (l *lifted) image(g dyadic.Box) dyadic.Box {
	if l == nil {
		return g
	}
	return l.lift.Box(g)
}

// cover is the box that settles the output tuple t found at the unit box
// b: b itself, or in the lifted space the whole class Balance(⟨t⟩) of
// lifted points that decode to t, so the unconstrained suffix bits of the
// lifted space never have to be enumerated.
func (l *lifted) cover(b dyadic.Box, t []uint64) dyadic.Box {
	if l == nil {
		return b
	}
	if l.online {
		l.outputs = append(l.outputs, slices.Clone(t))
	}
	return l.lift.Point(t)
}
