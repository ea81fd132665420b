// Package lb is the working space of the load-balanced Tetris variants of
// Section 4.5: the gap boxes are carried through the Balance map
// (internal/balance) into 2n-2 dimensions and Tetris runs there with the
// lifted splitting attribute order (A'_1..A'_{n-2}, A_n, A_{n-1},
// A”_{n-2}..A”_1), which is Algorithm 5 (core.PreloadedLB) and the online
// strategy of Appendix F.6 (core.ReloadedLB, with periodic partition
// rebuilds). New is the core.Options.Space an LB run needs; the serving
// packages never link it.
package lb

import (
	"slices"

	"tetrisjoin/internal/balance"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
)

// space is the Balance lift of one run as a core.Space.
type space struct {
	lift   *balance.Lift
	depths []uint8      // base depths
	online bool         // ReloadedLB: partitions are rebuilt when the loaded boxes double
	built  int          // len(boxes) at the last partition build
	boxes  []dyadic.Box // base gap boxes loaded so far, re-lifted by a rebuild
	// outputs are the reported tuples, which a rebuild must re-cover; kept
	// only when a rebuild can happen.
	outputs [][]uint64
}

// New prepares the lifted space of a run in mode over the base depths.
// PreloadedLB balances the partitions over the oracle's whole gap set,
// which the space keeps; ReloadedLB starts from the trivial partitions and
// no boxes.
func New(mode core.Mode, depths []uint8, gaps []dyadic.Box) (core.Space, error) {
	s := &space{depths: depths, online: mode == core.ReloadedLB, boxes: gaps}
	if err := s.partition(); err != nil {
		return nil, err
	}
	return s, nil
}

// partition balances the partitions over the boxes loaded so far. It
// changes the lifted space: every box of the old one must be discarded.
func (s *space) partition() (err error) {
	s.lift, err = balance.LiftFromBoxes(s.depths, s.boxes)
	s.built = len(s.boxes)
	return err
}

func (s *space) Depths() []uint8 { return s.lift.Depths() }

func (s *space) Decode(b dyadic.Box, point []uint64) {
	copy(point, s.lift.DecodePoint(b.Values(s.lift.Depths())))
}

func (s *space) Image(g dyadic.Box) dyadic.Box { return s.lift.Box(g) }

// Cover is the class Balance(⟨t⟩) of lifted points that decode to t, so
// the unconstrained suffix bits of the lifted space never have to be
// enumerated.
func (s *space) Cover(t []uint64) dyadic.Box {
	if s.online {
		s.outputs = append(s.outputs, slices.Clone(t))
	}
	return s.lift.Point(t)
}

// Load keeps a copy of g to re-lift; a rebuild is due once the gap boxes
// loaded have doubled since the partitions were built (Appendix F.6's
// re-adjustment, O(log |C|) times).
func (s *space) Load(g dyadic.Box) bool {
	s.boxes = append(s.boxes, g.Clone())
	return s.online && len(s.boxes) >= 2*max(1, s.built)
}

// Rebuild re-balances the partitions and refills the knowledge base with
// the images of the loaded gap boxes and the classes of the retained
// outputs: the region a rebuild must keep covered. Learned resolvents are
// boxes of the old space and are not carried over.
func (s *space) Rebuild(add func(dyadic.Box)) error {
	if err := s.partition(); err != nil {
		return err
	}
	for _, b := range s.boxes {
		add(s.lift.Box(b))
	}
	for _, t := range s.outputs {
		add(s.lift.Point(t))
	}
	return nil
}
