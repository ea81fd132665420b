package core

import (
	"context"
	"fmt"
	"math/big"

	"tetrisjoin/internal/boxtree"
	"tetrisjoin/internal/dyadic"
)

// CountReport is the outcome of a counting run.
type CountReport struct {
	// Uncovered is the exact number of points not covered by any box.
	Uncovered *big.Int
	// Stats reports the work performed (Splits and CoverHits are the
	// meaningful counters; no resolutions are materialized).
	Stats Stats
}

// CountUncovered returns the exact number of points of the space not
// covered by any of the boxes — without enumerating them. This is the
// counting variant of TetrisSkeleton that Section 4.2.4 alludes to ("it
// is for #SAT"): instead of returning witness boxes, each recursion
// returns the uncovered count of its target, and a target no box meets
// counts its whole volume at once, so a sub-space with 2^50 uncovered
// points costs one probe rather than 2^50 outputs. Counts are exact big
// integers.
//
// The descent splits each target into its two halves and so reaches every
// target once: there is nothing for a cache to hit, and opts.NoCache is
// ignored, as is everything but SAO and Context.
//
// Combined with package sat this is a #SAT counter; as SpaceSize −
// CountUncovered it solves the counting version of Klee's measure problem
// in any dimension.
func CountUncovered(depths []uint8, boxes []dyadic.Box, opts Options) (*CountReport, error) {
	n := len(depths)
	if n == 0 {
		return nil, fmt.Errorf("core: CountUncovered needs at least one dimension")
	}
	for i, d := range depths {
		if d == 0 || d > dyadic.MaxDepth {
			return nil, fmt.Errorf("core: dimension %d has invalid depth %d", i, d)
		}
	}
	sao, err := checkSAO(opts.SAO, n)
	if err != nil {
		return nil, err
	}
	rep := &CountReport{}
	kb := boxtree.New(n)
	for _, b := range boxes {
		if err := b.Check(depths); err != nil {
			return nil, fmt.Errorf("core: invalid box %v: %w", b, err)
		}
		kb.Insert(b)
		rep.Stats.BoxesLoaded++
	}
	c := &counter{
		kb:     kb,
		sao:    sao,
		depths: depths,
		ctx:    opts.Context,
		stats:  &rep.Stats,
	}
	rep.Uncovered = c.count(dyadic.Universe(n))
	if c.ctxErr != nil {
		return nil, c.ctxErr
	}
	rep.Stats.KnowledgeBase = kb.Len()
	return rep, nil
}

type counter struct {
	kb     *boxtree.Tree
	sao    []int
	depths []uint8
	ctx    context.Context // cooperative cancellation; nil = never
	ctxErr error           // sticky: set once cancelled, unwinds the recursion
	stats  *Stats
}

var bigZero = big.NewInt(0)
var bigOne = big.NewInt(1)

// count returns the number of uncovered points inside target box b. On
// cancellation it records the context error and unwinds quickly; the
// caller discards the partial count.
func (c *counter) count(b dyadic.Box) *big.Int {
	if c.ctxErr != nil {
		return bigZero
	}
	c.stats.SkeletonCalls++
	if c.ctx != nil && c.stats.SkeletonCalls&1023 == 0 {
		select {
		case <-c.ctx.Done():
			c.ctxErr = c.ctx.Err()
			return bigZero
		default:
		}
	}
	if _, ok := c.kb.ContainsSuperset(b); ok {
		c.stats.CoverHits++
		return bigZero
	}
	dim := b.FirstThick(c.sao, c.depths)
	if dim == -1 {
		c.stats.Outputs++
		return bigOne
	}
	// Entirely gap-free sub-space: every point is uncovered; return its
	// volume wholesale instead of enumerating it.
	if !c.kb.IntersectsAny(b) {
		v := new(big.Int).Lsh(bigOne, uint(b.LogVolume(c.depths)))
		return v
	}
	c.stats.Splits++
	b1, b2 := b.SplitAt(dim)
	return new(big.Int).Add(c.count(b1), c.count(b2))
}
