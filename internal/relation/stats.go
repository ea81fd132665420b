package relation

import (
	"hash/fnv"
	"sort"
)

// AttrStats summarizes the value distribution of one attribute of a
// relation snapshot — the per-column half of the planner's cheap
// statistics.
type AttrStats struct {
	// Distinct is the number of distinct values the attribute takes.
	Distinct int
	// MaxFreq is the degree of the attribute's most frequent value: the
	// heavy-hitter signal. For a uniform column MaxFreq ≈ Count/Distinct;
	// a hub value pushes it toward Count.
	MaxFreq int
	// HeavyValue is the value achieving MaxFreq (the smallest such value
	// when tied, so the statistic is deterministic).
	HeavyValue uint64
	// DepthOccupancy[l] is the number of distinct l-bit prefixes among
	// the attribute's values, for l = 0..depth: the dyadic-depth
	// histogram. DepthOccupancy[0] is 1 (or 0 for an empty relation) and
	// DepthOccupancy[depth] equals Distinct. A column whose values
	// cluster in few dyadic cells keeps low occupancy deep into the
	// tree; a spread-out column saturates min(Distinct, 2^l) early.
	DepthOccupancy []int
}

// HeavyFrac returns MaxFreq as a fraction of the snapshot cardinality:
// the share of tuples carried by the attribute's heaviest value.
func (a AttrStats) heavyFrac(count int) float64 {
	if count == 0 {
		return 0
	}
	return float64(a.MaxFreq) / float64(count)
}

// Stats is the per-snapshot statistics summary the planner scores SAO
// candidates with. It is a pure function of the tuple set — computed
// lazily on first use and cached on the relation keyed by Version(), so
// repeated plannings of one snapshot never rescan tuples.
type Stats struct {
	// Version is the snapshot stamp the statistics describe.
	Version uint64
	// Count is the snapshot cardinality (deduplicated).
	Count int
	// Attrs holds per-attribute statistics in schema order.
	Attrs []AttrStats
	// JointOccupancy[l] is the number of distinct tuples after truncating
	// every attribute to its top min(l, depth) bits: the joint
	// dyadic-depth histogram. A diagonal or block-clustered relation has
	// JointOccupancy growing like a single column's occupancy (2^l)
	// while a product-like relation grows like the occupancy product —
	// the clustering signal behind dyadic-index selection.
	JointOccupancy []int
}

// HeavyFrac returns the largest per-attribute heavy-hitter fraction:
// MaxFreq/Count of the most skewed column, 0 for an empty snapshot.
func (s *Stats) HeavyFrac() float64 {
	frac := 0.0
	for _, a := range s.Attrs {
		if f := a.heavyFrac(s.Count); f > frac {
			frac = f
		}
	}
	return frac
}

// ClusterRatio measures how block-clustered the snapshot is at the given
// dyadic level: JointOccupancy[l] divided by what independent columns
// would occupy (the product of per-attribute occupancies, capped at
// Count). 1 means product-like spread; a diagonal of n points at midway
// depth scores around 1/sqrt(n). Returns 1 for trivial snapshots.
func (s *Stats) ClusterRatio(l int) float64 {
	if s.Count <= 1 || l <= 0 {
		return 1
	}
	if l >= len(s.JointOccupancy) {
		l = len(s.JointOccupancy) - 1
	}
	expected := 1.0
	for _, a := range s.Attrs {
		li := l
		if li >= len(a.DepthOccupancy) {
			li = len(a.DepthOccupancy) - 1
		}
		expected *= float64(a.DepthOccupancy[li])
		if expected > float64(s.Count) {
			expected = float64(s.Count)
		}
	}
	if expected <= 0 {
		return 1
	}
	return float64(s.JointOccupancy[l]) / expected
}

// Fingerprint hashes the statistics content. Two snapshots with equal
// fingerprints are statistically indistinguishable to the planner.
func (s *Stats) Fingerprint() uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(s.Count))
	for _, a := range s.Attrs {
		put(uint64(a.Distinct))
		put(uint64(a.MaxFreq))
		put(a.HeavyValue)
	}
	for _, o := range s.JointOccupancy {
		put(uint64(o))
	}
	return h.Sum64()
}

// Stats returns the snapshot's statistics, computing them on first use
// and caching the result keyed by Version(). The computation costs one
// pass per attribute over a sorted column copy plus one pass over the
// (already sorted) tuples — O(N·k·log N) once per snapshot, amortized to
// zero for the catalog's immutable published versions.
func (r *Relation) Stats() *Stats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if r.stats != nil && r.stats.Version == r.version {
		return r.stats
	}
	r.stats = r.computeStats()
	return r.stats
}

func (r *Relation) computeStats() *Stats {
	r.normalize()
	s := &Stats{Version: r.version, Count: len(r.tuples)}
	s.Attrs = make([]AttrStats, len(r.attrs))
	col := make([]uint64, len(r.tuples))
	for ai := range r.attrs {
		d := int(r.depths[ai])
		for ti, t := range r.tuples {
			col[ti] = t[ai]
		}
		sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
		a := &s.Attrs[ai]
		a.DepthOccupancy = make([]int, d+1)
		if len(col) == 0 {
			continue
		}
		// One pass over the sorted column: runs give Distinct and the
		// heavy hitter; the first-differing-bit level of each adjacent
		// distinct pair gives the occupancy histogram (occupancy at level
		// l = 1 + number of boundaries visible at l).
		a.Distinct = 1
		a.MaxFreq = 1
		a.HeavyValue = col[0]
		run := 1
		boundaries := make([]int, d+1) // boundaries[l]: pairs first differing at bit level l (1-based)
		for i := 1; i < len(col); i++ {
			if col[i] == col[i-1] {
				run++
				if run > a.MaxFreq {
					a.MaxFreq = run
					a.HeavyValue = col[i]
				}
				continue
			}
			run = 1
			a.Distinct++
			boundaries[diffLevel(col[i-1], col[i], d)]++
		}
		occ := 1
		a.DepthOccupancy[0] = 1
		for l := 1; l <= d; l++ {
			occ += boundaries[l]
			a.DepthOccupancy[l] = occ
		}
	}
	// Joint occupancy: tuples are sorted lexicographically and prefix
	// truncation is monotone, so tuples sharing a truncation are
	// contiguous — adjacent comparisons count every boundary.
	maxDepth := 0
	for _, d := range r.depths {
		if int(d) > maxDepth {
			maxDepth = int(d)
		}
	}
	s.JointOccupancy = make([]int, maxDepth+1)
	if len(r.tuples) == 0 {
		return s
	}
	boundaries := make([]int, maxDepth+1)
	for i := 1; i < len(r.tuples); i++ {
		lvl := maxDepth + 1
		for ai := range r.attrs {
			x, y := r.tuples[i-1][ai], r.tuples[i][ai]
			if x == y {
				continue
			}
			if l := diffLevel(x, y, int(r.depths[ai])); l < lvl {
				lvl = l
			}
		}
		if lvl <= maxDepth {
			boundaries[lvl]++
		}
	}
	occ := 1
	s.JointOccupancy[0] = 1
	for l := 1; l <= maxDepth; l++ {
		occ += boundaries[l]
		s.JointOccupancy[l] = occ
	}
	return s
}

// diffLevel returns the smallest prefix length l (1..d) at which the
// top-l-bit prefixes of x and y differ. x and y must differ and fit in
// d bits.
func diffLevel(x, y uint64, d int) int {
	xor := x ^ y
	// Highest set bit position (0-based from LSB).
	hi := 0
	for b := xor; b > 1; b >>= 1 {
		hi++
	}
	return d - hi
}
