// Package workload generates the problem instances behind every
// experiment in DESIGN.md / EXPERIMENTS.md: the paper's figure fixtures
// (Figures 1, 4, 5, 6, 10), the AGM-hard triangle families, small- and
// GAO-sensitive-certificate instances (Appendix B), Example F.1's
// lower-bound family for ordered resolution, and a cache-reuse family
// separating Tree Ordered from Ordered resolution (Theorem 5.2's
// mechanism).
package workload

import (
	"fmt"
	"math/rand"

	"tetrisjoin/internal/dyadic"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/relation"
)

// BCP is a raw box cover problem instance.
type BCP struct {
	Name   string
	Depths []uint8
	Boxes  []dyadic.Box
}

func uniformDepths(n int, d uint8) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// Example44 is the two-dimensional instance of Example 4.4 / Figure 10.
func Example44() BCP {
	return BCP{
		Name:   "example-4.4",
		Depths: uniformDepths(2, 2),
		Boxes: []dyadic.Box{
			dyadic.MustParseBox("λ,0"),
			dyadic.MustParseBox("00,λ"),
			dyadic.MustParseBox("λ,11"),
			dyadic.MustParseBox("10,1"),
		},
	}
}

// TriangleMSBBoxes is the six-gap-box triangle instance of Figure 5 with
// empty output, at depth d per attribute.
func TriangleMSBBoxes(d uint8) BCP {
	return BCP{
		Name:   "figure-5",
		Depths: uniformDepths(3, d),
		Boxes: []dyadic.Box{
			dyadic.MustParseBox("0,0,λ"), dyadic.MustParseBox("1,1,λ"),
			dyadic.MustParseBox("λ,0,0"), dyadic.MustParseBox("λ,1,1"),
			dyadic.MustParseBox("0,λ,0"), dyadic.MustParseBox("1,λ,1"),
		},
	}
}

// ExampleF1 is the three-attribute instance of Example F.1: ordered
// geometric resolution needs Ω(|C|²) resolutions on it under every SAO,
// while the Balance-lifted algorithm needs only Õ(|C|^{3/2})
// (Theorems 5.4 and 4.11). |C| = 6·2^{d-2}.
func ExampleF1(d uint8) BCP {
	if d < 3 {
		panic("workload: ExampleF1 needs depth >= 3")
	}
	var boxes []dyadic.Box
	lam := dyadic.Lambda
	zero := dyadic.Interval{Bits: 0, Len: 1}
	one := dyadic.Interval{Bits: 1, Len: 1}
	sub := d - 2
	for x := uint64(0); x < 1<<sub; x++ {
		// C1: ⟨0x, λ, 0⟩ and ⟨0, y, 1⟩.
		boxes = append(boxes,
			dyadic.Box{dyadic.Interval{Bits: x, Len: d - 1}, lam, zero},
			dyadic.Box{zero, dyadic.Interval{Bits: x, Len: sub}, one})
		// C2: ⟨10x, 0, λ⟩ and ⟨10, 1, z⟩.
		boxes = append(boxes,
			dyadic.Box{dyadic.Interval{Bits: 1<<(d-1) | x, Len: d}, zero, lam},
			dyadic.Box{dyadic.Interval{Bits: 2, Len: 2}, one, dyadic.Interval{Bits: x, Len: sub}})
		// C3: ⟨110, y, λ⟩ and ⟨111, λ, z⟩.
		boxes = append(boxes,
			dyadic.Box{dyadic.Interval{Bits: 6, Len: 3}, dyadic.Interval{Bits: x, Len: sub}, lam},
			dyadic.Box{dyadic.Interval{Bits: 7, Len: 3}, lam, dyadic.Interval{Bits: x, Len: sub}})
	}
	return BCP{Name: fmt.Sprintf("example-F.1(d=%d)", d), Depths: uniformDepths(3, d), Boxes: boxes}
}

// RandomDyadicPartition generates a set of exactly m disjoint dyadic
// boxes whose union is the whole n-dimensional space: starting from the
// universe, a random box is repeatedly split along a random thick
// dimension. Partitions are covering instances for the Boolean box cover
// problem (Klee's measure, Corollary F.8) whose proof genuinely requires
// merging all m boxes back together.
func RandomDyadicPartition(n, m int, d uint8, seed int64) BCP {
	if m < 1 {
		panic("workload: partition needs at least one box")
	}
	r := rand.New(rand.NewSource(seed))
	depths := uniformDepths(n, d)
	boxes := []dyadic.Box{dyadic.Universe(n)}
	for len(boxes) < m {
		i := r.Intn(len(boxes))
		b := boxes[i]
		var thick []int
		for dim := range b {
			if b[dim].Len < d {
				thick = append(thick, dim)
			}
		}
		if len(thick) == 0 {
			// b is a unit box; try another (give up if all are units).
			allUnit := true
			for _, x := range boxes {
				if !x.IsUnit(depths) {
					allUnit = false
					break
				}
			}
			if allUnit {
				break
			}
			continue
		}
		b0, b1 := b.SplitAt(thick[r.Intn(len(thick))])
		boxes[i] = b0
		boxes = append(boxes, b1)
	}
	return BCP{Name: fmt.Sprintf("partition(n=%d,m=%d,d=%d)", n, m, d), Depths: depths, Boxes: boxes}
}

// RandomBoxes generates m random boxes in n dimensions at depth d.
func RandomBoxes(n, m int, d uint8, seed int64) BCP {
	r := rand.New(rand.NewSource(seed))
	boxes := make([]dyadic.Box, m)
	for i := range boxes {
		b := make(dyadic.Box, n)
		for j := range b {
			l := uint8(r.Intn(int(d) + 1))
			var v uint64
			if l > 0 {
				v = r.Uint64() & (1<<l - 1)
			}
			b[j] = dyadic.Interval{Bits: v, Len: l}
		}
		boxes[i] = b
	}
	return BCP{Name: fmt.Sprintf("random(n=%d,m=%d,d=%d)", n, m, d), Depths: uniformDepths(n, d), Boxes: boxes}
}

// msbRelation builds the Figure 5 relation over two attributes at depth
// d: tuples whose most significant bits differ.
func msbRelation(name string, attrs []string, d uint8) *relation.Relation {
	r := relation.MustNewUniform(name, attrs, d)
	half := uint64(1) << (d - 1)
	for a := uint64(0); a < half; a++ {
		for b := uint64(0); b < half; b++ {
			r.MustInsert(a, half+b)
			r.MustInsert(half+a, b)
		}
	}
	return r
}

// TriangleMSB is the triangle query over the Figure 5 relations (empty
// output). N = 3·2^{2(d-1)}... each relation has 2·4^{d-1} tuples.
func TriangleMSB(d uint8) *join.Query {
	return join.MustNewQuery(
		join.Atom{Relation: msbRelation("R", []string{"X", "Y"}, d), Vars: []string{"A", "B"}},
		join.Atom{Relation: msbRelation("S", []string{"X", "Y"}, d), Vars: []string{"B", "C"}},
		join.Atom{Relation: msbRelation("T", []string{"X", "Y"}, d), Vars: []string{"A", "C"}},
	)
}

// TriangleAGMStar is the classic AGM-hard triangle instance
// R=S=T = {0}×[m] ∪ [m]×{0}: every pairwise join has Θ(m²) tuples while
// the output has 3m-2; worst-case optimal algorithms run in Õ(m).
func TriangleAGMStar(m uint64, d uint8) *join.Query {
	if m >= 1<<d {
		panic("workload: m exceeds domain")
	}
	mk := func(name string) *relation.Relation {
		r := relation.MustNewUniform(name, []string{"X", "Y"}, d)
		for i := uint64(0); i < m; i++ {
			r.MustInsert(0, i)
			r.MustInsert(i, 0)
		}
		return r
	}
	return join.MustNewQuery(
		join.Atom{Relation: mk("R"), Vars: []string{"A", "B"}},
		join.Atom{Relation: mk("S"), Vars: []string{"B", "C"}},
		join.Atom{Relation: mk("T"), Vars: []string{"A", "C"}},
	)
}

// TriangleDense is the AGM-tight dense instance R=S=T=[m]×[m]: the output
// is m³ = N^{3/2} tuples, meeting the AGM bound exactly.
func TriangleDense(m uint64, d uint8) *join.Query {
	if m >= 1<<d {
		panic("workload: m exceeds domain")
	}
	mk := func(name string) *relation.Relation {
		r := relation.MustNewUniform(name, []string{"X", "Y"}, d)
		for i := uint64(0); i < m; i++ {
			for j := uint64(0); j < m; j++ {
				r.MustInsert(i, j)
			}
		}
		return r
	}
	return join.MustNewQuery(
		join.Atom{Relation: mk("R"), Vars: []string{"A", "B"}},
		join.Atom{Relation: mk("S"), Vars: []string{"B", "C"}},
		join.Atom{Relation: mk("T"), Vars: []string{"A", "C"}},
	)
}

// PathQuery is a length-k chain R_1(A_1,A_2) ⋈ … ⋈ R_k(A_k,A_{k+1}) over
// random relations with n tuples each (α-acyclic, treewidth 1).
func PathQuery(k, n int, d uint8, seed int64) *join.Query {
	r := rand.New(rand.NewSource(seed))
	atoms := make([]join.Atom, k)
	for i := 0; i < k; i++ {
		rel := relation.MustNewUniform(fmt.Sprintf("R%d", i+1), []string{"X", "Y"}, d)
		for t := 0; t < n; t++ {
			rel.MustInsert(uint64(r.Intn(1<<d)), uint64(r.Intn(1<<d)))
		}
		atoms[i] = join.Atom{Relation: rel, Vars: []string{
			fmt.Sprintf("A%d", i+1), fmt.Sprintf("A%d", i+2)}}
	}
	return join.MustNewQuery(atoms...)
}

// StarQuery is R_1(A,B_1) ⋈ … ⋈ R_k(A,B_k) over random relations
// (α-acyclic).
func StarQuery(k, n int, d uint8, seed int64) *join.Query {
	r := rand.New(rand.NewSource(seed))
	atoms := make([]join.Atom, k)
	for i := 0; i < k; i++ {
		rel := relation.MustNewUniform(fmt.Sprintf("R%d", i+1), []string{"X", "Y"}, d)
		for t := 0; t < n; t++ {
			rel.MustInsert(uint64(r.Intn(1<<d)), uint64(r.Intn(1<<d)))
		}
		atoms[i] = join.Atom{Relation: rel, Vars: []string{"A", fmt.Sprintf("B%d", i+1)}}
	}
	return join.MustNewQuery(atoms...)
}

// BowtieBlock is the constant-certificate instance behind Table 1's
// treewidth-1 row: R(A) ⋈ S(A,B) ⋈ T(B) with S = [0,h)×[0,h) a full
// dyadic block (h = 2^{d-1}) and R = [h,2h). The output is empty and a
// two-box certificate exists (⟨0,λ⟩ from R, ⟨1,λ⟩ from S) regardless of
// N = h². S carries a dyadic-tree index: under a (B,A)-sorted B-tree the
// smallest certificate would be Ω(h) instead (the index-dependence of
// certificates, Appendix B.2).
func BowtieBlock(d uint8) *join.Query {
	h := uint64(1) << (d - 1)
	r := relation.MustNewUniform("R", []string{"X"}, d)
	for v := h; v < 2*h; v++ {
		r.MustInsert(v)
	}
	s := relation.MustNewUniform("S", []string{"X", "Y"}, d)
	for a := uint64(0); a < h; a++ {
		for b := uint64(0); b < h; b++ {
			s.MustInsert(a, b)
		}
	}
	t := relation.MustNewUniform("T", []string{"Y"}, d)
	for v := uint64(0); v < h; v++ {
		t.MustInsert(v)
	}
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A"}},
		join.Atom{Relation: s, Vars: []string{"A", "B"},
			Indexes: []index.Index{index.NewDyadic(s)}},
		join.Atom{Relation: t, Vars: []string{"B"}},
	)
}

// GAOSensitive is the Appendix B (Figure 13) style instance whose box
// certificate is Õ(1) under the (B,A) attribute order but Ω(N) under
// (A,B): R(A) = [0,m), S(A,B) = the single row B = 2^{d-1}, and T(B)
// missing exactly that row's value.
func GAOSensitive(m uint64, d uint8) *join.Query {
	if m >= 1<<d {
		panic("workload: m exceeds domain")
	}
	c := uint64(1) << (d - 1)
	r := relation.MustNewUniform("R", []string{"X"}, d)
	for v := uint64(0); v < m; v++ {
		r.MustInsert(v)
	}
	s := relation.MustNewUniform("S", []string{"X", "Y"}, d)
	for a := uint64(0); a < 1<<d; a++ {
		s.MustInsert(a, c)
	}
	t := relation.MustNewUniform("T", []string{"Y"}, d)
	for v := uint64(0); v < 1<<d; v++ {
		if v != c {
			t.MustInsert(v)
		}
	}
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A"}},
		join.Atom{Relation: s, Vars: []string{"A", "B"}},
		join.Atom{Relation: t, Vars: []string{"B"}},
	)
}

// TreeOrderedHard separates Tree Ordered from Ordered geometric
// resolution (the mechanism of Theorem 5.2; the paper's own construction
// is in its truncated Appendix G, so this family is ours — documented in
// EXPERIMENTS.md). Query R(A,B) ⋈ S(B,C) ⋈ T(C), treewidth 1, with
// m a power of two and all domains of depth log2(2m):
//
//	R = [0,m) × evens[0,2m)
//	S = evens × odds  ∪  odds × [0,2m)
//	T = evens
//
// The output is empty. Proving "the C-line under an even b is covered"
// takes Θ(m) resolutions using only A-wildcard boxes, so with caching it
// is paid once per b (Θ(m²) total ≈ N); without caching it is re-derived
// under every a ∈ [0,m), giving Θ(m³) ≈ N^{3/2} = N^{n/2}.
func TreeOrderedHard(m uint64) *join.Query {
	if m == 0 || m&(m-1) != 0 {
		panic("workload: m must be a power of two")
	}
	d := uint8(1)
	for v := uint64(2); v < 2*m; v <<= 1 {
		d++
	}
	r := relation.MustNewUniform("R", []string{"X", "Y"}, d)
	for a := uint64(0); a < m; a++ {
		for b := uint64(0); b < 2*m; b += 2 {
			r.MustInsert(a, b)
		}
	}
	s := relation.MustNewUniform("S", []string{"X", "Y"}, d)
	for b := uint64(0); b < 2*m; b++ {
		if b%2 == 0 {
			for c := uint64(1); c < 2*m; c += 2 {
				s.MustInsert(b, c)
			}
		} else {
			for c := uint64(0); c < 2*m; c++ {
				s.MustInsert(b, c)
			}
		}
	}
	t := relation.MustNewUniform("T", []string{"X"}, d)
	for c := uint64(0); c < 2*m; c += 2 {
		t.MustInsert(c)
	}
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A", "B"}},
		join.Atom{Relation: s, Vars: []string{"B", "C"}},
		join.Atom{Relation: t, Vars: []string{"C"}},
	)
}

// FourCycleBlocks is a treewidth-2 four-cycle query with an O(1)
// certificate at every size: R,S,T over the full lower-half block and U
// over the upper-half block, so the output is empty and two half-space
// boxes certify it. N = 4·4^{d-1} grows with d while |C| stays constant.
func FourCycleBlocks(d uint8) *join.Query {
	h := uint64(1) << (d - 1)
	block := func(name string, lo uint64) *relation.Relation {
		r := relation.MustNewUniform(name, []string{"X", "Y"}, d)
		for a := lo; a < lo+h; a++ {
			for b := lo; b < lo+h; b++ {
				r.MustInsert(a, b)
			}
		}
		return r
	}
	return join.MustNewQuery(
		join.Atom{Relation: block("R", 0), Vars: []string{"A", "B"}},
		join.Atom{Relation: block("S", 0), Vars: []string{"B", "C"}},
		join.Atom{Relation: block("T", 0), Vars: []string{"C", "D"}},
		join.Atom{Relation: block("U", h), Vars: []string{"D", "A"}},
	)
}

// DiagonalBowtie is an Example B.7/B.8 (Figure 14) style instance: the
// bowtie R(A) ⋈ S(A,B) ⋈ T(B) with S the full diagonal {(v,v)},
// R = [c, 2^d) the upper half and T = [0, c) the lower half
// (c = 2^{d-1}), so the output is empty. The region R×T — the lower-right
// quadrant — contains no diagonal point, and only S's gap boxes can
// cover it: B-tree indices on S, in either attribute order, can offer
// only thin per-value strips there (Ω(N) of them), while the dyadic
// index covers the whole quadrant with a single box — the kind of
// inferred multidimensional gap that Example B.8 shows B-trees cannot
// return. The returned query carries no explicit indices: attach them
// per experiment arm.
func DiagonalBowtie(d uint8) *join.Query {
	size := uint64(1) << d
	c := size / 2
	r := relation.MustNewUniform("R", []string{"X"}, d)
	for v := c; v < size; v++ {
		r.MustInsert(v)
	}
	s := relation.MustNewUniform("S", []string{"X", "Y"}, d)
	for v := uint64(0); v < size; v++ {
		s.MustInsert(v, v)
	}
	t := relation.MustNewUniform("T", []string{"Y"}, d)
	for v := uint64(0); v < c; v++ {
		t.MustInsert(v)
	}
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A"}},
		join.Atom{Relation: s, Vars: []string{"A", "B"}},
		join.Atom{Relation: t, Vars: []string{"B"}},
	)
}

// RandomIncidenceQuery generates a query with arbitrary atom/variable
// incidence structure — the shapes outside the named families above:
// natoms atoms, each of random arity in [1, maxArity] over a pool of
// nvars variables (distinct within an atom), over independent random
// relations with up to n tuples each at depth d. Fuzzing and coverage
// tests use it to exercise hypergraphs no hand-picked family has.
func RandomIncidenceQuery(nvars, natoms, maxArity, n int, d uint8, seed int64) *join.Query {
	if nvars < 1 || natoms < 1 || maxArity < 1 {
		panic("workload: incidence query needs at least one variable, atom and column")
	}
	r := rand.New(rand.NewSource(seed))
	atoms := make([]join.Atom, natoms)
	for i := range atoms {
		arity := 1 + r.Intn(min(maxArity, nvars))
		attrs := make([]string, arity)
		vars := make([]string, arity)
		for j, p := range r.Perm(nvars)[:arity] {
			attrs[j] = fmt.Sprintf("X%d", j+1)
			vars[j] = fmt.Sprintf("A%d", p+1)
		}
		rel := relation.MustNewUniform(fmt.Sprintf("R%d", i+1), attrs, d)
		for t := r.Intn(n + 1); t > 0; t-- {
			vals := make([]uint64, arity)
			for j := range vals {
				vals[j] = uint64(r.Intn(1 << d))
			}
			rel.MustInsert(vals...)
		}
		atoms[i] = join.Atom{Relation: rel, Vars: vars}
	}
	return join.MustNewQuery(atoms...)
}

// CliqueQuery builds the k-clique query over a single random graph with
// edge probability p: one binary atom per vertex pair, all referring to
// the same edge relation (a self-join), as in subgraph-listing workloads.
func CliqueQuery(k int, numVertices uint64, p float64, d uint8, seed int64) *join.Query {
	if numVertices > 1<<d {
		panic("workload: graph larger than domain")
	}
	r := rand.New(rand.NewSource(seed))
	edges := relation.MustNewUniform("E", []string{"X", "Y"}, d)
	for u := uint64(0); u < numVertices; u++ {
		for v := uint64(0); v < numVertices; v++ {
			if u != v && r.Float64() < p {
				// Symmetric edges so the clique query is meaningful.
				edges.MustInsert(u, v)
				edges.MustInsert(v, u)
			}
		}
	}
	var atoms []join.Atom
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			atoms = append(atoms, join.Atom{
				Relation: edges,
				Vars:     []string{fmt.Sprintf("V%d", i+1), fmt.Sprintf("V%d", j+1)},
			})
		}
	}
	return join.MustNewQuery(atoms...)
}

// SkewedTriangle is a triangle whose data skew makes the splitting
// order decisive: R(A,B) is the diagonal, S(B,C) pins B to the single
// heavy value 0 across all of C, and T(A,C) is the diagonal again.
//
//	R = {(i,i) : i ∈ [0,m)}   S = {0}×[0,m)   T = {(i,i) : i ∈ [0,m)}
//
// Output: {(0,0,0)}. Splitting B first, S certifies the whole B≠0
// region in O(d) boxes and R collapses the B=0 slice to A=0, so Tetris
// finishes in Õ(1) resolutions; under the natural order (A,B,C) the
// B-contradiction is rediscovered once per A value — Ω(m). The planner
// sees distinct_B(S) = 1 in the statistics and puts B first.
func SkewedTriangle(m uint64, d uint8) *join.Query {
	if m > 1<<d {
		panic("workload: m exceeds domain")
	}
	r := relation.MustNewUniform("R", []string{"X", "Y"}, d)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, d)
	t := relation.MustNewUniform("T", []string{"X", "Y"}, d)
	for i := uint64(0); i < m; i++ {
		r.MustInsert(i, i)
		s.MustInsert(0, i)
		t.MustInsert(i, i)
	}
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A", "B"}},
		join.Atom{Relation: s, Vars: []string{"B", "C"}},
		join.Atom{Relation: t, Vars: []string{"A", "C"}},
	)
}

// SkewedFourCycle is a 4-cycle with mismatched heavy values on the last
// variable: R(A,B) and S(B,C) are diagonals, T(C,D) pins D to 0, and
// U(D,A) pins D to 1 — so the output is empty and the proof is a single
// D-contradiction.
//
//	R = S = {(i,i)}   T = [0,m)×{0}   U = {1}×[0,m)
//
// Splitting D first exposes the contradiction in O(d) resolutions;
// natural order (A,B,C,D) walks the diagonals first — Ω(m). The
// planner's heavy/light split on the hub value collapses the D-first
// estimates (the light slices of T and U are empty).
func SkewedFourCycle(m uint64, d uint8) *join.Query {
	if m > 1<<d {
		panic("workload: m exceeds domain")
	}
	r := relation.MustNewUniform("R", []string{"X", "Y"}, d)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, d)
	t := relation.MustNewUniform("T", []string{"X", "Y"}, d)
	u := relation.MustNewUniform("U", []string{"X", "Y"}, d)
	for i := uint64(0); i < m; i++ {
		r.MustInsert(i, i)
		s.MustInsert(i, i)
		t.MustInsert(i, 0)
		u.MustInsert(1, i)
	}
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A", "B"}},
		join.Atom{Relation: s, Vars: []string{"B", "C"}},
		join.Atom{Relation: t, Vars: []string{"C", "D"}},
		join.Atom{Relation: u, Vars: []string{"D", "A"}},
	)
}

// HeavyValueMismatch is the minimal heavy-value instance: two atoms
// sharing B, each pinning it to a different single value.
//
//	R(A,B) = [0,m)×{1}   S(C,B) = [0,m)×{0}
//
// The output is empty. With B split first, both relations certify their
// B-complements in O(d) order-consistent gap boxes and the contradiction
// is immediate; under the natural order (A,B,C) the B-tree on R is
// A-major, so the B≠1 gap is rediscovered per A value — Ω(m·d). This is
// Appendix B.2's index-dependence of certificates driven purely by skew
// statistics (distinct_B = 1 in both relations).
func HeavyValueMismatch(m uint64, d uint8) *join.Query {
	if m > 1<<d {
		panic("workload: m exceeds domain")
	}
	r := relation.MustNewUniform("R", []string{"X", "Y"}, d)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, d)
	for i := uint64(0); i < m; i++ {
		r.MustInsert(i, 1)
		s.MustInsert(i, 0)
	}
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A", "B"}},
		join.Atom{Relation: s, Vars: []string{"C", "B"}},
	)
}

// zipfRelation fills a relation with n tuples whose attribute values are
// independently Zipf-distributed over [0, 2^d): value v has probability
// ∝ 1/(v+1)^skew, so 0 is the heavy value of every attribute.
func zipfRelation(name string, arity int, n int, d uint8, skew float64, rng *rand.Rand) *relation.Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("X%d", i+1)
	}
	rel := relation.MustNewUniform(name, attrs, d)
	z := rand.NewZipf(rng, skew, 1, 1<<d-1)
	vals := make([]uint64, arity)
	for t := 0; t < n; t++ {
		for j := range vals {
			vals[j] = z.Uint64()
		}
		rel.MustInsert(vals...)
	}
	return rel
}

// ZipfTriangle is a triangle over three independently sampled relations
// with Zipf(skew)-distributed values — every attribute has 0 as its
// heavy value, with degree concentration growing with skew. The heavy
// intersections make both the output and the work distribution skewed;
// this is the randomized counterpart of the deterministic Skewed*
// families, used by the fuzz and benchmark sweeps.
func ZipfTriangle(n int, d uint8, skew float64, seed int64) *join.Query {
	rng := rand.New(rand.NewSource(seed))
	r := zipfRelation("R", 2, n, d, skew, rng)
	s := zipfRelation("S", 2, n, d, skew, rng)
	t := zipfRelation("T", 2, n, d, skew, rng)
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A", "B"}},
		join.Atom{Relation: s, Vars: []string{"B", "C"}},
		join.Atom{Relation: t, Vars: []string{"A", "C"}},
	)
}

// ZipfStar is the star R_1(H,B_1) ⋈ … ⋈ R_k(H,B_k) with Zipf(skew)
// values: the shared hub variable H concentrates on the heavy value 0,
// so the star's output is dominated by the hub's heavy intersection.
func ZipfStar(k, n int, d uint8, skew float64, seed int64) *join.Query {
	rng := rand.New(rand.NewSource(seed))
	atoms := make([]join.Atom, k)
	for i := range atoms {
		rel := zipfRelation(fmt.Sprintf("R%d", i+1), 2, n, d, skew, rng)
		atoms[i] = join.Atom{Relation: rel, Vars: []string{"H", fmt.Sprintf("B%d", i+1)}}
	}
	return join.MustNewQuery(atoms...)
}

// ZipfFourCycle is the 4-cycle R(A,B) ⋈ S(B,C) ⋈ T(C,D) ⋈ U(D,A) over
// independently sampled Zipf(skew) relations — the randomized
// counterpart of SkewedFourCycle. Every attribute concentrates on the
// heavy value 0, so the work (and output) mass sits in the small-value
// corner of the space: the regime where static SAO-prefix shards are
// maximally imbalanced and dynamic splitting pays off.
func ZipfFourCycle(n int, d uint8, skew float64, seed int64) *join.Query {
	rng := rand.New(rand.NewSource(seed))
	r := zipfRelation("R", 2, n, d, skew, rng)
	s := zipfRelation("S", 2, n, d, skew, rng)
	t := zipfRelation("T", 2, n, d, skew, rng)
	u := zipfRelation("U", 2, n, d, skew, rng)
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A", "B"}},
		join.Atom{Relation: s, Vars: []string{"B", "C"}},
		join.Atom{Relation: t, Vars: []string{"C", "D"}},
		join.Atom{Relation: u, Vars: []string{"D", "A"}},
	)
}

// PinnedChain is the chain R(A,B) ⋈ S(B,C) ⋈ T(C) built so the cost
// model's skew-aware estimates stay O(m) for every order while the
// actual resolution count is order-sensitive by a factor of ~d:
//
//	R(A,B) = [0,m)×{1}   S(B,C) = {(i,i)}   T(C) = [0,m) \ {1}
//
// R pins B to 1, S then forces C = 1, and T excludes it: the output is
// empty. Splitting B (or C) first proves the contradiction in O(d)
// resolutions from order-consistent wildcard gap boxes; splitting last
// rediscovers S's diagonal gaps value by value — Ω(m·d) — which at
// large depth d overshoots the estimate by more than any constant
// factor. It is the one regime where the cost model cannot rank the
// orders, so the planner's structural tie-break alone decides: the
// planner panel and TestPlannerBeatsNaturalOnSkew pin what it picks.
func PinnedChain(m uint64, d uint8) *join.Query {
	if m > 1<<d {
		panic("workload: m exceeds domain")
	}
	r := relation.MustNewUniform("R", []string{"X", "Y"}, d)
	s := relation.MustNewUniform("S", []string{"X", "Y"}, d)
	t := relation.MustNewUniform("T", []string{"X"}, d)
	for i := uint64(0); i < m; i++ {
		r.MustInsert(i, 1)
		s.MustInsert(i, i)
		if i != 1 {
			t.MustInsert(i)
		}
	}
	return join.MustNewQuery(
		join.Atom{Relation: r, Vars: []string{"A", "B"}},
		join.Atom{Relation: s, Vars: []string{"B", "C"}},
		join.Atom{Relation: t, Vars: []string{"C"}},
	)
}
