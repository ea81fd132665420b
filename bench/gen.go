package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// The generators, the reference join and the checksum below are the
// benchmark's own: nothing here imports internal/workload or
// internal/baseline, so a later change to those packages cannot shift
// the load or the expected answers.

// admissionSlots is the daemon's -max-concurrent in every run.
const admissionSlots = 2

// rng is splitmix64: tiny, seedable, and independent of the toolchain's
// math/rand, so a seed names the same inputs on every Go version.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// relDef is one generated binary relation.
type relDef struct {
	name   string
	depth  uint8
	tuples [][2]uint64 // distinct
}

var relAttrs = []string{"x", "y"}

// loadLine renders the protocol request that loads the relation.
func (r *relDef) loadLine() []byte {
	rows := make([][]uint64, len(r.tuples))
	for i, t := range r.tuples {
		rows[i] = []uint64{t[0], t[1]}
	}
	b, err := json.Marshal(struct {
		Op     string     `json:"op"`
		Name   string     `json:"name"`
		Attrs  []string   `json:"attrs"`
		Depth  uint8      `json:"depth"`
		Tuples [][]uint64 `json:"tuples"`
	}{"load", r.name, relAttrs, r.depth, rows})
	if err != nil {
		panic(err) // plain data cannot fail to encode
	}
	return append(b, '\n')
}

// randomRel draws n distinct uniform tuples over [0, 2^depth)².
func randomRel(r *rng, name string, depth uint8, n int) *relDef {
	rel := &relDef{name: name, depth: depth}
	seen := map[[2]uint64]bool{}
	dom := 1 << depth
	for len(rel.tuples) < n {
		t := [2]uint64{uint64(r.intn(dom)), uint64(r.intn(dom))}
		if !seen[t] {
			seen[t] = true
			rel.tuples = append(rel.tuples, t)
		}
	}
	return rel
}

// refAtom is one atom of a reference-join query.
type refAtom struct {
	rel  *relDef
	vars [2]string
}

// queryText renders the atoms in the protocol's query notation.
func queryText(atoms []refAtom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = fmt.Sprintf("%s(%s,%s)", a.rel.name, a.vars[0], a.vars[1])
	}
	return strings.Join(parts, ", ")
}

// refJoin is the naive hash join the expected answers come from: atoms
// are joined left to right, each probed through a hash table on the
// variables already bound. Output columns are the query's variables in
// first-occurrence order, which is the order tetrisd streams them in.
func refJoin(atoms []refAtom) [][]uint64 {
	pos := map[string]int{}
	partial := [][]uint64{{}}
	for _, a := range atoms {
		p0, bound0 := pos[a.vars[0]]
		p1, bound1 := pos[a.vars[1]]
		type key struct {
			a, b   uint64
			ha, hb bool
		}
		table := map[key][][2]uint64{}
		for _, t := range a.rel.tuples {
			k := key{ha: bound0, hb: bound1}
			if bound0 {
				k.a = t[0]
			}
			if bound1 {
				k.b = t[1]
			}
			table[k] = append(table[k], t)
		}
		var next [][]uint64
		for _, row := range partial {
			k := key{ha: bound0, hb: bound1}
			if bound0 {
				k.a = row[p0]
			}
			if bound1 {
				k.b = row[p1]
			}
			for _, t := range table[k] {
				ext := append([]uint64(nil), row...)
				if !bound0 {
					ext = append(ext, t[0])
				}
				if !bound1 {
					ext = append(ext, t[1])
				}
				next = append(next, ext)
			}
		}
		if !bound0 {
			pos[a.vars[0]] = len(pos)
		}
		if !bound1 {
			pos[a.vars[1]] = len(pos)
		}
		partial = next
	}
	return partial
}

// tuplePrefix starts every streamed output line of the protocol.
const tuplePrefix = `{"tuple":[`

// tupleLine renders a tuple exactly as tetrisd streams it, without the
// newline.
func tupleLine(t []uint64) []byte {
	b := []byte(tuplePrefix)
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, "]}"...)
}

// lineHash is FNV-1a over the line with a final avalanche; line hashes
// are summed, so the checksum of a reply does not depend on the order
// its tuples arrive in.
func lineHash(line []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range line {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return h ^ (h >> 32)
}

// answer is what a reply must contain.
type answer struct {
	tuples int
	sum    uint64
}

func answerOf(rows [][]uint64) answer {
	a := answer{tuples: len(rows)}
	for _, t := range rows {
		a.sum += lineHash(tupleLine(t))
	}
	return a
}

func (a answer) plus(b answer) answer { return answer{a.tuples + b.tuples, a.sum + b.sum} }

// step is one protocol request of an op together with the reply it must
// produce.
type step struct {
	line    []byte // request, newline included
	want    answer
	refresh string // required "refresh" field of the reply; "" = any
}

func requestLine(fields map[string]any) []byte {
	b, err := json.Marshal(fields)
	if err != nil {
		panic(err) // plain data cannot fail to encode
	}
	return append(b, '\n')
}

// op is the unit a workload is measured in: one or several requests
// sent back to back on one connection.
type op struct {
	steps []step
	// fresh ops run on a connection of their own: dial, the steps, a
	// close request, and the peer's EOF.
	fresh bool

	// What the op means, for the in-process ladder, which calls the
	// layers below the protocol with the same input.
	query string    // query text (prepared_star, view_stream, adhoc_reloaded)
	rel   string    // relation written (write_refresh)
	tuple [2]uint64 // tuple appended then deleted (write_refresh)
	delta answer    // what the append adds to the maintained result
}

// workload is one fully generated traffic mix.
type workload struct {
	name    string
	durable bool
	// clients is the number of closed-loop connections: 1 where the op
	// is CPU-bound, because everything is pinned to one core (see
	// README.md, "One core"); 2 on write_refresh, whose ops wait on the
	// disk and on each other's locks. init, ops and stmt have one entry
	// per client.
	clients int
	rels    []*relDef
	// init is what each client's session sends once before its ops.
	init [][]step
	// ops is each client's cycle of ops.
	ops [][]op
	// mode is the prepare/maintain mode of the workload's statement.
	mode string
	// stmt is the statement id each client execs ("" for adhoc_reloaded).
	stmt []string
	// tracedOps is how many ops the count-bound traced run replays.
	tracedOps int
}

var workloadNames = []string{"prepared_star", "view_stream", "adhoc_reloaded", "write_refresh"}

// generate builds the named workload for a seed. prepared_star and
// view_stream are fixed instances; the seed moves adhoc_reloaded's cycle
// of shapes and write_refresh's relations and written tuples.
func generate(name string, seed int64) (*workload, error) {
	// The generator's state is the first output of a generator started at
	// the seed: consecutive seeds must not give shifted copies of one
	// stream, which consecutive states would.
	r := rng(seed)
	r = rng(r.next())
	w := &workload{name: name, clients: 1}
	if name == "write_refresh" {
		w.clients = 2
	}
	w.init, w.ops, w.stmt = make([][]step, w.clients), make([][]op, w.clients), make([]string, w.clients)
	switch name {
	case "prepared_star":
		genStar(w)
	case "view_stream":
		genView(w)
	case "adhoc_reloaded":
		genAdhoc(w, &r)
	case "write_refresh":
		genWrite(w, &r)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

func triangle(r, s, t *relDef) []refAtom {
	return []refAtom{{r, [2]string{"A", "B"}}, {s, [2]string{"B", "C"}}, {t, [2]string{"A", "C"}}}
}

// statementOps fills a workload whose every op is one exec of a
// statement each session sets up once with verb ("prepare"/"maintain").
func statementOps(w *workload, verb, id string, atoms []refAtom, refresh string) {
	text := queryText(atoms)
	want := answerOf(refJoin(atoms))
	setup := map[string]any{"op": verb, "id": id, "query": text}
	if w.mode != "" {
		setup["mode"] = w.mode
	}
	exec := op{
		steps: []step{{line: requestLine(map[string]any{"op": "exec", "id": id}), want: want, refresh: refresh}},
		query: text,
	}
	for c := 0; c < w.clients; c++ {
		w.init[c] = []step{{line: requestLine(setup)}}
		w.ops[c] = []op{exec}
		w.stmt[c] = id
	}
}

// genStar is the AGM-hard star triangle R=S=T={0}×[64] ∪ [64]×{0} at
// depth 12 (the instance of Prepared/TriangleStar/m=64 in
// BENCH_tetris.json): 190 output tuples.
func genStar(w *workload) {
	const m = 64
	mk := func(name string) *relDef {
		rel := &relDef{name: name, depth: 12}
		rel.tuples = append(rel.tuples, [2]uint64{0, 0})
		for v := uint64(1); v < m; v++ {
			rel.tuples = append(rel.tuples, [2]uint64{0, v}, [2]uint64{v, 0})
		}
		return rel
	}
	w.rels = []*relDef{mk("R"), mk("S"), mk("T")}
	w.mode = "preloaded"
	w.tracedOps = 300
	statementOps(w, "prepare", "star", triangle(w.rels[0], w.rels[1], w.rels[2]), "")
}

// genView is the dense triangle R=S=T=[16]×[16] at depth 8: 4096 output
// tuples, materialised once per session and never written to.
func genView(w *workload) {
	const m = 16
	mk := func(name string) *relDef {
		rel := &relDef{name: name, depth: 8}
		for a := uint64(0); a < m; a++ {
			for b := uint64(0); b < m; b++ {
				rel.tuples = append(rel.tuples, [2]uint64{a, b})
			}
		}
		return rel
	}
	w.rels = []*relDef{mk("R"), mk("S"), mk("T")}
	w.tracedOps = 300
	statementOps(w, "maintain", "view", triangle(w.rels[0], w.rels[1], w.rels[2]), "none")
}

// adhocShapes is the number of distinct triangle shapes each client
// cycles through: three times the daemon's plan cache and the session's
// statement cache (64 each), so cyclic order defeats both.
const adhocShapes = 192

// adhocTuples sizes adhoc_reloaded's relations so that one op takes
// about 7 ms on one core: about 300 latency samples in each 2 s slice of
// the window, which the percentile rule needs (ten samples beyond each
// slice's p95).
const adhocTuples = 150

// genAdhoc draws 32 uniform relations at depth 8 and, from the triangles
// Ei(A,B), Ej(B,C), Ek(A,C) over three different ones, a cycle of
// adhocShapes per client. Cycles are disjoint, so that one client could never warm
// the plan cache for another.
func genAdhoc(w *workload, r *rng) {
	const nrel = 32
	// The relations are the same for every seed; the seed draws the cycle
	// of shapes. With seeded relations the median op cost moved by ±11 %
	// from seed to seed (the same seed repeated within 2 %): the spread
	// between seeds would have been the data, not the program.
	data := rng(0xad0c)
	for i := 0; i < nrel; i++ {
		w.rels = append(w.rels, randomRel(&data, fmt.Sprintf("E%d", i), 8, adhocTuples))
	}
	shapes := make([][3]int, 0, nrel*nrel*nrel)
	for i := 0; i < nrel; i++ {
		for j := 0; j < nrel; j++ {
			for k := 0; k < nrel; k++ {
				// Self-joins cost several times what the other shapes do;
				// a handful of them per cycle, a different number for every
				// seed, would decide the 99th percentile.
				if i != j && j != k && i != k {
					shapes = append(shapes, [3]int{i, j, k})
				}
			}
		}
	}
	for i := len(shapes) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		shapes[i], shapes[j] = shapes[j], shapes[i]
	}
	w.tracedOps = adhocShapes
	for c := 0; c < w.clients; c++ {
		for _, s := range shapes[c*adhocShapes : (c+1)*adhocShapes] {
			atoms := triangle(w.rels[s[0]], w.rels[s[1]], w.rels[s[2]])
			text := queryText(atoms)
			w.ops[c] = append(w.ops[c], op{
				fresh: true,
				query: text,
				steps: []step{{
					line: requestLine(map[string]any{"op": "query", "query": text}),
					want: answerOf(refJoin(atoms)),
				}},
			})
		}
	}
}

// writePool is how many distinct tuples each write_refresh client
// cycles through.
const writePool = 64

// genWrite gives each client three relations of 1000 uniform tuples at
// depth 12, a maintained path-3 over them, and a cycle of tuples to
// append to (and delete from) the middle relation. Every written tuple
// joins at least one tuple on each side, so each patched refresh
// changes the result; deleting it again restores the base state, so
// the work per op does not depend on how long the run is.
func genWrite(w *workload, r *rng) {
	w.durable = true
	w.tracedOps = 512
	for c := 0; c < w.clients; c++ {
		var rels [3]*relDef
		for i := range rels {
			rels[i] = randomRel(r, fmt.Sprintf("W%dR%d", c, i+1), 12, 1000)
		}
		w.rels = append(w.rels, rels[:]...)
		atoms := []refAtom{
			{rels[0], [2]string{"A", "B"}},
			{rels[1], [2]string{"B", "C"}},
			{rels[2], [2]string{"C", "D"}},
		}
		text := queryText(atoms)
		base := answerOf(refJoin(atoms))
		id := fmt.Sprintf("m%d", c)
		w.stmt[c] = id
		w.init[c] = []step{{line: requestLine(map[string]any{"op": "maintain", "id": id, "query": text})}}

		inR2 := map[[2]uint64]bool{}
		for _, t := range rels[1].tuples {
			inR2[t] = true
		}
		exec := requestLine(map[string]any{"op": "exec", "id": id})
		for len(w.ops[c]) < writePool {
			t := [2]uint64{
				rels[0].tuples[r.intn(len(rels[0].tuples))][1],
				rels[2].tuples[r.intn(len(rels[2].tuples))][0],
			}
			if inR2[t] {
				continue
			}
			inR2[t] = true // also keeps the pool distinct
			one := &relDef{tuples: [][2]uint64{t}}
			delta := answerOf(refJoin([]refAtom{atoms[0], {one, atoms[1].vars}, atoms[2]}))
			write := func(verb string) []byte {
				return requestLine(map[string]any{"op": verb, "name": rels[1].name, "tuples": [][]uint64{{t[0], t[1]}}})
			}
			w.ops[c] = append(w.ops[c], op{
				query: text,
				rel:   rels[1].name,
				tuple: t,
				delta: delta,
				steps: []step{
					{line: write("append")},
					{line: exec, want: base.plus(delta), refresh: "patched"},
					{line: write("delete")},
					{line: exec, want: base, refresh: "patched"},
				},
			})
		}
	}
}

// baseAnswer is the maintained result of a write_refresh client with
// none of its tuples appended: the last step of any of its ops.
func (w *workload) baseAnswer(c int) answer {
	steps := w.ops[c][0].steps
	return steps[len(steps)-1].want
}
