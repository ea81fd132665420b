package fuzz

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/lb"
)

// failingWith returns the shrinker predicate for a checker: a candidate
// counts as failing only when it is valid AND the checker reports a
// discrepancy.
func failingWith(ck *Checker) func(Case) bool {
	return func(c Case) bool {
		d, err := ck.Check(c)
		return err == nil && d != nil
	}
}

// checkSeed is the shared body of the fuzz targets: generate the case
// for the seed, run the differential matrix, and on failure shrink to a
// minimal repro before reporting (the repro JSON is the actionable
// artifact — commit it under testdata/corpus/ to pin the regression).
func checkSeed(t *testing.T, seed int64, kind Kind) {
	t.Helper()
	c := GenCase(rand.New(rand.NewSource(seed)), kind)
	ck := NewChecker()
	d, err := ck.Check(c)
	if err != nil {
		t.Fatalf("seed %d: generator produced an invalid case: %v\n%s", seed, err, c.Marshal())
	}
	if d == nil {
		return
	}
	shrunk := Shrink(c, failingWith(ck))
	t.Fatalf("seed %d: %v\nshrunk repro (add to testdata/corpus/):\n%s", seed, d, shrunk.Marshal())
}

// FuzzQueryDifferential fuzzes the generator seed for query cases:
// every engine (baselines, Tetris modes × SAOs × shards × workers,
// count, Boolean) must agree on every generated query.
func FuzzQueryDifferential(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeed(t, seed, QueryKind)
	})
}

// FuzzBCPDifferential fuzzes the generator seed for raw box cover
// cases, cross-checked against brute-force point enumeration.
func FuzzBCPDifferential(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeed(t, seed, BCPKind)
	})
}

// FuzzHostileOracle bends the probes of a small generated box cover
// oracle, one Fault per probe chosen by the input bytes (cycling), and runs
// both lazy modes with the knowledge base's preconditions checked. No input
// may panic the engine; an added stray gap must end the run with an oracle
// contract violation; with no stray and no drop, the run must be the honest
// one, tuple for tuple and count for count.
func FuzzHostileOracle(f *testing.F) {
	f.Add(int64(1), []byte{byte(Honest)})
	f.Add(int64(2), []byte{byte(Repeat), byte(Scribble)})
	f.Add(int64(3), []byte{byte(Honest), byte(Honest), byte(Stray)})
	f.Add(int64(4), []byte{byte(Drop), byte(Repeat)})
	f.Add(int64(5), []byte{byte(Scribble), byte(Drop), byte(Stray), byte(Repeat)})
	f.Fuzz(func(t *testing.T, seed int64, bytes []byte) {
		c := GenCase(rand.New(rand.NewSource(seed)), BCPKind)
		depths, boxes, err := c.BuildBCP()
		if err != nil {
			t.Fatal(err)
		}
		o, err := core.NewBoxOracle(depths, boxes)
		if err != nil {
			t.Fatal(err)
		}
		faults := make([]Fault, len(bytes))
		for i, b := range bytes {
			faults[i] = Fault(b % byte(numFaults))
		}
		for _, mode := range []core.Mode{core.Reloaded, core.ReloadedLB} {
			opts := core.Options{Mode: mode}
			if !mode.Plain() {
				opts.Space = lb.New
			}
			honest, err := core.Run(o.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			h := NewHostileOracle(o.Clone(), faults...)
			got, err := core.Run(h, opts)
			switch {
			case h.Strayed:
				if err == nil || !strings.Contains(err.Error(), "oracle contract violation") {
					t.Fatalf("%v: a stray gap gave error %v, want an oracle contract violation", mode, err)
				}
			case h.Dropped: // withheld knowledge may change the answer
			case err != nil:
				t.Fatalf("%v: faults %v within the contract failed the run: %v", mode, faults, err)
			case !reflect.DeepEqual(got.Tuples, honest.Tuples) || got.Stats != honest.Stats:
				t.Fatalf("%v: faults %v gave %v with %+v, the honest run %v with %+v",
					mode, faults, got.Tuples, got.Stats, honest.Tuples, honest.Stats)
			}
		}
	})
}

// TestGeneratorSweep is the deterministic slice of the fuzz campaign
// run on every go test: a seed range per kind through the full matrix.
func TestGeneratorSweep(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkSeed(t, seed, QueryKind)
		checkSeed(t, seed, BCPKind)
	}
}

// TestGeneratorCoversShapesAndFills pins the generator's coverage: over
// a modest seed range every hypergraph shape, fill style and box style
// must occur, and every generated case must build.
func TestGeneratorCoversShapesAndFills(t *testing.T) {
	shapes := map[string]bool{}
	styles := map[string]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := GenCase(r, QueryKind)
		shapes[q.Name] = true
		if _, err := q.BuildQuery(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := GenCase(r, BCPKind)
		styles[b.Name] = true
		if _, _, err := b.BuildBCP(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for s := Shape(0); s < numShapes; s++ {
		if !shapes["query-"+s.String()] {
			t.Errorf("shape %v never generated", s)
		}
	}
	for s := BoxStyle(0); s < numBoxStyles; s++ {
		if !styles[s.String()] {
			t.Errorf("box style %v never generated", s)
		}
	}
}

// TestCaseRoundTrip: Marshal/ParseCase is the corpus contract — a case
// must survive serialization exactly.
func TestCaseRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, kind := range []Kind{QueryKind, BCPKind} {
			c := GenCase(r, kind)
			back, err := ParseCase(c.Marshal())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if string(back.Marshal()) != string(c.Marshal()) {
				t.Fatalf("seed %d: round trip changed the case:\n%s\nvs\n%s", seed, c.Marshal(), back.Marshal())
			}
		}
	}
}
