package fuzz

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/lb"
)

// TestInjectedFaultCaughtAndShrunk is the end-to-end self-test of the
// pipeline (and the PR's acceptance criterion): running the engines
// over an oracle that silently hides one gap box — the knowledge an
// engine would lose by skipping a resolution — must be caught by the
// differential matrix and shrunk to a repro of at most 3 atoms (query
// cases) and at most 8 boxes (BCP cases).
func TestInjectedFaultCaughtAndShrunk(t *testing.T) {
	ck := NewChecker()
	ck.WrapOracle = DropLargestGap
	failing := failingWith(ck)

	caught := map[Kind]int{}
	for seed := int64(1); seed <= 30; seed++ {
		for _, kind := range []Kind{QueryKind, BCPKind} {
			if caught[kind] >= 3 {
				continue
			}
			c := GenCase(rand.New(rand.NewSource(seed)), kind)
			d, err := ck.Check(c)
			if err != nil {
				t.Fatalf("seed %d: invalid case: %v", seed, err)
			}
			if d == nil {
				continue // the fault was invisible here (e.g. empty gap set)
			}
			caught[kind]++
			s := Shrink(c, failing)
			if !failing(s) {
				t.Fatalf("seed %d: shrunk case no longer fails:\n%s", seed, s.Marshal())
			}
			if kind == QueryKind && len(s.Atoms) > 3 {
				t.Errorf("seed %d: query repro kept %d atoms, want <= 3:\n%s", seed, len(s.Atoms), s.Marshal())
			}
			if kind == BCPKind && len(s.Boxes) > 8 {
				t.Errorf("seed %d: BCP repro kept %d boxes, want <= 8:\n%s", seed, len(s.Boxes), s.Marshal())
			}
		}
	}
	if caught[QueryKind] == 0 || caught[BCPKind] == 0 {
		t.Fatalf("injected fault went uncaught (query cases: %d, BCP cases: %d)", caught[QueryKind], caught[BCPKind])
	}
}

// TestDropLargestGapActuallyDrops pins the fault's mechanics so the
// test above cannot silently pass against a broken injector.
func TestDropLargestGapActuallyDrops(t *testing.T) {
	c := GenCase(rand.New(rand.NewSource(3)), QueryKind)
	q, err := c.BuildQuery()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := join.NewPlan(q, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := plan.NewOracle()
	n := len(inner.AllGaps())
	if n == 0 {
		t.Skip("case has an empty gap set")
	}
	wrapped := DropLargestGap(plan.NewOracle())
	if got := len(wrapped.AllGaps()); got != n-1 {
		t.Fatalf("wrapped AllGaps has %d boxes, want %d", got, n-1)
	}
}

// hostileCases returns oracle factories over generated box cover cases and
// queries, one fresh prober per call, for the fault tests to bend.
func hostileCases(t *testing.T, seeds int64) []func() core.Oracle {
	t.Helper()
	var out []func() core.Oracle
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		bc := GenCase(r, BCPKind)
		depths, boxes, err := bc.BuildBCP()
		if err != nil {
			t.Fatal(err)
		}
		bo, err := core.NewBoxOracle(depths, boxes)
		if err != nil {
			t.Fatal(err)
		}
		qc := GenCase(r, QueryKind)
		q, err := qc.BuildQuery()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := join.NewPlan(q, join.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, func() core.Oracle { return bo.Clone() }, func() core.Oracle { return plan.NewOracle() })
	}
	return out
}

// checkUnderFault runs the checker's matrix with every oracle bent by one
// of the fault wrappers below, and hands each with the case whether a
// stray gap was added to any answer, and the discrepancy.
func checkUnderFault(t *testing.T, wrap func(core.Oracle) core.Oracle, seeds int64, each func(c Case, strayed bool, d *Discrepancy)) {
	t.Helper()
	var mu sync.Mutex
	var wrapped []*HostileOracle
	ck := NewChecker()
	ck.WrapOracle = func(o core.Oracle) core.Oracle {
		h := wrap(o).(*HostileOracle)
		mu.Lock()
		wrapped = append(wrapped, h)
		mu.Unlock()
		return h
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, kind := range []Kind{QueryKind, BCPKind} {
			wrapped = nil
			c := GenCase(rand.New(rand.NewSource(seed)), kind)
			d, err := ck.Check(c)
			if err != nil {
				t.Fatalf("seed %d: invalid case: %v", seed, err)
			}
			strayed := false
			for _, h := range wrapped {
				strayed = strayed || h.Strayed
			}
			each(c, strayed, d)
		}
	}
}

// TestStrayGapFailsSafe: a gap box that does not contain the probe point is
// the one lie the engine cannot absorb (loaded, it would cover points it
// says nothing about), so it must end the run with an oracle contract
// violation, in the plain space and the lifted one — never a panic of the
// knowledge base's checked preconditions, never a wrong answer.
func TestStrayGapFailsSafe(t *testing.T) {
	strays := map[core.Mode]int{}
	for i, mk := range hostileCases(t, 20) {
		for _, mode := range []core.Mode{core.Reloaded, core.ReloadedLB} {
			h := StrayGap(mk()).(*HostileOracle)
			opts := core.Options{Mode: mode}
			if !mode.Plain() {
				opts.Space = lb.New
			}
			_, err := core.Run(h, opts)
			switch {
			case !h.Strayed && err != nil:
				t.Fatalf("case %d %v: no stray gap to add, yet %v", i, mode, err)
			case h.Strayed && (err == nil || !strings.Contains(err.Error(), "oracle contract violation")):
				t.Fatalf("case %d %v: a stray gap gave error %v, want an oracle contract violation", i, mode, err)
			case h.Strayed && (mode == core.Reloaded || h.Dims() >= 3): // below 3 the LB modes run plain
				strays[mode]++
			}
		}
	}
	if strays[core.Reloaded] == 0 || strays[core.ReloadedLB] == 0 {
		t.Fatalf("stray gaps added: %v; the test is vacuous in a space", strays)
	}
	caught := 0
	checkUnderFault(t, StrayGap, 6, func(c Case, strayed bool, d *Discrepancy) {
		switch {
		case !strayed && d != nil:
			t.Fatalf("%s: no stray gap added, yet %v", c.Name, d)
		case strayed && (d == nil || !strings.Contains(d.Detail, "oracle contract violation")):
			t.Fatalf("%s: stray gaps reported as %v, want an oracle contract violation", c.Name, d)
		case strayed:
			caught++
		}
	})
	if caught == 0 {
		t.Fatal("no checked case added a stray gap")
	}
	t.Logf("stray gaps ended %v direct runs and %d checked cases", strays, caught)
}

// TestRepeatAndScribbleChangeNothing: an answer that repeats every box, and
// an oracle that clears the probe point after answering, are within the
// contract. Every mode must report the unbent run's tuples, in order, and
// its work, count for count; the checker's matrix must find nothing.
func TestRepeatAndScribbleChangeNothing(t *testing.T) {
	modes := []core.Mode{core.Reloaded, core.Preloaded, core.PreloadedLB, core.ReloadedLB}
	faults := []struct {
		name string
		wrap func(core.Oracle) core.Oracle
	}{{"RepeatGaps", RepeatGaps}, {"ScribblePoint", ScribblePoint}}
	for i, mk := range hostileCases(t, 20) {
		for _, mode := range modes {
			opts := core.Options{Mode: mode}
			if !mode.Plain() {
				opts.Space = lb.New
			}
			want, err := core.Run(mk(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				got, err := core.Run(f.wrap(mk()), opts)
				if err != nil {
					t.Fatalf("case %d %v %s: %v", i, mode, f.name, err)
				}
				if !reflect.DeepEqual(got.Tuples, want.Tuples) || got.Stats != want.Stats {
					t.Fatalf("case %d %v %s: %d tuples with %+v, unbent %d with %+v",
						i, mode, f.name, len(got.Tuples), got.Stats, len(want.Tuples), want.Stats)
				}
			}
		}
	}
	for _, f := range faults {
		checkUnderFault(t, f.wrap, 6, func(c Case, _ bool, d *Discrepancy) {
			if d != nil {
				t.Fatalf("%s under %s: %v", c.Name, f.name, d)
			}
		})
	}
}
