package sat

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestCountFastAgainstEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(7)
		m := 1 + r.Intn(3*n)
		c := CNF{NumVars: n}
		for i := 0; i < m; i++ {
			perm := r.Perm(n)
			var cl Clause
			for k := 0; k < 3 && k < n; k++ {
				lit := perm[k] + 1
				if r.Intn(2) == 0 {
					lit = -lit
				}
				cl = append(cl, lit)
			}
			c.Clauses = append(c.Clauses, cl)
		}
		want := bruteCount(c)
		got, _, err := CountFast(c, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Cmp(new(big.Int).SetUint64(want)) != 0 {
			t.Fatalf("trial %d: CountFast = %s, brute = %d", trial, got, want)
		}
		// Without learning too.
		got, _, err = CountFast(c, Options{NoLearning: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(new(big.Int).SetUint64(want)) != 0 {
			t.Fatalf("trial %d: no-learning CountFast = %s, want %d", trial, got, want)
		}
	}
}

func TestCountFastHugeModelCounts(t *testing.T) {
	// 50 variables, one clause: 2^50 − 2^47 models — enumeration would
	// never finish; CountFast is immediate.
	c := CNF{NumVars: 50, Clauses: []Clause{{1, 2, 3}}}
	got, stats, err := CountFast(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 50)
	want.Sub(want, new(big.Int).Lsh(big.NewInt(1), 47))
	if got.Cmp(want) != 0 {
		t.Fatalf("CountFast = %s, want %s", got, want)
	}
	if stats.SkeletonCalls > 10000 {
		t.Errorf("counting took %d skeleton calls", stats.SkeletonCalls)
	}
}

func TestCountFastMatchesCountOnPigeonhole(t *testing.T) {
	php := Pigeonhole(4, 4) // 24 models
	fast, _, err := CountFast(php, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cmp(big.NewInt(24)) != 0 {
		t.Errorf("CountFast(PHP(4,4)) = %s, want 24", fast)
	}
	unsat, learned, err := CountFast(Pigeonhole(5, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if unsat.Sign() != 0 {
		t.Errorf("CountFast(PHP(5,4)) = %s, want 0", unsat)
	}
	// The count learns the resolvents it derives, and NoLearning reaches
	// the frames inside them again.
	unsat, plain, err := CountFast(Pigeonhole(5, 4), Options{NoLearning: true})
	if err != nil {
		t.Fatal(err)
	}
	if unsat.Sign() != 0 {
		t.Errorf("no-learning CountFast(PHP(5,4)) = %s, want 0", unsat)
	}
	if learned.Splits >= plain.Splits {
		t.Errorf("PHP(5,4): %d splits learning, %d without; learning saved nothing", learned.Splits, plain.Splits)
	}
}

func TestCountFastVarOrderValidation(t *testing.T) {
	c := CNF{3, []Clause{{1, 2}}}
	if _, _, err := CountFast(c, Options{VarOrder: []int{1, 2}}); err == nil {
		t.Error("short order accepted")
	}
	if _, _, err := CountFast(c, Options{VarOrder: []int{0, 1, 2}}); err == nil {
		t.Error("zero variable accepted")
	}
	if _, _, err := CountFast(CNF{0, nil}, Options{}); err == nil {
		t.Error("invalid formula accepted")
	}
}
