package fuzz

import (
	"math/big"
	"testing"

	"tetrisjoin/internal/baseline"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/workload"
)

// workloadFamilies returns one small representative query per workload
// family — the same coverage the parallel differential tests use, plus
// the random-incidence family.
func workloadFamilies() map[string]*join.Query {
	return map[string]*join.Query{
		"path":           workload.PathQuery(3, 60, 6, 7),
		"star":           workload.StarQuery(3, 40, 5, 11),
		"triangle-msb":   workload.TriangleMSB(3),
		"triangle-star":  workload.TriangleAGMStar(12, 6),
		"triangle-dense": workload.TriangleDense(5, 4),
		"bowtie-block":   workload.BowtieBlock(4),
		"gao-sensitive":  workload.GAOSensitive(10, 5),
		"tree-ordered":   workload.TreeOrderedHard(4),
		"four-cycle":     workload.FourCycleBlocks(3),
		"diag-bowtie":    workload.DiagonalBowtie(4),
		"clique":         workload.CliqueQuery(3, 10, 0.4, 4, 13),
		"incidence":      workload.RandomIncidenceQuery(4, 3, 3, 25, 3, 17),
	}
}

// TestCountModeMatchesBaselines: for every workload family, the
// counting variant (join.Count — the #SAT-style skeleton) must
// agree with the enumerated cardinality of both the Tetris engine and
// the Generic Join baseline, without materializing tuples. Until now
// only enumeration was differentially tested end-to-end.
func TestCountModeMatchesBaselines(t *testing.T) {
	for name, q := range workloadFamilies() {
		ref, err := baseline.GenericJoin(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := join.Execute(q, join.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tuples) != len(ref) {
			t.Errorf("%s: tetris enumerated %d tuples, generic join %d", name, len(res.Tuples), len(ref))
		}
		count, _, err := join.Count(q, join.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count.Cmp(big.NewInt(int64(len(ref)))) != 0 {
			t.Errorf("%s: count mode returned %v, enumeration has %d tuples", name, count, len(ref))
		}
		// NoCache (tree ordered resolution) must not change the count.
		countNC, _, err := join.Count(q, join.Options{NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count.Cmp(countNC) != 0 {
			t.Errorf("%s: cached count %v != uncached count %v", name, count, countNC)
		}
	}
}

// TestBooleanModeMatchesBaselines: for every workload family, the
// Boolean box cover over the query's gap set must report covered
// exactly when the join output is empty, and a non-covered witness must
// be an actual output tuple of the baseline.
func TestBooleanModeMatchesBaselines(t *testing.T) {
	sawEmpty, sawNonEmpty := false, false
	for name, q := range workloadFamilies() {
		ref, err := baseline.GenericJoin(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refSet := map[string]bool{}
		for _, tup := range ref {
			refSet[tupleKeyString(tup)] = true
		}
		plan, err := join.NewPlan(q, join.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle := plan.NewOracle()
		rep, err := core.Covers(oracle.Depths(), oracle.AllGaps(), core.Options{SAO: plan.SAO()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Covered != (len(ref) == 0) {
			t.Errorf("%s: boolean mode Covered=%v but output has %d tuples", name, rep.Covered, len(ref))
		}
		if rep.Covered {
			sawEmpty = true
		} else {
			sawNonEmpty = true
			point := rep.Witness.Values(oracle.Depths())
			if !refSet[tupleKeyString(point)] {
				t.Errorf("%s: boolean witness %v is not an output tuple", name, point)
			}
		}
	}
	// The family set must exercise both branches or the test is weaker
	// than it looks.
	if !sawEmpty || !sawNonEmpty {
		t.Fatalf("family set is one-sided: sawEmpty=%v sawNonEmpty=%v", sawEmpty, sawNonEmpty)
	}
}
