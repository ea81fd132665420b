package core_test

import (
	"math/rand"
	"testing"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/join"
	"tetrisjoin/internal/workload"
)

// TestPreparedBaseMatchesFreshRunsOnPath is TestPreparedBaseMatchesFreshRuns
// on a four-atom path join, an instance on which resolvents subsume many
// gap boxes: a run that copied the gap set into its own knowledge base
// would keep fewer boxes there (12 060) than a run over a base keeps in
// both (12 364).
func TestPreparedBaseMatchesFreshRunsOnPath(t *testing.T) {
	plan, err := join.NewPlan(workload.PathQuery(4, 400, 10, 3), join.Options{Mode: core.Preloaded})
	if err != nil {
		t.Fatal(err)
	}
	newOracle := func() core.Oracle { return plan.NewOracle() }
	roots := core.LaterRoots(rand.New(rand.NewSource(4)), plan.SAO())
	core.BaseMatchesFreshRuns(t, "path", newOracle, plan.SAO(), roots)
}
