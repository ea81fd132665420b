package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDependencySet pins what the daemon links: none of the packages that
// serve only the paper's experiments and examples, and not the root
// tetrisjoin package. That includes the Balance lift of the LB modes
// (internal/lb, internal/balance): the wire protocol refuses those modes,
// and core runs them only through an Options.Space the daemon never sets.
func TestDependencySet(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	forbidden := map[string]bool{"tetrisjoin": true}
	for _, p := range []string{"klee", "sat", "cert", "experiments", "fuzz", "workload", "baseline", "balance", "lb"} {
		forbidden["tetrisjoin/internal/"+p] = true
	}
	for _, dep := range strings.Fields(string(out)) {
		if forbidden[dep] {
			t.Errorf("tetrisd links %s", dep)
		}
	}
}
