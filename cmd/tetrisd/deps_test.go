package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDependencySet pins what the daemon links: none of the packages that
// serve only the paper's experiments and examples, and not the root
// tetrisjoin package. internal/balance is allowed — the one paper-only
// dependency left, linked through core's LB modes for as long as the wire
// protocol accepts them.
func TestDependencySet(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	forbidden := map[string]bool{"tetrisjoin": true}
	for _, p := range []string{"klee", "sat", "cert", "experiments", "fuzz", "workload", "baseline"} {
		forbidden["tetrisjoin/internal/"+p] = true
	}
	for _, dep := range strings.Fields(string(out)) {
		if forbidden[dep] {
			t.Errorf("tetrisd links %s", dep)
		}
	}
}
