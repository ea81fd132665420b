package core

import (
	"os"
	"testing"

	"tetrisjoin/internal/boxtree"
)

// TestMain runs the package's tests with the knowledge base checking the
// promises the skeleton makes it: a resolvent is never already covered,
// and an exact-dimension probe of the kb and a frontier probe of the base
// answer like the full one.
func TestMain(m *testing.M) {
	boxtree.CheckPreconditions = true
	os.Exit(m.Run())
}

// KeepingEverything runs f with every skeleton storing every box, also
// those equal to their frame; the external tests reach it from here.
func KeepingEverything(f func()) {
	keepEverything = true
	defer func() { keepEverything = false }()
	f()
}
