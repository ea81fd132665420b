// Model counting with Tetris: the DPLL correspondence of §4.2.4.
//
// Each clause of a CNF formula is the box of assignments that falsify it
// (Figure 8 of the paper); the models are exactly the points of the
// Boolean cube not covered by any clause box, so Tetris enumerates them.
// Resolvent caching is clause learning; disabling it gives plain DPLL.
//
// Run with: go run ./examples/satcount
package main

import (
	"fmt"
	"log"

	"tetrisjoin"
)

func main() {
	// (x1 ∨ x2) ∧ (¬x2 ∨ x3) ∧ (¬x1 ∨ ¬x3): count its models.
	formula := tetrisjoin.CNF{
		NumVars: 3,
		Clauses: []tetrisjoin.Clause{{1, 2}, {-2, 3}, {-1, -3}},
	}
	res, err := tetrisjoin.CountModels(formula, tetrisjoin.SATOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("formula has %d models:\n", res.Models)
	for _, m := range res.Assignments {
		fmt.Printf("  %v\n", m)
	}

	// Pigeonhole: 5 pigeons into 4 holes is unsatisfiable, and clause
	// learning (= resolvent caching) pays off against plain DPLL.
	php := tetrisjoin.Pigeonhole(5, 4)
	fmt.Printf("\nPHP(5,4): %d variables, %d clauses\n", php.NumVars, len(php.Clauses))
	learned, err := tetrisjoin.CountModels(php, tetrisjoin.SATOptions{})
	if err != nil {
		log.Fatal(err)
	}
	plain, err := tetrisjoin.CountModels(php, tetrisjoin.SATOptions{NoLearning: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  models: %d (unsatisfiable)\n", learned.Models)
	fmt.Printf("  with clause learning: %8d resolutions\n", learned.Stats.Resolutions)
	fmt.Printf("  plain DPLL:           %8d resolutions\n", plain.Stats.Resolutions)

	// And a satisfiable one: PHP(4,4) has 4! = 24 models.
	php44 := tetrisjoin.Pigeonhole(4, 4)
	res, err = tetrisjoin.CountModels(php44, tetrisjoin.SATOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPHP(4,4) has %d models (4! perfect matchings)\n", res.Models)

	// Counting without enumeration: the counting skeleton sums
	// whole satisfying sub-cubes, so astronomically many models are fine.
	big50 := tetrisjoin.CNF{
		NumVars: 50,
		Clauses: []tetrisjoin.Clause{{1, 2, 3}, {-1, 4}, {2, -5, 6}},
	}
	count, err := tetrisjoin.CountModelsFast(big50, tetrisjoin.SATOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\na 50-variable formula has exactly %s models\n", count)
	fmt.Println("(counted via cached sub-cube sums, not enumeration)")
}
