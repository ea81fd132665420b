package tetrisjoin

import (
	"io"
	"math/big"

	"tetrisjoin/internal/sat"
)

// CNF is a propositional formula in conjunctive normal form; see sat.CNF.
// Through the paper's DPLL correspondence (Section 4.2.4, Appendix I),
// clauses become boxes over the Boolean cube and Tetris acts as a #SAT
// procedure with clause learning.
type CNF = sat.CNF

// Clause is a disjunction of literals (±variable, 1-based).
type Clause = sat.Clause

// SATOptions configures the SAT procedures; see sat.Options.
type SATOptions = sat.Options

// SATResult reports a SAT run; see sat.Result.
type SATResult = sat.Result

// CountModels counts the models of the formula (#SAT) via Tetris,
// enumerating each model.
func CountModels(c CNF, opts SATOptions) (*SATResult, error) { return sat.Count(c, opts) }

// CountModelsFast returns the exact model count without enumeration: the
// counting skeleton sums whole satisfying sub-cubes, handling
// formulas with astronomically many models.
func CountModelsFast(c CNF, opts SATOptions) (*big.Int, error) {
	count, _, err := sat.CountFast(c, opts)
	return count, err
}

// SolveSAT finds one model of the formula, or reports unsatisfiability.
func SolveSAT(c CNF, opts SATOptions) (satisfiable bool, model []bool, err error) {
	return sat.Solve(c, opts)
}

// ParseDIMACS reads a DIMACS CNF formula.
func ParseDIMACS(r io.Reader) (CNF, error) { return sat.ParseDIMACS(r) }

// Pigeonhole returns the pigeonhole principle formula PHP(pigeons, holes).
func Pigeonhole(pigeons, holes int) CNF { return sat.Pigeonhole(pigeons, holes) }
