// Package sat realizes the paper's connection between Tetris and DPLL
// with clause learning (Section 4.2.4, Appendix I): a CNF formula over n
// variables becomes a box cover problem over the Boolean cube {0,1}^n —
// each clause maps to the box of assignments falsifying it (Figure 8) —
// and Tetris enumerates the uncovered points, i.e. the models. Geometric
// resolution corresponds to propositional resolution of the learned
// clauses, caching to clause learning, and the NoCache mode to plain
// DPLL search.
package sat

import (
	"bufio"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"strings"

	"tetrisjoin/internal/core"
	"tetrisjoin/internal/dyadic"
)

// Clause is a disjunction of literals: positive v means variable v,
// negative -v means its negation. Variables are 1-based.
type Clause []int

// CNF is a conjunction of clauses over NumVars variables.
type CNF struct {
	NumVars int
	Clauses []Clause
}

// MaxVars bounds the variable count: one box dimension per variable.
const MaxVars = 62

// Check validates the formula.
func (c CNF) Check() error {
	if c.NumVars < 1 || c.NumVars > MaxVars {
		return fmt.Errorf("sat: %d variables, supported range is 1..%d", c.NumVars, MaxVars)
	}
	for i, cl := range c.Clauses {
		if len(cl) == 0 {
			return fmt.Errorf("sat: clause %d is empty (formula is unsatisfiable by definition)", i)
		}
		seen := map[int]bool{}
		for _, lit := range cl {
			v := lit
			if v < 0 {
				v = -v
			}
			if v == 0 || v > c.NumVars {
				return fmt.Errorf("sat: clause %d has literal %d out of range", i, lit)
			}
			if seen[-lit] {
				return fmt.Errorf("sat: clause %d is tautological (has %d and %d)", i, lit, -lit)
			}
			seen[lit] = true
		}
	}
	return nil
}

// Boxes encodes the formula as gap boxes over the n-dimensional Boolean
// cube: clause (ℓ1 ∨ … ∨ ℓk) becomes the box whose component for each
// ℓi's variable is the single falsifying value, λ elsewhere. The
// uncovered points are exactly the models.
func (c CNF) Boxes() []dyadic.Box {
	out := make([]dyadic.Box, 0, len(c.Clauses))
	for _, cl := range c.Clauses {
		b := dyadic.Universe(c.NumVars)
		for _, lit := range cl {
			v := lit
			val := uint64(0) // positive literal falsified by 0
			if lit < 0 {
				v = -lit
				val = 1 // negative literal falsified by 1
			}
			b[v-1] = dyadic.Unit(val, 1)
		}
		out = append(out, b)
	}
	return out
}

// depths returns the Boolean-cube depths (1 bit per variable).
func (c CNF) depths() []uint8 {
	d := make([]uint8, c.NumVars)
	for i := range d {
		d[i] = 1
	}
	return d
}

// Options configures the solver.
type Options struct {
	// VarOrder is the DPLL branching order (1-based variables); nil means
	// 1..n. This is Tetris' splitting attribute order.
	VarOrder []int
	// NoLearning disables clause learning (resolvent caching): plain DPLL
	// search, the Tree Ordered resolution class.
	NoLearning bool
	// MaxModels stops after this many models (0 = all).
	MaxModels int
	// OnModel streams models as assignments (true at index v-1 means
	// variable v is true). Returning false stops the search.
	OnModel func(assignment []bool) bool
}

// Result reports a solver run.
type Result struct {
	// Models is the number of models found (the #SAT count when the run
	// was not truncated).
	Models uint64
	// Assignments holds the models when OnModel was nil.
	Assignments [][]bool
	// Stats is the underlying Tetris work (Resolutions = learned/derived
	// clauses).
	Stats core.Stats
}

// Count counts the models of the formula (#SAT) by running Tetris over
// the clause boxes.
func Count(c CNF, opts Options) (*Result, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	oracle, err := core.NewBoxOracle(c.depths(), c.Boxes())
	if err != nil {
		return nil, err
	}
	sao, err := opts.sao(c.NumVars)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	coreOpts := core.Options{
		Mode:      core.Preloaded,
		SAO:       sao,
		NoCache:   opts.NoLearning,
		MaxOutput: opts.MaxModels,
	}
	assignment := make([]bool, c.NumVars)
	coreOpts.OnOutput = func(tuple []uint64) bool {
		for i, v := range tuple {
			assignment[i] = v == 1
		}
		res.Models++
		if opts.OnModel != nil {
			return opts.OnModel(assignment)
		}
		cp := make([]bool, len(assignment))
		copy(cp, assignment)
		res.Assignments = append(res.Assignments, cp)
		return true
	}
	coreRes, err := core.Run(oracle, coreOpts)
	if err != nil {
		return nil, err
	}
	res.Stats = coreRes.Stats
	return res, nil
}

// CountFast returns the exact model count without enumerating models:
// the counting skeleton (core.CountUncovered) sums whole uncovered
// sub-cubes at once, so formulas with astronomically many models (e.g.
// 2^50) are counted in polynomial space — the #DPLL reading of Section
// 4.2.4. Like Count it learns the resolvents it derives unless
// NoLearning; MaxModels and OnModel do not apply.
func CountFast(c CNF, opts Options) (*big.Int, core.Stats, error) {
	if err := c.Check(); err != nil {
		return nil, core.Stats{}, err
	}
	sao, err := opts.sao(c.NumVars)
	if err != nil {
		return nil, core.Stats{}, err
	}
	rep, err := core.CountUncovered(c.depths(), c.Boxes(), core.Options{SAO: sao, NoCache: opts.NoLearning})
	if err != nil {
		return nil, core.Stats{}, err
	}
	return rep.Uncovered, rep.Stats, nil
}

// sao is VarOrder as a splitting attribute order over numVars
// dimensions, nil for the default.
func (o Options) sao(numVars int) ([]int, error) {
	if o.VarOrder == nil {
		return nil, nil
	}
	if len(o.VarOrder) != numVars {
		return nil, fmt.Errorf("sat: variable order has %d entries for %d variables", len(o.VarOrder), numVars)
	}
	sao := make([]int, numVars)
	for i, v := range o.VarOrder {
		if v < 1 || v > numVars {
			return nil, fmt.Errorf("sat: variable %d out of range in order", v)
		}
		sao[i] = v - 1
	}
	return sao, nil
}

// Solve finds one model, or reports unsatisfiability.
func Solve(c CNF, opts Options) (sat bool, model []bool, err error) {
	opts.MaxModels = 1
	var found []bool
	inner := opts.OnModel
	opts.OnModel = func(assignment []bool) bool {
		found = append([]bool(nil), assignment...)
		if inner != nil {
			inner(assignment)
		}
		return false
	}
	res, err := Count(c, opts)
	if err != nil {
		return false, nil, err
	}
	return res.Models > 0, found, nil
}

// ParseDIMACS reads a formula in DIMACS CNF format.
func ParseDIMACS(r io.Reader) (CNF, error) {
	var c CNF
	sc := bufio.NewScanner(r)
	var current Clause
	declared := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") || strings.HasPrefix(line, "%") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return c, fmt.Errorf("sat: bad problem line %q", line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil {
				return c, fmt.Errorf("sat: bad variable count in %q", line)
			}
			nc, err := strconv.Atoi(fields[3])
			if err != nil {
				return c, fmt.Errorf("sat: bad clause count in %q", line)
			}
			c.NumVars = nv
			declared = nc
			continue
		}
		for _, tok := range strings.Fields(line) {
			lit, err := strconv.Atoi(tok)
			if err != nil {
				return c, fmt.Errorf("sat: bad literal %q", tok)
			}
			if lit == 0 {
				c.Clauses = append(c.Clauses, current)
				current = nil
				continue
			}
			current = append(current, lit)
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	if len(current) > 0 {
		c.Clauses = append(c.Clauses, current)
	}
	if declared >= 0 && len(c.Clauses) != declared {
		return c, fmt.Errorf("sat: header declares %d clauses, found %d", declared, len(c.Clauses))
	}
	if c.NumVars == 0 {
		return c, fmt.Errorf("sat: missing problem line")
	}
	return c, c.Check()
}

// Pigeonhole returns the (unsatisfiable for holes < pigeons) pigeonhole
// principle formula PHP(pigeons, holes): a standard resolution-hardness
// benchmark.
func Pigeonhole(pigeons, holes int) CNF {
	v := func(p, h int) int { return p*holes + h + 1 }
	var c CNF
	c.NumVars = pigeons * holes
	// Every pigeon sits somewhere.
	for p := 0; p < pigeons; p++ {
		var cl Clause
		for h := 0; h < holes; h++ {
			cl = append(cl, v(p, h))
		}
		c.Clauses = append(c.Clauses, cl)
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				c.Clauses = append(c.Clauses, Clause{-v(p1, h), -v(p2, h)})
			}
		}
	}
	return c
}
