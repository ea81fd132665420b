package core

import "tetrisjoin/internal/dyadic"

// spaceFunc is the type of Options.Space.
type spaceFunc = func(Mode, []uint8, []dyadic.Box) (Space, error)

// The LB arms of this package's tests run from lb_test.go, in core_test:
// the Balance lift they need, internal/lb, imports core. They share the
// plain arms' bodies and helpers through these names, as do the arms
// over join instances (base_path_test.go), whose oracles come from
// internal/join, which imports core too.
var (
	Example44Trace               = example44Trace
	Figure5TriangleEmpty         = figure5TriangleEmpty
	Figure6TriangleNonEmpty      = figure6TriangleNonEmpty
	SingleBoxCoversAll           = singleBoxCoversAll
	RandomAgainstBruteForce      = randomAgainstBruteForce
	MalformedOracleBoxesRejected = malformedOracleBoxesRejected
	LazyLoadFailuresNameTheCause = lazyLoadFailuresNameTheCause
	OracleScribblingOnThePoint   = oracleScribblingOnThePoint
	SinglePassMatchesRestartMode = singlePassMatchesRestartMode
	LineMatchesItsDefinition     = lineMatchesItsDefinition
	DepthsOf                     = depthsOf
	RandBoxSet                   = randBoxSet
	BruteUncovered               = bruteUncovered
	SortTuples                   = sortTuples
	ShardInstance                = shardInstance
	BaseMatchesFreshRuns         = baseMatchesFreshRuns
	LaterRoots                   = laterRoots
)
