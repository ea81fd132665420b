package core

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tetrisjoin/internal/dyadic"
)

// funcOracle is an oracle over the 3-dimensional depth-2 space whose lazy
// answers come from a function: the shape every hostile oracle below has.
type funcOracle func(point []uint64) []dyadic.Box

func (f funcOracle) Dims() int                                  { return 3 }
func (f funcOracle) Depths() []uint8                            { return depthsOf(3, 2) }
func (f funcOracle) GapsContaining(point []uint64) []dyadic.Box { return f(point) }
func (f funcOracle) AllGaps() []dyadic.Box                      { return f(nil) }

// malformed is a box that fails validation (a component deeper than its
// dimension).
var malformed = dyadic.Box{dyadic.Interval{Bits: 5, Len: 3}, dyadic.Lambda, dyadic.Lambda}

func TestMalformedOracleBoxesRejected(t *testing.T) {
	malformedOracleBoxesRejected(t, plainRuns)
}

func malformedOracleBoxesRejected(t *testing.T, runs []Options) {
	o := funcOracle(func([]uint64) []dyadic.Box { return []dyadic.Box{malformed} })
	for _, opts := range runs {
		if _, err := Run(o, opts); err == nil || !strings.Contains(err.Error(), "invalid gap box") {
			t.Errorf("%v accepted a malformed gap box: %v", opts.Mode, err)
		}
	}
}

// TestLazyLoadFailuresNameTheCause: everything that can go wrong while a
// unit box is settled — a hostile oracle, a spent budget, a cancelled
// context — ends the run with an error that names it, in the plain and in
// the lifted space alike: the checks are the same code (the lifted arm
// runs from lb_test.go).
func TestLazyLoadFailuresNameTheCause(t *testing.T) {
	lazyLoadFailuresNameTheCause(t, []Options{{Mode: Reloaded}})
}

func lazyLoadFailuresNameTheCause(t *testing.T, runs []Options) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	origin := dyadic.MustParseBox("00,00,00")
	hard := MustBoxOracle(depthsOf(3, 2), boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,1", "1,λ,0"))
	for _, c := range []struct {
		name string
		o    Oracle
		opts Options
		want string
	}{
		{"malformed gap", funcOracle(func([]uint64) []dyadic.Box { return []dyadic.Box{malformed} }),
			Options{}, "invalid gap box"},
		// A fixed valid box: right for the first probe, wrong ever after.
		{"no box contains the point", funcOracle(func([]uint64) []dyadic.Box { return []dyadic.Box{origin} }),
			Options{}, "oracle contract violation"},
		// The same box, and the probe point rewritten to sit inside it. The
		// oracle rewrites its own copy: the engine checks the answer against
		// the unit it settles, and the second probe's known box does not
		// contain that. (It used to pass as "no progress".)
		{"only known boxes", funcOracle(func(point []uint64) []dyadic.Box {
			clear(point)
			return []dyadic.Box{origin}
		}), Options{}, "oracle contract violation"},
		{"resolution budget", hard, Options{MaxResolutions: 1}, "resolution budget exhausted"},
		{"cancelled context", hard, Options{Context: cancelled}, context.Canceled.Error()},
	} {
		for _, run := range runs {
			m := run.Mode
			c.opts.Mode, c.opts.Space = m, run.Space
			res, err := Run(c.o, c.opts)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s under %v: result %v, error %v; want an error naming %q", c.name, m, res, err, c.want)
			}
		}
	}
}

// scribblingOracle answers honestly for the point it is handed, then
// overwrites it.
type scribblingOracle struct{ *BoxOracle }

func (s scribblingOracle) GapsContaining(point []uint64) []dyadic.Box {
	gaps := s.BoxOracle.GapsContaining(point)
	clear(point)
	return gaps
}

// TestOracleScribblingOnThePoint: the probe point is the oracle's to
// overwrite. The engine reports and checks against its own unit box, so an
// oracle that clears the point after answering honestly changes nothing:
// not the tuples (which used to come out as the cleared point), not the
// work.
func TestOracleScribblingOnThePoint(t *testing.T) {
	oracleScribblingOnThePoint(t, []Options{{Mode: Reloaded}})
}

func oracleScribblingOnThePoint(t *testing.T, runs []Options) {
	o := MustBoxOracle(depthsOf(3, 2), boxes("0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,1"))
	for _, run := range runs {
		m := run.Mode
		var streamed [][]uint64
		for _, stream := range []bool{false, true} {
			opts := run
			if stream {
				opts.OnOutput = func(tup []uint64) bool { streamed = append(streamed, slices.Clone(tup)); return true }
			}
			want, err := Run(o.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if stream {
				want.Tuples, streamed = streamed, nil
			}
			got, err := Run(scribblingOracle{o.Clone()}, opts)
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if stream {
				got.Tuples = streamed
			}
			if len(want.Tuples) == 0 || !reflect.DeepEqual(got.Tuples, want.Tuples) || got.Stats != want.Stats {
				t.Errorf("%v stream=%v: scribbled-on probes gave %v with %+v, honest ones %v with %+v",
					m, stream, got.Tuples, got.Stats, want.Tuples, want.Stats)
			}
		}
	}
}

// inconsistentOracle reports a different dimensionality than its depths.
type inconsistentOracle struct{}

func (inconsistentOracle) Dims() int                                  { return 3 }
func (inconsistentOracle) Depths() []uint8                            { return []uint8{2, 2} }
func (inconsistentOracle) GapsContaining(point []uint64) []dyadic.Box { return nil }
func (inconsistentOracle) AllGaps() []dyadic.Box                      { return nil }

func TestInconsistentOracleRejected(t *testing.T) {
	if _, err := Run(inconsistentOracle{}, Options{}); err == nil {
		t.Error("inconsistent oracle accepted")
	}
}
