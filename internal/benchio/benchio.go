// Package benchio records benchmark results as a machine-readable
// performance trajectory. Every run writes BENCH_tetris.json — one entry
// per benchmark with ns/op, allocs/op, bytes/op and resolutions/op (the
// paper's cost measure, Lemma 4.5) — so CI and successive PRs can diff
// performance instead of eyeballing test -bench output.
//
// Two producers feed the same format:
//
//   - cmd/bench runs the canonical Suite via testing.Benchmark and is the
//     way to regenerate the committed BENCH_tetris.json;
//   - the benchmarks in the repository root call Begin/End, so any
//     `go test -bench=…` run with the BENCH_OUT environment variable set
//     writes the entries it measured to that path.
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Entry is the measurement of one benchmark.
type Entry struct {
	// Name is the benchmark name without the "Benchmark" prefix, e.g.
	// "Table1Acyclic/N=750".
	Name string `json:"name"`
	// N is the iteration count the numbers were averaged over.
	N int `json:"n"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp float64 `json:"bytes_per_op"`
	// ResolutionsPerOp is the number of geometric resolutions one
	// operation performs, when the benchmark reports it (0 otherwise).
	// Resolutions are deterministic for a fixed workload and plan, so this
	// column compares across machine classes; the timing columns do not.
	ResolutionsPerOp float64 `json:"resolutions_per_op,omitempty"`
	// SkeletonCallsPerOp is the number of TetrisSkeleton invocations one
	// sequential operation makes (0 when not reported, and for parallel
	// runs, whose donation re-entries depend on scheduling): the steps
	// spent per resolution, as deterministic as the resolutions
	// themselves, and held by the same `cmd/bench -gate`.
	SkeletonCallsPerOp float64 `json:"skeleton_calls_per_op,omitempty"`
	// IndexBuildsPerOp is the number of index constructions one operation
	// performs, when the benchmark reports it (0 otherwise, and absent
	// from the JSON). For the Recovery series it is deterministic — the
	// same image yields the same build count on any machine — which is
	// what `cmd/bench -gate-builds` keys on: the committed
	// Recovery/segment entry records 0, pinning rebuild-free recovery.
	IndexBuildsPerOp float64 `json:"index_builds_per_op,omitempty"`
	// Balance is the max/mean worker resolution share of a parallel run
	// (core.Stats.MaxWorkerResolutions / (Resolutions/ParallelWorkers)):
	// 1.0 is a perfectly balanced run, ParallelWorkers means one worker
	// did everything. 0 when the benchmark is sequential or does not
	// report it. Like resolutions it is a work-distribution measure, not
	// a timing, so it compares across machine classes.
	Balance float64 `json:"balance,omitempty"`
	// GoMaxProcs and NumCPU record the scheduler width the entry was
	// measured under — without them a workers=8 number from a 2-core
	// box would silently poison the parallel-speedup trajectory.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// MachineClass labels the hardware class of the run (see
	// MachineClass()). Entries from different classes are kept as
	// separate series: Set never overwrites one class's measurement
	// with another's, and cmd/bench only prints timing ratios within a
	// class.
	MachineClass string `json:"machine_class,omitempty"`
}

// ClassEnvVar overrides the derived machine-class label, for fleets
// whose hardware differs in ways GOOS/GOARCH/core count cannot see.
const ClassEnvVar = "BENCH_MACHINE_CLASS"

// MachineClass returns the label identifying the hardware class of this
// process: the BENCH_MACHINE_CLASS environment variable when set,
// otherwise "<goos>-<goarch>-c<NumCPU>".
func MachineClass() string {
	if c := os.Getenv(ClassEnvVar); c != "" {
		return c
	}
	return fmt.Sprintf("%s-%s-c%d", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}

// stamp fills the machine-environment columns of an entry in place.
func stamp(e *Entry) {
	e.GoMaxProcs = runtime.GOMAXPROCS(0)
	e.NumCPU = runtime.NumCPU()
	e.MachineClass = MachineClass()
}

// Report is the trajectory file: current entries plus, optionally, the
// entries of a reference run to compare against (the committed file keeps
// the go.mod-only pre-optimization numbers there).
type Report struct {
	GoVersion string  `json:"go_version"`
	GoOS      string  `json:"goos"`
	GoArch    string  `json:"goarch"`
	Entries   []Entry `json:"entries"`
	Baseline  []Entry `json:"baseline,omitempty"`
}

// NewReport returns an empty report stamped with the build environment.
func NewReport() *Report {
	return &Report{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
	}
}

// Set inserts or replaces the entry with the same name and machine
// class, keeping entries sorted so the JSON diffs cleanly. Entries
// measured on a different machine class are preserved as a separate
// series; an existing unlabeled entry (written before machine classes
// were recorded) is upgraded in place by whichever class measures the
// name first.
func (r *Report) Set(e Entry) {
	for i := range r.Entries {
		if r.Entries[i].Name == e.Name &&
			(r.Entries[i].MachineClass == e.MachineClass || r.Entries[i].MachineClass == "") {
			r.Entries[i] = e
			return
		}
	}
	r.Entries = append(r.Entries, e)
	sort.Slice(r.Entries, func(i, j int) bool {
		if r.Entries[i].Name != r.Entries[j].Name {
			return r.Entries[i].Name < r.Entries[j].Name
		}
		return r.Entries[i].MachineClass < r.Entries[j].MachineClass
	})
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// EnvVar names the environment variable that, when set, makes Begin/End
// write the collected entries to the named file after every benchmark.
const EnvVar = "BENCH_OUT"

var (
	collectMu sync.Mutex
	collected *Report
)

// Obs is an in-flight observation of one benchmark invocation.
type Obs struct {
	name         string
	startMallocs uint64
	startBytes   uint64
}

// Begin starts observing a benchmark body. Call it first inside the
// benchmark (it enables ReportAllocs), run the b.N loop, then call End.
func Begin(b *testing.B) *Obs {
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Obs{
		name:         strings.TrimPrefix(b.Name(), "Benchmark"),
		startMallocs: ms.Mallocs,
		startBytes:   ms.TotalAlloc,
	}
}

// End finishes the observation and records the entry. The testing
// framework calls each benchmark several times with growing b.N; the
// record for a name is simply overwritten, so the final (largest-N)
// invocation wins. When the BENCH_OUT environment variable is set the
// accumulated report is rewritten to that path on every End, which is
// what lets a plain `go test -bench=… -benchtime=1x` run exercise the
// writer end to end.
func (o *Obs) End(b *testing.B, m Metrics) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := b.N
	e := Entry{
		Name:               o.name,
		N:                  n,
		NsPerOp:            float64(b.Elapsed().Nanoseconds()) / float64(n),
		AllocsPerOp:        float64(ms.Mallocs-o.startMallocs) / float64(n),
		BytesPerOp:         float64(ms.TotalAlloc-o.startBytes) / float64(n),
		ResolutionsPerOp:   m.Resolutions,
		SkeletonCallsPerOp: m.SkeletonCalls,
		IndexBuildsPerOp:   m.IndexBuilds,
		Balance:            m.Balance,
	}
	stamp(&e)
	collectMu.Lock()
	defer collectMu.Unlock()
	if collected == nil {
		collected = NewReport()
	}
	collected.Set(e)
	if path := os.Getenv(EnvVar); path != "" {
		if err := collected.WriteFile(path); err != nil {
			b.Logf("benchio: writing %s: %v", path, err)
		}
	}
}
