package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestGeneratorsPinned pins, for seed 1, what each workload's reference
// join expects, and that another seed gives other inputs where the seed
// is meant to matter.
func TestGeneratorsPinned(t *testing.T) {
	last := func(o *op) int { return o.steps[len(o.steps)-1].want.tuples }
	gen := func(name string, seed int64) *workload {
		w, err := generate(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if got := last(&gen("prepared_star", 1).ops[0][0]); got != 190 {
		t.Errorf("star triangle: %d tuples, want 190", got)
	}
	if got := last(&gen("view_stream", 1).ops[0][0]); got != 4096 {
		t.Errorf("dense view: %d tuples, want 4096", got)
	}

	adhoc := gen("adhoc_reloaded", 1)
	for c, want := range []int{38} {
		if len(adhoc.ops[c]) != adhocShapes {
			t.Fatalf("adhoc client %d: %d shapes, want %d", c, len(adhoc.ops[c]), adhocShapes)
		}
		sum := 0
		for i := range adhoc.ops[c] {
			sum += last(&adhoc.ops[c][i])
		}
		if sum != want {
			t.Errorf("adhoc client %d: %d tuples over its cycle, want %d", c, sum, want)
		}
	}
	seen := map[string]bool{}
	for c := range adhoc.ops {
		for _, o := range adhoc.ops[c] {
			if seen[o.query] {
				t.Fatalf("shape %q appears twice across the clients' cycles", o.query)
			}
			seen[o.query] = true
		}
	}

	write := gen("write_refresh", 1)
	for c, want := range []int{54, 67} {
		if got := write.baseAnswer(c).tuples; got != want {
			t.Errorf("write_refresh client %d: base path-3 has %d tuples, want %d", c, got, want)
		}
		for _, o := range write.ops[c] {
			if o.delta.tuples < 1 {
				t.Fatalf("write_refresh client %d: tuple %v changes nothing", c, o.tuple)
			}
		}
	}

	if reflect.DeepEqual(adhoc.ops, gen("adhoc_reloaded", 2).ops) {
		t.Error("seed 2 gives the same adhoc_reloaded pool as seed 1")
	}
	if reflect.DeepEqual(write.rels, gen("write_refresh", 2).rels) {
		t.Error("seed 2 gives the same write_refresh relations as seed 1")
	}
	if !reflect.DeepEqual(adhoc.ops, gen("adhoc_reloaded", 1).ops) {
		t.Error("seed 1 does not repeat")
	}
}

// TestBenchmarkJSONMatches fails when BENCHMARK.json and the program
// disagree on the workload names or on any metric's name, unit,
// direction or bound.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []decl   `json:"workloads"`
		EndToEnd  []decl   `json:"end_to_end"`
		PerLayer  []decl   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, program has %v", names, workloadNames)
	}
	check := func(kind string, declared []decl, defs []metricDef) {
		want := map[string]decl{}
		for _, d := range defs {
			want[d.name] = decl{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound}
		}
		for _, d := range declared {
			if w, ok := want[d.Name]; !ok {
				t.Errorf("%s metric %s is declared but never emitted", kind, d.Name)
			} else if d != w {
				t.Errorf("%s metric %s: declared %+v, program has %+v", kind, d.Name, d, w)
			}
			delete(want, d.Name)
		}
		for name := range want {
			t.Errorf("%s metric %s is emitted but not declared", kind, name)
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd)
	check("per-layer", file.PerLayer, perLayer)
}

// checkEmitted requires exactly the declared metrics, each once with its
// unit and a finite value.
func checkEmitted(t *testing.T, rep *runReport, defs []metricDef) {
	t.Helper()
	for _, note := range rep.Notes {
		t.Log(rep.Workload, "note:", note)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rep.Workload, rep.Correct, rep.Attempted, rep.Failed)
	}
	var got, want []string
	for name, m := range rep.Metrics {
		got = append(got, name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", rep.Workload, name, m.Value)
		}
	}
	for _, d := range defs {
		want = append(want, d.name)
		if m := rep.Metrics[d.name]; m.Unit != d.unit {
			t.Errorf("%s: %s has unit %q, want %q", rep.Workload, d.name, m.Unit, d.unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: emitted %v, want %v", rep.Workload, got, want)
	}
}

// TestSmoke runs every workload end to end against the real daemon with
// one-second windows, and the traced ladder with 8 ops per rung (which
// asserts that the rungs agree on resolutions and outputs).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns cmd/tetrisd")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	tetrisd, err := buildDaemon(root)
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	for _, name := range workloadNames {
		w, err := generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runE2E(w, 1, e2eConfig{
			tetrisd: tetrisd, scratch: scratch,
			warmup: 200 * time.Millisecond, window: time.Second, setups: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEmitted(t, rep, endToEnd)
		for _, d := range endToEnd {
			if rep.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, d.name, rep.Metrics[d.name].Value)
			}
		}

		rep, err = runLadder(w, 1, ladderConfig{tetrisd: tetrisd, scratch: scratch, outDir: scratch, ops: 8})
		if err != nil {
			t.Fatalf("%s ladder: %v", name, err)
		}
		checkEmitted(t, rep, perLayer)
		if _, err := os.Stat(filepath.Join(scratch, "trace-"+name+".json")); err != nil {
			t.Error(err)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops, res float64) *resultFile {
		return &resultFile{Runs: []*runReport{{Workload: "w", Metrics: map[string]metric{
			"ops_per_s": {ops, "op/s"}, "core.resolutions_per_op": {res, "count"},
		}}}}
	}
	e2e := []metricDef{{name: "ops_per_s", better: "higher", bound: 0.10}}
	layer := []metricDef{{name: "core.resolutions_per_op", better: "lower", exact: true}}
	if code := compareResults(mk(100, 5), mk(95, 5), e2e, io.Discard); code != 0 {
		t.Errorf("5%% fewer op/s is inside the bound, got exit %d", code)
	}
	if code := compareResults(mk(100, 5), mk(50, 5), e2e, io.Discard); code != 1 {
		t.Errorf("half the op/s is outside the bound, got exit %d", code)
	}
	if code := compareResults(mk(100, 5), mk(100, 5), layer, io.Discard); code != 0 {
		t.Errorf("equal exact counts must pass, got exit %d", code)
	}
	if code := compareResults(mk(100, 5), mk(100, 6), layer, io.Discard); code != 1 {
		t.Errorf("an exact count that differs must fail, got exit %d", code)
	}
}
