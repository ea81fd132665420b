// Command bench is the repository's performance benchmark (see
// BENCHMARK.json and README.md in this directory). It generates seeded
// load, drives the real cmd/tetrisd binary over loopback TCP with two
// closed-loop clients and reports the end-to-end metrics; with -trace 1
// it instead replays the same ops in-process down a ladder of public
// entry points and reports the per-layer metrics.
//
//	bash bench/run.sh --workload prepared_star --seed 1 --seconds 26 --trace 0
//	bash bench/run.sh -seed 1                 # all four workloads
//	bash bench/run.sh -seed 1 -trace 1        # the per-layer ladder
//	bash bench/run.sh -compare a.json b.json  # two -out files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

const (
	warmup = 2 * time.Second
	// setups is how many times set-up is timed per run; setup_s is their
	// median.
	setups = 9
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed    int64        `json:"seed"`
	Trace   int          `json:"trace"`
	Seconds int          `json:"seconds"`
	Runs    []*runReport `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "workload to run (default: all of "+fmt.Sprint(workloadNames)+")")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 26, "length of the measured window of an untraced run")
	trace := fs.Int("trace", 0, "1 = the traced in-process ladder (per-layer metrics); 0 = the real daemon (end-to-end metrics)")
	out := fs.String("out", "", "also write the full results to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments")
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tetrisd, err := buildDaemon(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}
	result := resultFile{Seed: *seed, Trace: *trace, Seconds: *seconds}
	for _, name := range names {
		w, err := generate(name, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		var rep *runReport
		if *trace == 1 {
			rep, err = runLadder(w, *seed, ladderConfig{
				tetrisd: tetrisd,
				scratch: scratchDir(root),
				outDir:  filepath.Join(root, "bench", "out"),
			})
		} else {
			rep, err = runE2E(w, *seed, e2eConfig{
				tetrisd: tetrisd,
				scratch: scratchDir(root),
				warmup:  warmup,
				window:  time.Duration(*seconds) * time.Second,
				setups:  setups,
			})
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, rep)
		result.Runs = append(result.Runs, rep)
	}
	if *out != "" {
		data, err := json.MarshalIndent(result, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	// The last line of standard output is the result the driver reads.
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, rep := range result.Runs {
		last.Correct = last.Correct && rep.Correct
		last.Attempted += rep.Attempted
		last.Failed += rep.Failed
		for name, m := range rep.Metrics {
			if len(result.Runs) > 1 {
				name = rep.Workload + "." + name
			}
			last.Metrics[name] = m
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !last.Correct {
		return 1
	}
	return 0
}

// printReport prints every metric of a run by name with its unit.
func printReport(w io.Writer, rep *runReport) {
	fmt.Fprintf(w, "== %s  seed %d  attempted %d  failed %d  fail_ratio %.6f  correct %v\n",
		rep.Workload, rep.Seed, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Correct)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, note := range rep.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

// scratchDir is where binaries and data directories live: inside the
// checkout, on whatever disk the checkout is on.
func scratchDir(root string) string { return filepath.Join(root, ".bench_build") }

// findRoot locates the repository the benchmark measures: the nearest
// directory, from the working directory upwards, that holds cmd/tetrisd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tetrisd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/tetrisd above the working directory: run from the repository")
		}
		dir = parent
	}
}

// buildDaemon builds the program under test from source, once per run;
// the go build cache makes every build after the first a no-op.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(scratchDir(root), "bin", "tetrisd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tetrisd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tetrisd: %v\n%s", err, out)
	}
	return bin, nil
}
