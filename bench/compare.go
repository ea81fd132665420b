package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per metric × workload, both values and their
// relative difference. End-to-end metrics are held to their bounds and
// exact per-layer counts to equality; it returns 1 when either fails.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResult(pathB); err == nil {
			defs := endToEnd
			if a.Trace == 1 {
				defs = perLayer
			}
			return compareResults(a, b, defs, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareResults(a, b *resultFile, defs []metricDef, stdout io.Writer) int {
	byName := map[string]*runReport{}
	for _, r := range b.Runs {
		byName[r.Workload] = r
	}
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-34s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "worse by", "verdict")
	for _, ra := range a.Runs {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, def := range defs {
			ma, okA := ra.Metrics[def.name]
			mb, okB := rb.Metrics[def.name]
			if !okA || !okB {
				fmt.Fprintf(stdout, "%-16s %-34s missing from one side\n", ra.Workload, def.name)
				bad++
				continue
			}
			worse := worseBy(def, ma.Value, mb.Value)
			verdict := ""
			switch {
			case def.bound > 0 && worse > def.bound:
				verdict = fmt.Sprintf("OUTSIDE bound %.0f%%", def.bound*100)
				bad++
			case def.bound > 0:
				verdict = fmt.Sprintf("inside bound %.0f%%", def.bound*100)
			case def.exact && ma.Value != mb.Value:
				verdict = "exact count DIFFERS"
				bad++
			case def.exact:
				verdict = "exact count equal"
			}
			fmt.Fprintf(stdout, "%-16s %-34s %14.4f %14.4f %+8.2f%%  %s\n",
				ra.Workload, def.name, ma.Value, mb.Value, worse*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d comparisons failed\n", bad)
		return 1
	}
	return 0
}
