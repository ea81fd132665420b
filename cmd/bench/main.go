// Command bench runs the canonical benchmark suite (internal/benchio)
// and writes the performance trajectory file BENCH_tetris.json: ns/op,
// allocs/op, bytes/op, resolutions/op and skeleton calls/op per
// benchmark. It is the way to regenerate the committed trajectory after
// a performance-relevant change:
//
//	go run ./cmd/bench -o BENCH_tetris.json
//
// Passing -baseline keeps a reference run in the report (the committed
// file carries the pre-optimization go.mod-only numbers), and the tool
// prints the current/baseline ratio for entries present in both.
//
// Every entry is stamped with GOMAXPROCS, the CPU count and a machine
// class label (internal/benchio.MachineClass); entries from different
// classes are kept as separate series and timing ratios are only
// printed within a class. Resolution and skeleton-call counts are
// deterministic and machine-independent, which is what -gate keys on:
//
//	go run ./cmd/bench -bench '^PlannerSkew/' -o /tmp/gate.json -gate BENCH_tetris.json
//
// fails (exit 1) when any measured benchmark performs more than 5% more
// geometric resolutions per op, or more than 5% more skeleton calls per
// op, than the committed trajectory records — the CI regression gate for
// the planner's skewed-workload set and for the engine's steps per
// resolution.
//
// Two further gates complement it. -gate-time holds ns/op to the
// committed trajectory, but only within the recorded machine class
// (wall time does not compare across hardware); its slack defaults per
// class from the core count, fewer cores tolerating more noise. And
//
//	go run ./cmd/bench -bench '^Balance/' -o /tmp/balance.json -gate-balance 1.5
//
// runs the work-stealing balance series and fails unless, for every
// Balance/<family> pair, static sharding's max/mean worker resolution
// share is at least the given factor times the stealing share — the
// self-contained regression gate for the dynamic-splitting executor
// (both sides are measured in the same run, so no committed reference
// or machine-class match is needed).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"

	"tetrisjoin/internal/benchio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		benchRe  = flag.String("bench", ".", "regexp selecting suite benchmarks to run")
		out      = flag.String("o", "BENCH_tetris.json", "output report path")
		baseFile = flag.String("baseline", "", "previous report whose entries become the baseline section")
		merge    = flag.Bool("merge", false, "keep the output file's existing entries, overwriting only the benchmarks run (for adding a filtered series without re-running the whole suite)")
		gateFile = flag.String("gate", "", "committed trajectory to gate against: exit 1 if any measured benchmark's resolutions/op or skeleton calls/op exceeds its committed entry by more than -gate-slack")
		gateTol  = flag.Float64("gate-slack", 0.05, "fractional resolution or skeleton-call regression tolerated by -gate")
		gateTime = flag.String("gate-time", "", "committed trajectory to time-gate against: exit 1 if any measured benchmark's ns/op exceeds the committed entry of the SAME machine class by more than -gate-time-slack (entries with no same-class committed record are skipped)")
		timeTol  = flag.Float64("gate-time-slack", 0, "fractional ns/op regression tolerated by -gate-time; 0 picks a per-class default from the class's core count (fewer cores = noisier timings = more slack)")
		gateBal  = flag.Float64("gate-balance", 0, "balance-gate factor: for every Balance/<family> pair measured in this run, require static balance share >= factor × stealing share; exit 1 otherwise (0 disables)")
		gateBld  = flag.String("gate-builds", "", "committed trajectory to build-gate against: exit 1 if any measured Recovery/* benchmark's index_builds_per_op differs from the committed entry — build counts are deterministic, so the committed Recovery/segment value of 0 pins rebuild-free recovery exactly")
	)
	flag.Parse()

	filter, err := regexp.Compile(*benchRe)
	if err != nil {
		log.Fatalf("bad -bench regexp: %v", err)
	}

	var baseline []benchio.Entry
	if *baseFile != "" {
		prev, err := benchio.ReadFile(*baseFile)
		if err != nil {
			log.Fatalf("reading baseline: %v", err)
		}
		// A report that already carries a baseline keeps it, so passing
		// the previous BENCH_tetris.json preserves the original reference
		// across regenerations; a plain report contributes its entries.
		if len(prev.Baseline) > 0 {
			baseline = prev.Baseline
		} else {
			baseline = prev.Entries
		}
	}

	run := benchio.RunSuite(filter)
	rep := run
	if *merge {
		if prev, err := benchio.ReadFile(*out); err == nil {
			if len(baseline) == 0 {
				baseline = prev.Baseline
			}
			for _, e := range run.Entries {
				prev.Set(e)
			}
			prev.GoVersion, prev.GoOS, prev.GoArch = run.GoVersion, run.GoOS, run.GoArch
			rep = prev
		}
	}
	rep.Baseline = baseline
	if err := rep.WriteFile(*out); err != nil {
		log.Fatalf("writing %s: %v", *out, err)
	}

	// Timing ratios only make sense within a machine class; an entry
	// from a baseline written before classes were recorded (empty label)
	// is still matched so old trajectories stay comparable.
	base := map[string]benchio.Entry{}
	for _, e := range baseline {
		base[e.Name+"|"+e.MachineClass] = e
	}
	log.Printf("machine class %s", benchio.MachineClass())
	fmt.Fprintf(os.Stdout, "%-28s %14s %14s %12s\n", "benchmark", "ns/op", "allocs/op", "resolutions")
	for _, e := range rep.Entries {
		fmt.Fprintf(os.Stdout, "%-28s %14.0f %14.1f %12.0f\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.ResolutionsPerOp)
		b, ok := base[e.Name+"|"+e.MachineClass]
		if !ok {
			b, ok = base[e.Name+"|"]
		}
		if ok && e.NsPerOp > 0 && e.AllocsPerOp > 0 {
			fmt.Fprintf(os.Stdout, "%-28s %13.2fx %13.2fx\n", "  vs baseline", b.NsPerOp/e.NsPerOp, b.AllocsPerOp/e.AllocsPerOp)
		}
	}
	log.Printf("wrote %s (%d entries)", *out, len(rep.Entries))

	if *gateFile != "" {
		gate(run, *gateFile, *gateTol)
	}
	if *gateTime != "" {
		gateTiming(run, *gateTime, *timeTol)
	}
	if *gateBal > 0 {
		gateBalance(run, *gateBal)
	}
	if *gateBld != "" {
		gateBuilds(run, *gateBld)
	}
}

// gateBuilds holds the measured Recovery series' index-build counts to
// the committed trajectory exactly: unlike timings, the number of
// indexes a recovery path constructs is a deterministic function of the
// image, so any difference is a protocol change, not noise. In
// particular the committed Recovery/segment entry records 0 builds —
// this gate is what keeps segment-backed recovery rebuild-free in CI.
func gateBuilds(run *benchio.Report, path string) {
	ref, err := benchio.ReadFile(path)
	if err != nil {
		log.Fatalf("reading gate-builds trajectory: %v", err)
	}
	committed := map[string]float64{}
	for _, e := range ref.Entries {
		if strings.HasPrefix(e.Name, "Recovery/") {
			committed[e.Name] = e.IndexBuildsPerOp
		}
	}
	checked, failed := 0, 0
	for _, e := range run.Entries {
		if !strings.HasPrefix(e.Name, "Recovery/") {
			continue
		}
		want, ok := committed[e.Name]
		if !ok {
			log.Printf("gate-builds: %s has no committed entry; skipped", e.Name)
			continue
		}
		checked++
		if e.IndexBuildsPerOp != want {
			log.Printf("gate-builds FAIL %s: %.0f index builds/op vs committed %.0f",
				e.Name, e.IndexBuildsPerOp, want)
			failed++
		}
	}
	if checked == 0 {
		log.Fatalf("gate-builds: no measured Recovery/* benchmark has a committed entry in %s", path)
	}
	if failed > 0 {
		log.Fatalf("gate-builds: %d of %d recovery paths changed their index-build count", failed, checked)
	}
	log.Printf("gate-builds: %d recovery paths match the committed build counts exactly", checked)
}

// gate holds the measured run's deterministic work counts — resolutions
// and skeleton calls per op — to the committed trajectory: both are fixed
// by the workload, the plan and the engine, so any excess over the
// committed entry (beyond slack) is a real regression of the planner or
// of the engine's steps per resolution, not machine noise. When the
// committed file holds the same name for several machine classes the
// smallest count is the bar. Exits non-zero on the first failing report.
func gate(run *benchio.Report, path string, slack float64) {
	ref, err := benchio.ReadFile(path)
	if err != nil {
		log.Fatalf("reading gate trajectory: %v", err)
	}
	columns := []struct {
		name string
		of   func(benchio.Entry) float64
	}{
		{"resolutions/op", func(e benchio.Entry) float64 { return e.ResolutionsPerOp }},
		{"skeleton calls/op", func(e benchio.Entry) float64 { return e.SkeletonCallsPerOp }},
	}
	checked, failed := 0, 0
	for _, col := range columns {
		committed := map[string]float64{}
		for _, e := range ref.Entries {
			if v := col.of(e); v > 0 {
				if cur, ok := committed[e.Name]; !ok || v < cur {
					committed[e.Name] = v
				}
			}
		}
		for _, e := range run.Entries {
			got, want := col.of(e), committed[e.Name]
			if got <= 0 || want <= 0 {
				continue
			}
			checked++
			if got > want*(1+slack) {
				log.Printf("gate FAIL %s: %.0f %s vs committed %.0f (%+.1f%%, slack %.0f%%)",
					e.Name, got, col.name, want, 100*(got/want-1), 100*slack)
				failed++
			}
		}
	}
	if checked == 0 {
		log.Fatalf("gate: no measured benchmark has a committed resolutions entry in %s", path)
	}
	if failed > 0 {
		log.Fatalf("gate: %d of %d counts regressed past the committed trajectory", failed, checked)
	}
	log.Printf("gate: %d counts within %.0f%% of the committed trajectory", checked, 100*slack)
}

// classSlack picks the default ns/op tolerance for a machine class from
// its core count (the "-cN" suffix of derived class labels): small
// machines time noisily — a 1-core runner shares its only core with the
// GC and the OS — so they get more room; wide machines hold a tighter
// bar. Classes without a parsable core count get the middle default.
func classSlack(class string) float64 {
	i := strings.LastIndex(class, "-c")
	if i < 0 {
		return 0.5
	}
	cores, err := strconv.Atoi(class[i+2:])
	if err != nil || cores < 1 {
		return 0.5
	}
	switch {
	case cores == 1:
		return 0.6
	case cores <= 4:
		return 0.5
	default:
		return 0.4
	}
}

// gateTiming holds the measured run's ns/op to the committed trajectory
// — but, unlike the resolution gate, only within the recorded machine
// class: wall time is not comparable across hardware, so an entry whose
// class has no committed record is skipped (reported, not failed).
// slack 0 applies classSlack's per-class default.
func gateTiming(run *benchio.Report, path string, slack float64) {
	ref, err := benchio.ReadFile(path)
	if err != nil {
		log.Fatalf("reading gate-time trajectory: %v", err)
	}
	committed := map[string]float64{}
	for _, e := range ref.Entries {
		if e.NsPerOp > 0 && e.MachineClass != "" {
			committed[e.Name+"|"+e.MachineClass] = e.NsPerOp
		}
	}
	checked, skipped, failed := 0, 0, 0
	for _, e := range run.Entries {
		if e.NsPerOp <= 0 {
			continue
		}
		want, ok := committed[e.Name+"|"+e.MachineClass]
		if !ok {
			skipped++
			continue
		}
		tol := slack
		if tol == 0 {
			tol = classSlack(e.MachineClass)
		}
		checked++
		if e.NsPerOp > want*(1+tol) {
			log.Printf("gate-time FAIL %s [%s]: %.0f ns/op vs committed %.0f (%+.1f%%, slack %.0f%%)",
				e.Name, e.MachineClass, e.NsPerOp, want, 100*(e.NsPerOp/want-1), 100*tol)
			failed++
		}
	}
	if skipped > 0 {
		log.Printf("gate-time: %d entries have no committed timing for this machine class; skipped", skipped)
	}
	if failed > 0 {
		log.Fatalf("gate-time: %d of %d benchmarks regressed past the committed class timing", failed, checked)
	}
	log.Printf("gate-time: %d benchmarks within the class timing trajectory", checked)
}

// gateBalance checks the work-stealing executor's reason to exist: for
// every Balance/<family> static/stealing pair measured in THIS run (no
// committed reference needed — both sides ran on the same machine), the
// static max/mean worker share must be at least factor × the stealing
// share. Fails when no pair was measured, so a filter typo cannot pass
// the gate vacuously.
func gateBalance(run *benchio.Report, factor float64) {
	type pair struct{ static, stealing float64 }
	fams := map[string]*pair{}
	for _, e := range run.Entries {
		var fam string
		var static bool
		switch {
		case strings.HasPrefix(e.Name, "Balance/") && strings.HasSuffix(e.Name, "/static"):
			fam, static = strings.TrimSuffix(strings.TrimPrefix(e.Name, "Balance/"), "/static"), true
		case strings.HasPrefix(e.Name, "Balance/") && strings.HasSuffix(e.Name, "/stealing"):
			fam = strings.TrimSuffix(strings.TrimPrefix(e.Name, "Balance/"), "/stealing")
		default:
			continue
		}
		p := fams[fam]
		if p == nil {
			p = &pair{}
			fams[fam] = p
		}
		if static {
			p.static = e.Balance
		} else {
			p.stealing = e.Balance
		}
	}
	checked, failed := 0, 0
	for fam, p := range fams {
		if p.static <= 0 || p.stealing <= 0 {
			log.Printf("gate-balance: family %s missing a side (static=%.2f stealing=%.2f); skipped", fam, p.static, p.stealing)
			continue
		}
		checked++
		ratio := p.static / p.stealing
		if ratio < factor {
			log.Printf("gate-balance FAIL %s: static share %.2f / stealing share %.2f = %.2fx, want >= %.2fx",
				fam, p.static, p.stealing, ratio, factor)
			failed++
		} else {
			log.Printf("gate-balance: %s static %.2f vs stealing %.2f (%.2fx)", fam, p.static, p.stealing, ratio)
		}
	}
	if checked == 0 {
		log.Fatalf("gate-balance: no complete Balance/<family> static/stealing pair was measured")
	}
	if failed > 0 {
		log.Fatalf("gate-balance: %d of %d families below the %.2fx balance-improvement floor", failed, checked, factor)
	}
	log.Printf("gate-balance: %d families clear the %.2fx floor", checked, factor)
}
