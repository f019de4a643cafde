package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// The gate thresholds. Two kinds of gate exist because their noise
// differs:
//
//   - time (ns/op) is meaningful only between runs on the same machine
//     (CI measures the PR's merge base and head on one runner);
//   - memory (allocs/op and B/op) is machine independent and nearly
//     deterministic, so it is gated even against a committed baseline
//     from another machine, with a small absolute slack on top.
const (
	timeThreshold = 10 // allowed ns/op regression, percent
	memThreshold  = 5  // allowed allocs/op and B/op regression, percent, plus memSlack
)

// memSlack is the absolute slack of each memory gate on top of its
// percentage: a couple of allocations, or the bytes of one small one.
var memSlack = map[string]float64{"allocs/op": 2, "B/op": 64}

// runGate is the gate mode: it compares two kernel-benchmark runs and
// returns the exit status, 1 when a gated metric regressed.
func runGate(args []string) int {
	fs := flag.NewFlagSet("bench-report gate", flag.ExitOnError)
	oldPath := fs.String("old", "", "baseline run: go test -bench output or bench-report JSON")
	newPath := fs.String("new", "", "candidate run: go test -bench output or bench-report JSON")
	allocsOnly := fs.Bool("allocs-only", false, "gate only allocs/op and B/op (baseline from a different machine)")
	fs.Parse(args)
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "bench-report gate: -old and -new are required")
		return 2
	}
	oldRuns, err := loadRuns(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRuns, err := loadRuns(*newPath)
	if err != nil {
		fatal(err)
	}
	failures := gate(os.Stdout, oldRuns, newRuns, *allocsOnly)
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "\nbench-report gate: FAIL")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		return 1
	}
	fmt.Println("\nbench-report gate: ok")
	return 0
}

// metrics holds one benchmark's values per unit, one per repeated run.
type metrics map[string][]float64

// loadRuns reads one gate input — a bench-report JSON file (its kernel
// and benchmarks sections) or `go test -bench` text — and groups its
// results by benchmark name.
func loadRuns(path string) (map[string]metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bs []Benchmark
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		bs = append(rep.Kernel, rep.Benchmarks...)
	} else {
		bs = ParseBenchOutput(string(data))
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	runs := map[string]metrics{}
	for _, b := range bs {
		m := runs[b.Name]
		if m == nil {
			m = metrics{}
			runs[b.Name] = m
		}
		for unit, v := range b.Metrics {
			m[unit] = append(m[unit], v)
		}
	}
	return runs, nil
}

// median is the median of unit's values; ok is false when there are none.
func (m metrics) median(unit string) (med float64, ok bool) {
	v := append([]float64(nil), m[unit]...)
	if len(v) == 0 {
		return 0, false
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2], true
	}
	return (v[n/2-1] + v[n/2]) / 2, true
}

// gate prints the delta table of newRuns against oldRuns to w and
// returns one message per gated regression: ns/op beyond timeThreshold
// (unless allocsOnly), allocs/op and B/op beyond memThreshold plus
// memSlack, and baseline benchmarks missing from the new run.
func gate(w io.Writer, oldRuns, newRuns map[string]metrics, allocsOnly bool) []string {
	names := make([]string, 0, len(newRuns))
	for name := range newRuns {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	// A benchmark that exists in the baseline but not in the candidate
	// run would otherwise pass the gate vacuously — renames and removals
	// must update the committed baseline in the same change.
	for name, m := range oldRuns {
		if newRuns[name] != nil {
			continue
		}
		if len(m["ns/op"]) > 0 || len(m["allocs/op"]) > 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: present in baseline but missing from the new run (rename/removal must refresh the baseline)", name))
		}
	}
	fmt.Fprintf(w, "%-28s %-10s %14s %14s %8s\n", "benchmark", "unit", "old", "new", "delta")
	for _, name := range names {
		newM := newRuns[name]
		oldM, ok := oldRuns[name]
		if !ok {
			fmt.Fprintf(w, "%-28s %-10s %14s %14s %8s\n", name, "-", "(new)", "-", "-")
			continue
		}
		units := make([]string, 0, len(newM))
		for u := range newM {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, unit := range units {
			nv, _ := newM.median(unit)
			ov, ok := oldM.median(unit)
			if !ok {
				continue
			}
			delta := 0.0
			if ov != 0 {
				delta = (nv - ov) / ov * 100
			}
			fmt.Fprintf(w, "%-28s %-10s %14.2f %14.2f %+7.1f%%\n", name, unit, ov, nv, delta)
			switch unit {
			case "ns/op":
				if !allocsOnly && nv > ov*(1+timeThreshold/100.0) {
					failures = append(failures, fmt.Sprintf(
						"%s: ns/op regressed %.1f%% (%.0f -> %.0f, threshold %d%%)",
						name, delta, ov, nv, timeThreshold))
				}
			case "allocs/op", "B/op":
				if nv > ov*(1+memThreshold/100.0)+memSlack[unit] {
					failures = append(failures, fmt.Sprintf(
						"%s: %s regressed %.1f%% (%.0f -> %.0f)",
						name, unit, delta, ov, nv))
				}
			}
		}
	}
	return failures
}
