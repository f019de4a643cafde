// Command benchgate compares two kernel-benchmark runs and fails on
// regressions, playing benchstat's role in CI without requiring a
// network install: it parses `go test -bench` output (or a bench-report
// JSON), aggregates repeated runs per benchmark by median, prints a
// benchstat-style delta table, and exits non-zero when a gated metric
// regresses beyond its noise threshold.
//
// Two kinds of gate exist because their noise characteristics differ:
//
//   - time (ns/op): meaningful only between runs on the same machine
//     (CI measures the PR's merge base and head on one runner); gated at
//     -threshold percent (default 10).
//   - memory (allocs/op and B/op): machine independent and nearly
//     deterministic, so both are gated even against a committed baseline
//     from another machine, at -alloc-threshold percent (default 5) plus
//     a small absolute slack (2 allocs, 64 bytes).
//
// Usage:
//
//	benchgate -old base.txt -new head.txt              # full gate
//	benchgate -old bench/KERNEL_BASELINE.json -new head.txt -allocs-only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark's aggregated metrics over repeated runs.
type sample struct {
	name   string
	values map[string][]float64 // unit -> one value per run
}

func (s *sample) median(unit string) (float64, bool) {
	v := append([]float64(nil), s.values[unit]...)
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

// parseText extracts benchmark results from `go test -bench` output.
func parseText(text string) map[string]*sample {
	out := map[string]*sample{}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := out[name]
		if s == nil {
			s = &sample{name: name, values: map[string][]float64{}}
			out[name] = s
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			s.values[fields[i+1]] = append(s.values[fields[i+1]], v)
		}
	}
	return out
}

// jsonBench mirrors cmd/bench-report's benchmark entry (and the kernel
// baseline file), so a committed JSON baseline gates directly.
type jsonBench struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// parseJSON reads either a bare benchmark array or an object with a
// top-level "kernel" or "benchmarks" array (the bench-report layout).
func parseJSON(data []byte) (map[string]*sample, error) {
	var arr []jsonBench
	if err := json.Unmarshal(data, &arr); err != nil {
		var rep struct {
			Kernel     []jsonBench `json:"kernel"`
			Benchmarks []jsonBench `json:"benchmarks"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, err
		}
		arr = append(rep.Kernel, rep.Benchmarks...)
	}
	out := map[string]*sample{}
	for _, b := range arr {
		s := out[b.Name]
		if s == nil {
			s = &sample{name: b.Name, values: map[string][]float64{}}
			out[b.Name] = s
		}
		for unit, v := range b.Metrics {
			s.values[unit] = append(s.values[unit], v)
		}
	}
	return out, nil
}

func load(path string) (map[string]*sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := strings.TrimSpace(string(data))
	if strings.HasPrefix(t, "{") || strings.HasPrefix(t, "[") {
		return parseJSON(data)
	}
	return parseText(string(data)), nil
}

func main() {
	var (
		oldPath    = flag.String("old", "", "baseline run: go test -bench output or bench-report JSON")
		newPath    = flag.String("new", "", "candidate run: go test -bench output or bench-report JSON")
		threshold  = flag.Float64("threshold", 10, "allowed ns/op regression in percent (same-machine runs)")
		allocSlack = flag.Float64("alloc-threshold", 5, "allowed allocs/op and B/op regression in percent (plus 2 allocs or 64 B absolute)")
		allocsOnly = flag.Bool("allocs-only", false, "gate only allocs/op and B/op (baseline from a different machine)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		os.Exit(2)
	}
	oldS, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newS, err := load(*newPath)
	if err != nil {
		fatal(err)
	}

	failures := gate(os.Stdout, oldS, newS, *threshold, *allocSlack, *allocsOnly)
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "\nbenchgate: FAIL")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: ok")
}

// memSlack is the absolute slack of each memory gate on top of its
// percentage: a couple of allocations, or the bytes of one small one.
var memSlack = map[string]float64{"allocs/op": 2, "B/op": 64}

// gate prints the delta table of newS against oldS to w and returns one
// message per gated regression: ns/op beyond threshold percent (unless
// allocsOnly), allocs/op and B/op beyond allocSlack percent plus memSlack,
// and baseline benchmarks missing from the new run.
func gate(w io.Writer, oldS, newS map[string]*sample, threshold, allocSlack float64, allocsOnly bool) []string {
	names := make([]string, 0, len(newS))
	for name := range newS {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	// A benchmark that exists in the baseline but not in the candidate
	// run would otherwise pass the gate vacuously — renames and removals
	// must update the committed baseline in the same change.
	for name, s := range oldS {
		if newS[name] != nil {
			continue
		}
		if len(s.values["ns/op"]) > 0 || len(s.values["allocs/op"]) > 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: present in baseline but missing from the new run (rename/removal must refresh the baseline)", name))
		}
	}
	fmt.Fprintf(w, "%-28s %-10s %14s %14s %8s\n", "benchmark", "unit", "old", "new", "delta")
	for _, name := range names {
		ns := newS[name]
		os_, ok := oldS[name]
		if !ok {
			fmt.Fprintf(w, "%-28s %-10s %14s %14s %8s\n", name, "-", "(new)", "-", "-")
			continue
		}
		units := make([]string, 0, len(ns.values))
		for u := range ns.values {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, unit := range units {
			nv, _ := ns.median(unit)
			ov, ok := os_.median(unit)
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
				if !allocsOnly && nv > ov*(1+threshold/100) {
					failures = append(failures, fmt.Sprintf(
						"%s: ns/op regressed %.1f%% (%.0f -> %.0f, threshold %.0f%%)",
						name, delta, ov, nv, threshold))
				}
			case "allocs/op", "B/op":
				if nv > ov*(1+allocSlack/100)+memSlack[unit] {
					failures = append(failures, fmt.Sprintf(
						"%s: %s regressed %.1f%% (%.0f -> %.0f)",
						name, unit, delta, ov, nv))
				}
			}
		}
	}
	return failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
