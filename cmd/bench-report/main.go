// Command bench-report runs the repository's benchmark harness
// (bench_test.go, ablation_test.go) through `go test -bench`, runs a
// small fixed-seed generated-scenario corpus for accuracy headline
// metrics (worst-case error, CI coverage rate), and emits a
// machine-readable BENCH_<date>.json, so the performance and accuracy
// trajectory of the reproduction is recorded per change instead of
// scrolling away in CI logs.
//
// Its gate mode compares two kernel-benchmark runs and fails on
// regressions, playing benchstat's role in CI without a network install:
// it reads `go test -bench` output or a bench-report JSON, takes the
// median of repeated runs per benchmark, prints a benchstat-style delta
// table, and exits 1 when ns/op regresses beyond 10% or allocs/op or
// B/op beyond 5% plus 2 allocs or 64 bytes. -allocs-only skips the
// ns/op gate, for a baseline measured on another machine.
//
// Usage:
//
//	bench-report                       # run every benchmark once, write BENCH_<date>.json
//	bench-report -bench 'Fig9|Ablation' -benchtime 2x
//	bench-report -corpus 25            # size the corpus section (0 skips it)
//	go test -run '^$' -bench . . | bench-report -in -   # parse an existing run
//	bench-report gate -old base.txt -new head.txt       # full gate
//	bench-report gate -old bench/KERNEL_BASELINE.json -new head.txt -allocs-only
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taskpoint"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix or the
	// "-procs" suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix of the run (0 if absent).
	Procs int `json:"procs,omitempty"`
	// Iterations is b.N.
	Iterations int `json:"iterations"`
	// Metrics maps unit to value: "ns/op" plus every b.ReportMetric
	// unit (err_pct, speedup_x, ci_rel_width, ...).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the file layout of BENCH_<date>.json.
type Report struct {
	// Generated is the RFC 3339 timestamp of the run.
	Generated string `json:"generated"`
	// GoVersion and GOOS/GOARCH identify the toolchain and host.
	GoVersion string `json:"go_version"`
	Platform  string `json:"platform"`
	// Command is the go test invocation the results came from (empty
	// when parsed from -in).
	Command string `json:"command,omitempty"`
	// Benchmarks are the parsed results in output order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Kernel holds the simulation-kernel microbenchmarks (internal/sim,
	// internal/cpu, internal/mem) — host-throughput metrics (instr/s,
	// ns/op, allocs/op) tracking the simulator hot path itself, as
	// opposed to the paper-artefact metrics above. Empty when -kernel ""
	// or in -in parse mode.
	Kernel []Benchmark `json:"kernel,omitempty"`
	// Corpus summarises a fixed-seed generated-scenario accuracy corpus
	// (nil when -corpus 0 or in -in parse mode).
	Corpus *CorpusReport `json:"corpus,omitempty"`
}

// CorpusReport is the corpus section of the report: the campaign shape
// and the per-policy accuracy summaries (mean and worst-case error,
// speedup, CI coverage).
type CorpusReport struct {
	Scenarios int                      `json:"scenarios"`
	Seed      uint64                   `json:"seed"`
	Policies  []taskpoint.SweepSummary `json:"policies"`
}

// runCorpus runs the fixed-seed corpus as the sweep it expands into and
// folds it into the report section.
func runCorpus(ctx context.Context, n, workers int) (*CorpusReport, error) {
	// Normalized fills the defaulted fields, so the report records the
	// seed the corpus actually ran under.
	spec := taskpoint.DefaultCorpus(n).Normalized()
	sw, err := spec.SweepSpec()
	if err != nil {
		return nil, err
	}
	eng, err := taskpoint.NewSweep(sw, workers)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench-report: running %d-scenario accuracy corpus\n", n)
	recs, err := eng.RunContext(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	return &CorpusReport{
		Scenarios: spec.Scenarios,
		Seed:      spec.Seed,
		Policies:  taskpoint.SummarizeSweep(recs),
	}, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gate" {
		os.Exit(runGate(os.Args[2:]))
	}
	var (
		benchRe   = flag.String("bench", ".", "benchmark regexp passed to go test -bench")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value")
		timeout   = flag.String("timeout", "30m", "go test -timeout value")
		outPath   = flag.String("out", "", "output path; default BENCH_<date>.json")
		inPath    = flag.String("in", "", "parse an existing go test -bench output file instead of running (\"-\" = stdin)")
		corpusN   = flag.Int("corpus", 10, "scenarios in the fixed-seed accuracy corpus section (0 skips it)")
		workers   = flag.Int("workers", runtime.NumCPU(), "concurrent corpus simulations")
		kernelRe  = flag.String("kernel", "Kernel", "kernel-microbenchmark regexp run over the simulator packages (\"\" skips the section)")
	)
	flag.Parse()

	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Platform:  runtime.GOOS + "/" + runtime.GOARCH,
	}

	var text []byte
	var err error
	switch {
	case *inPath == "-":
		text, err = io.ReadAll(os.Stdin)
	case *inPath != "":
		text, err = os.ReadFile(*inPath)
	default:
		args := []string{"test", "-run", "^$", "-bench", *benchRe,
			"-benchtime", *benchtime, "-timeout", *timeout, *pkg}
		rep.Command = "go " + strings.Join(args, " ")
		fmt.Fprintln(os.Stderr, "bench-report:", rep.Command)
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(&out, os.Stderr)
		err = cmd.Run()
		text = out.Bytes()
	}
	if err != nil {
		fatal(err)
	}

	rep.Benchmarks = ParseBenchOutput(string(text))
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results found"))
	}

	// The kernel section measures the simulator hot path itself
	// (instructions simulated per host second, allocations per run), so
	// BENCH_<date>.json records a kernel-throughput trajectory alongside
	// the accuracy metrics.
	if *kernelRe != "" && *inPath == "" {
		args := []string{"test", "-run", "^$", "-bench", *kernelRe,
			"-benchtime", *benchtime, "-timeout", *timeout,
			"./internal/sim", "./internal/cpu", "./internal/mem"}
		fmt.Fprintln(os.Stderr, "bench-report: go "+strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(&out, os.Stderr)
		if err := cmd.Run(); err != nil {
			fatal(err)
		}
		rep.Kernel = ParseBenchOutput(out.String())
		if len(rep.Kernel) == 0 {
			fatal(fmt.Errorf("no kernel benchmark results matched %q", *kernelRe))
		}
	}

	// The corpus section runs in-process; parse-only invocations (-in)
	// summarise a past run and get no new corpus numbers. Ctrl-C cancels
	// the corpus simulations promptly.
	if *corpusN > 0 && *inPath == "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		rep.Corpus, err = runCorpus(ctx, *corpusN, *workers)
		stop()
		if err != nil {
			fatal(err)
		}
	}

	path := *outPath
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if err := writeReport(path, rep); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench-report: wrote %d benchmarks to %s\n", len(rep.Benchmarks), path)
}

// writeReport writes rep to path as indented JSON, the layout the gate
// mode reads back.
func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ParseBenchOutput extracts benchmark results from `go test -bench`
// output. A result line is
//
//	BenchmarkName-8   3   123456 ns/op   1.5 err_pct   2.0 speedup_x
//
// — the name, the iteration count, then (value, unit) pairs. Non-result
// lines (goos/pkg headers, PASS, logs) are skipped.
func ParseBenchOutput(text string) []Benchmark {
	var out []Benchmark
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		procs := 0
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				procs = p
				name = name[:i]
			}
		}
		b := Benchmark{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // malformed tail; keep what parsed
			}
			b.Metrics[fields[i+1]] = v
		}
		if len(b.Metrics) > 0 {
			out = append(out, b)
		}
	}
	// Deterministic order regardless of -shuffle: by name, then procs.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Procs < out[j].Procs
	})
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-report:", err)
	os.Exit(1)
}
