// Command sweep runs a design-space campaign: the cartesian product of
// benchmarks × architectures × thread counts × sampling policies × seeds,
// sharded across a worker pool, streamed as JSONL and summarised like the
// per-thread-count averages of the paper's Figures 7-10.
//
// Campaigns are resumable: cells already present in the output file are
// skipped, so an interrupted sweep continues where it stopped.
//
// A generated accuracy-stress corpus is a sweep whose benchmark axis is
// drawn from the scenario generator (internal/gen/corpus): -corpus N draws
// N scenarios from the master seed (-seeds, default 42) and runs them on
// the corpus defaults (high-performance, 4 threads, lazy, periodic(64) and
// stratified(256)), which the dimension flags override.
//
// Usage:
//
//	sweep                              # built-in default campaign
//	sweep -spec campaign.json          # declarative spec from a file
//	sweep -benchmarks cholesky,knn -archs hp,lp -threads 2,8 \
//	      -policies lazy,periodic:250  # spec from flags
//	sweep -corpus 50 -out corpus.jsonl # 50 generated scenarios, per-policy summary
//	sweep -corpus 50 -print-spec       # list the drawn scenarios and exit
//	sweep -out run.jsonl -csv run.csv  # resume run.jsonl, export CSV
//	sweep -out -                       # stream JSONL to stdout (no resume)
//	sweep -print-spec                  # show the effective spec and exit
//	sweep -trace t.jsonl -debug-addr 127.0.0.1:6060  # observability
//
// A recorded trace is analyzed offline with obsq (cost attribution,
// critical path, cache economics); with -debug-addr the same report is
// served live at /debug/obs/campaign while the sweep runs.
//
// All progress and summary output goes to stderr (suppress with -quiet);
// stdout carries machine-parseable data only (-out -, -print-spec).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taskpoint/internal/arch"
	"taskpoint/internal/gen/corpus"
	"taskpoint/internal/obs"
	"taskpoint/internal/obs/query"
	"taskpoint/internal/sweep"
)

func main() {
	var f specFlags
	flag.StringVar(&f.specPath, "spec", "", "JSON sweep spec file (dimension flags override its fields)")
	flag.IntVar(&f.corpus, "corpus", 0, "draw this many generated scenarios as the benchmark axis (a single -seeds value is the draw's master seed)")
	flag.StringVar(&f.name, "name", "", "campaign name")
	flag.Float64Var(&f.scale, "scale", 0, "benchmark scale; 0 keeps the spec/default value")
	flag.StringVar(&f.benchmarks, "benchmarks", "", "comma-separated benchmark names")
	flag.StringVar(&f.archs, "archs", "", "comma-separated architectures (hp, lp, native)")
	flag.StringVar(&f.threads, "threads", "", "comma-separated thread counts")
	flag.StringVar(&f.policies, "policies", "", "comma-separated policies (lazy, periodic:P)")
	flag.StringVar(&f.seeds, "seeds", "", "comma-separated workload seeds")
	flag.IntVar(&f.w, "W", 0, "warm-up instances per thread; 0 = paper default")
	flag.IntVar(&f.h, "H", 0, "sample history size; 0 = paper default")
	var (
		outPath    = flag.String("out", "sweep.jsonl", "JSONL output; existing cells in it are skipped (resume)")
		csvPath    = flag.String("csv", "", "also export the full campaign as CSV to this path")
		workers    = flag.Int("workers", runtime.NumCPU(), "concurrent simulations")
		printSpec  = flag.Bool("print-spec", false, "print the effective spec as JSON and exit")
		quiet      = flag.Bool("quiet", false, "suppress progress and summary output on stderr")
		tracePath  = flag.String("trace", "", "append a flight-recorder JSONL trace of the campaign to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/obs, /debug/obs/campaign, /debug/vars and /debug/pprof on this address while running")
		metricsOut = flag.String("metrics-out", "", "write the final metrics snapshot as JSON to this file")
	)
	flag.Parse()

	spec, err := buildSpec(f)
	if err != nil {
		fatal(err)
	}
	if *printSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			fatal(err)
		}
		return
	}

	eng, err := sweep.New(spec, *workers)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		// With a trace on disk, the debug server also answers
		// /debug/obs/campaign with the live cost report over it.
		var extra []obs.DebugEndpoint
		if *tracePath != "" {
			extra = append(extra, query.Endpoint(*tracePath))
		}
		ds, err := obs.ServeDebug(*debugAddr, nil, extra...)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/obs\n", ds.Addr())
	}
	if *tracePath != "" {
		rec, err := obs.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer rec.Close()
		eng.Recorder = rec
	}

	// "-out -" streams JSONL to stdout (no resume); anything else appends
	// to a resumable file.
	var out io.Writer
	var completed map[string]sweep.Record
	if *outPath == "-" {
		out = os.Stdout
	} else {
		if completed, err = loadResume(*outPath); err != nil {
			fatal(err)
		}
		if err := obs.DropPartialTail(*outPath); err != nil {
			fatal(err)
		}
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	skipped, total := eng.Resumable(completed)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign %q: %d cells (%d already in %s), %d workers\n",
			specName(spec), total, skipped, *outPath, *workers)
		eng.OnRecord = func(done, total int, rec sweep.Record) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %-55s err %6.2f%%  %5.1fx detail\n",
				done, total, rec.Key, rec.ErrPct, rec.SpeedupDetail)
		}
	}

	start := time.Now()
	recs, runErr := eng.RunContext(ctx, out, completed)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "sweep: %d cells failed:\n%v\n", total-len(recs), runErr)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "completed %d/%d cells in %v\n\n", len(recs), total, time.Since(start).Round(time.Millisecond))
		fmt.Fprint(os.Stderr, sweep.RenderSummary(
			fmt.Sprintf("campaign %q — mean/max execution-time error and detail speedup per cell group", specName(spec)),
			sweep.Summarize(recs)))
		fmt.Fprintln(os.Stderr, cacheSummary())
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		if err := exportCSV(*csvPath, recs); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\nwrote %d rows to %s\n", len(recs), *csvPath)
		}
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// cacheSummary renders the baseline cache's behaviour over the campaign
// from the process-wide metrics — cache cost dominates campaign cost, so
// the end-of-run summary surfaces it.
func cacheSummary() string {
	snap := obs.Default().Snapshot()
	return fmt.Sprintf("baseline cache: %d hits (%d joined in flight), %d misses, %d evictions (%d detailed references computed)",
		snap.Counters["engine.baseline.cache.hits"],
		snap.Counters["engine.baseline.joined"],
		snap.Counters["engine.baseline.cache.misses"],
		snap.Counters["engine.baseline.cache.evictions"],
		snap.Counters["engine.baseline.computed"])
}

// writeMetrics dumps the final metrics snapshot as indented JSON.
func writeMetrics(path string) error {
	b, err := obs.Default().MarshalSnapshot()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// specFlags are the command-line flags that shape the campaign spec.
type specFlags struct {
	specPath, name                              string
	corpus                                      int
	scale                                       float64
	benchmarks, archs, threads, policies, seeds string
	w, h                                        int
}

// buildSpec resolves the campaign: a drawn corpus, a spec file, or the
// built-in default, overridden by any dimension flags.
func buildSpec(f specFlags) (sweep.Spec, error) {
	var seeds []uint64
	for _, s := range splitCSV(f.seeds) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, v)
	}
	spec := sweep.DefaultSpec()
	switch {
	case f.corpus != 0:
		// The corpus draws the benchmark axis from its master seed, so
		// neither a listed axis nor several seeds can apply.
		if f.specPath != "" || f.benchmarks != "" {
			return sweep.Spec{}, errors.New("-corpus draws the benchmarks: it cannot be combined with -spec or -benchmarks")
		}
		if len(seeds) > 1 {
			return sweep.Spec{}, errors.New("-corpus takes one -seeds value, the draw's master seed")
		}
		c := corpus.Spec{Scenarios: f.corpus}
		if len(seeds) == 1 {
			c.Seed, seeds = seeds[0], nil
		}
		var err error
		if spec, err = c.SweepSpec(); err != nil {
			return sweep.Spec{}, err
		}
	case f.specPath != "":
		data, err := os.ReadFile(f.specPath)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec = sweep.Spec{}
		if err := json.Unmarshal(data, &spec); err != nil {
			return sweep.Spec{}, fmt.Errorf("parsing %s: %w", f.specPath, err)
		}
	}
	if f.name != "" {
		spec.Name = f.name
	}
	if f.scale > 0 {
		spec.Scale = f.scale
	}
	if f.benchmarks != "" {
		spec.Benchmarks = splitCSV(f.benchmarks)
	}
	if f.archs != "" {
		spec.Archs = splitCSV(f.archs)
	}
	if f.policies != "" {
		spec.Policies = splitCSV(f.policies)
	}
	if f.threads != "" {
		threads, err := atoiAll(splitCSV(f.threads))
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("-threads: %w", err)
		}
		spec.Threads = threads
	}
	if seeds != nil {
		spec.Seeds = seeds
	}
	if f.w > 0 {
		spec.W = f.w
	}
	if f.h > 0 {
		spec.H = f.h
	}
	return spec, nil
}

// loadResume reads the completed-cell set from an existing output file;
// a missing file is an empty campaign.
func loadResume(path string) (map[string]sweep.Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	completed, err := sweep.LoadCompleted(f)
	if err != nil {
		return nil, fmt.Errorf("resuming from %s: %w", path, err)
	}
	return completed, nil
}

func exportCSV(path string, recs []sweep.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sweep.WriteCSV(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func specName(s sweep.Spec) string {
	if s.Name != "" {
		return s.Name
	}
	return "unnamed"
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func atoiAll(parts []string) ([]int, error) {
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	if errors.Is(err, arch.ErrUnknown) {
		// An unknown architecture is the one error a listing fixes:
		// print every valid spelling under the failure.
		fmt.Fprintf(os.Stderr, "\nvalid architectures:\n%s", arch.Listing())
	}
	os.Exit(1)
}
