// Command corpus runs a generated accuracy-stress campaign: it draws N
// scenarios from the property-driven generator (internal/gen) across the
// family × knob grid, runs every sampling policy against the detailed
// reference in parallel across a worker pool, and reports per-policy
// error, CI coverage and speedup. Records stream as JSONL in the sweep
// engine's shape, so corpora are resumable and post-processable with the
// same tooling as design-space sweeps.
//
// Usage:
//
//	corpus -n 50                          # 50 scenarios, default grid
//	corpus -n 100 -families forkjoin,random -policies lazy,stratified:400
//	corpus -n 50 -out corpus.jsonl -csv corpus.csv   # resume + CSV export
//	corpus -out -                         # stream JSONL to stdout (no resume)
//	corpus -list                          # print the drawn scenarios and exit
//	corpus -trace t.jsonl -debug-addr 127.0.0.1:6060  # observability
//
// All progress and summary output goes to stderr (suppress with -quiet);
// stdout carries machine-parseable data only (-out -, -list).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
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
	var (
		n        = flag.Int("n", 50, "number of generated scenarios")
		families = flag.String("families", "", "comma-separated family subset (default: all)")
		arch     = flag.String("arch", "", "architecture (hp, lp, native; default high-performance)")
		threads  = flag.Int("threads", 0, "simulated thread count (default 4)")
		policies = flag.String("policies", "", "comma-separated policies (default lazy,periodic(250),stratified(256))")
		seed     = flag.Uint64("seed", 0, "master seed for knob draws and workload generation (default 42)")
		minTasks = flag.Int("min-tasks", 0, "minimum instances per scenario (default 192)")
		maxTasks = flag.Int("max-tasks", 0, "maximum instances per scenario (default 640)")
		workers  = flag.Int("workers", runtime.NumCPU(), "concurrent simulations")
		outPath  = flag.String("out", "", "JSONL output; existing cells in it are skipped (resume)")
		csvPath  = flag.String("csv", "", "also export the campaign as CSV to this path")
		list     = flag.Bool("list", false, "print the drawn scenario specs and exit")
		quiet    = flag.Bool("quiet", false, "suppress progress and summary output on stderr")

		tracePath  = flag.String("trace", "", "append a flight-recorder JSONL trace of the campaign to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/obs, /debug/obs/campaign, /debug/vars and /debug/pprof on this address while running")
		metricsOut = flag.String("metrics-out", "", "write the final metrics snapshot as JSON to this file")
		profSlow   = flag.Duration("profile-slow", 0, "capture a CPU profile (slow-NNN-<cell>.pprof) of any cell running longer than this")
		profDir    = flag.String("profile-dir", ".", "directory for -profile-slow captures")
	)
	flag.Parse()

	spec := corpus.Spec{
		Scenarios: *n,
		Arch:      *arch,
		Threads:   *threads,
		Seed:      *seed,
		MinTasks:  *minTasks,
		MaxTasks:  *maxTasks,
	}
	if *families != "" {
		spec.Families = splitCSV(*families)
	}
	if *policies != "" {
		spec.Policies = splitCSV(*policies)
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	if *list {
		scs, err := spec.Draw()
		if err != nil {
			fatal(err)
		}
		for _, sc := range scs {
			fmt.Println(sc.Spec())
		}
		return
	}

	var tune []func(*sweep.Engine)
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
		tune = append(tune, func(eng *sweep.Engine) { eng.Recorder = rec })
	}
	if *profSlow > 0 {
		prof := obs.NewSlowProfiler(*profSlow, *profDir)
		defer func() {
			prof.Close()
			if n := prof.Captures(); n > 0 && !*quiet {
				fmt.Fprintf(os.Stderr, "captured %d slow-cell CPU profiles in %s\n", n, *profDir)
			}
		}()
		tune = append(tune, func(eng *sweep.Engine) { eng.SlowProfiler = prof })
	}

	// "-out -" streams JSONL to stdout (no resume); anything else appends
	// to a resumable file.
	var completed map[string]sweep.Record
	var out io.Writer
	if *outPath == "-" {
		out = os.Stdout
	} else if *outPath != "" {
		if f, err := os.Open(*outPath); err == nil {
			completed, err = sweep.LoadCompleted(f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("resuming from %s: %w", *outPath, err))
			}
		}
		// Drop a partial trailing record (interrupted campaign) before
		// appending, so new records never glue onto it.
		if err := sweep.DropPartialTail(*outPath); err != nil {
			fatal(err)
		}
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	var onRecord func(done, total int, rec sweep.Record)
	if !*quiet {
		onRecord = func(done, total int, rec sweep.Record) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %-60s err %6.2f%%  %5.1fx detail\n",
				done, total, rec.Bench+" "+rec.Policy, rec.ErrPct, rec.SpeedupDetail)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	recs, runErr := corpus.RunContext(ctx, spec, *workers, out, completed, onRecord, tune...)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "corpus: some cells failed:\n%v\n", runErr)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "corpus: %d records (%d scenarios × policies) in %v, %d workers\n\n",
			len(recs), *n, time.Since(start).Round(time.Millisecond), *workers)
		fmt.Fprint(os.Stderr, corpus.RenderSummary(
			fmt.Sprintf("corpus %q — per-policy accuracy over %d generated scenarios", specName(spec), *n),
			corpus.Summarize(recs)))
		fmt.Fprintln(os.Stderr, cacheSummary())
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := sweep.WriteCSV(f, recs); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
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
// from the process-wide metrics — the detailed reference dominates corpus
// cost, so the end-of-run summary surfaces how often it was reused.
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

func specName(s corpus.Spec) string {
	if s.Name != "" {
		return s.Name
	}
	return "corpus"
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corpus:", err)
	if errors.Is(err, arch.ErrUnknown) {
		fmt.Fprintf(os.Stderr, "\nvalid architectures:\n%s", arch.Listing())
	}
	os.Exit(1)
}
