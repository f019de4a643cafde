// Command taskpoint runs one benchmark under detailed and sampled
// simulation and reports execution-time error and speedup — plus, for
// stratified sampling, the confidence interval of the cycle estimate.
// It is a front end over the unified experiment engine: the flags build
// one taskpoint.Request, the engine runs it, and Ctrl-C cancels the
// simulation mid-run.
//
// Usage:
//
//	taskpoint -bench cholesky -threads 8 -arch hp -policy lazy -scale 0.125
//	taskpoint -bench dedup -policy 'stratified(200)'
//	taskpoint -bench dedup -arch native -policy 'stratified(400)'
//	taskpoint -bench 'gen:forkjoin(tasks=64)' -timeline out.json   # Perfetto timeline
//	taskpoint -bench cholesky -trace run.jsonl                     # flight recorder
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"taskpoint"
)

func main() {
	var (
		benchName = flag.String("bench", "cholesky", "benchmark name or gen: scenario spec (see -list)")
		threads   = flag.Int("threads", 8, "simulated threads (1-64)")
		archName  = flag.String("arch", "hp", "architecture: high-performance/hp, low-power/lp or native")
		policy    = flag.String("policy", "lazy", "sampling policy: lazy, periodic (= periodic(250)), stratified (= stratified(400)), or any ParsePolicy form like periodic(100)")
		scale     = flag.Float64("scale", 1.0/8, "benchmark scale (1.0 = Table I instance counts)")
		seed      = flag.Uint64("seed", 42, "workload generation seed")
		w         = flag.Int("W", 2, "warm-up instances per thread")
		h         = flag.Int("H", 4, "sample history size per task type")
		list      = flag.Bool("list", false, "list benchmark names and gen: scenario families, then exit")
		tracePath = flag.String("trace", "", "append a flight-recorder JSONL trace of the run to this file")
		timeline  = flag.String("timeline", "", "write the simulated per-core task schedule as Chrome trace-event JSON (open in Perfetto)")
		quiet     = flag.Bool("quiet", false, "suppress diagnostic notes on stderr")
	)
	flag.Parse()

	if *list {
		printNames(os.Stdout)
		return
	}

	params := taskpoint.DefaultParams()
	params.W = *w
	params.H = *h

	// Resolve the policy: bare family names take the paper's period and
	// the default budget; anything else goes through the engine's
	// ParsePolicy, which rejects unknown or malformed policies instead of
	// silently falling back.
	spec := strings.TrimSpace(*policy)
	switch spec {
	case "periodic":
		spec = "periodic(250)"
	case "stratified":
		spec = "stratified(400)"
	}

	req := taskpoint.Request{
		Workload: *benchName,
		Arch:     *archName,
		Threads:  *threads,
		Scale:    *scale,
		Seed:     *seed,
		Policy:   spec,
		Params:   params,
	}
	if err := req.Validate(); err != nil {
		// Unknown names are the errors a listing fixes; everything else
		// keeps its own message.
		switch {
		case errors.Is(err, taskpoint.ErrUnknownArch):
			fmt.Fprintf(os.Stderr, "taskpoint: %v\n\nvalid -arch values:\n%s", err, taskpoint.ArchListing())
			os.Exit(1)
		case errors.Is(err, taskpoint.ErrUnknownName):
			fmt.Fprintf(os.Stderr, "taskpoint: %v\n\nvalid -bench values:\n", err)
			printNames(os.Stderr)
			os.Exit(1)
		default:
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var rec *taskpoint.Recorder
	if *tracePath != "" {
		var err error
		if rec, err = taskpoint.OpenRecorder(*tracePath); err != nil {
			fatal(err)
		}
		defer rec.Close()
	}

	rep, err := taskpoint.NewEngine(taskpoint.WithRecorder(rec)).Run(ctx, req)
	if err != nil {
		fatal(err)
	}

	if *timeline != "" {
		if err := writeTimeline(*timeline, rep); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "taskpoint: wrote simulated timeline to %s (load in https://ui.perfetto.dev)\n", *timeline)
		}
	}
	if *tracePath != "" && !*quiet {
		fmt.Fprintf(os.Stderr, "taskpoint: appended flight-recorder trace to %s\n", *tracePath)
	}

	prog, cfg := rep.Program, rep.Config
	fmt.Printf("benchmark  %s (%d types, %d instances, %.1fM instructions)\n",
		prog.Name, prog.NumTypes(), prog.NumTasks(), float64(prog.TotalInstructions())/1e6)
	fmt.Printf("machine    %s, %d threads\n", cfg.Name, cfg.Cores)
	fmt.Printf("detailed   %.0f cycles in %v\n", rep.Detailed.Cycles, rep.DetailedWall.Round(1e6))
	fmt.Printf("sampled    %.0f cycles in %v (%s, W=%d H=%d)\n",
		rep.Sampled.Cycles, rep.SampledWall.Round(1e6), rep.Request.Policy, params.W, params.H)
	fmt.Printf("error      %.2f%%\n", rep.ErrPct)
	fmt.Printf("speedup    %.1fx wall, %.1fx instructions (%.1f%% simulated in detail)\n",
		rep.SpeedupWall, rep.SpeedupDetail, 100*rep.DetailFraction)
	st := rep.Sampler
	fmt.Printf("sampling   %d detailed (%d directed), %d fast, %d valid samples, %d resamples (periodic %d, new-type %d, parallelism %d)\n",
		st.DetailedStarted, st.DirectedStarted, st.FastStarted, st.ValidSamples,
		st.Resamples, st.ResamplesPeriodic, st.ResamplesNewType, st.ResamplesParallelism)
	if conf := rep.Confidence; conf != nil && conf.Strata > 0 {
		trueTotal := rep.DetailedTaskCycles
		inside := "inside"
		if !conf.Covers(trueTotal) {
			inside = "OUTSIDE"
		}
		fmt.Printf("confidence total task cycles %.4g, 95%% CI [%.4g, %.4g] (±%.1f%%), %d strata, %d samples, calibration %.3f\n",
			conf.Estimate, conf.Lo, conf.Hi, 100*conf.RelWidth()/2, conf.Strata, conf.Sampled, conf.Calibration)
		fmt.Printf("           detailed reference total %.4g is %s the interval\n", trueTotal, inside)
	}
}

// printNames lists every valid -bench value: the Table I registry and
// the generator's scenario families with their spec grammar.
func printNames(w io.Writer) {
	fmt.Fprintln(w, "Table I benchmarks:")
	for _, n := range taskpoint.Benchmarks() {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w, "\nGenerated scenario families (spec: \"gen:FAMILY(knob=value,...)\"):")
	for _, f := range taskpoint.ScenarioFamilies() {
		fmt.Fprintf(w, "  gen:%-10s %s\n", f.Name, f.Blurb)
	}
	fmt.Fprintln(w, "\nKnobs: tasks, width, depth, types, size (loguniform|fixed|bimodal|heavytail),")
	fmt.Fprintln(w, "       mean, cv, phases, inputdep — e.g. gen:forkjoin(width=16,size=heavytail,inputdep=0.8)")
}

func writeTimeline(path string, rep taskpoint.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := taskpoint.WriteTimeline(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taskpoint:", err)
	os.Exit(1)
}
