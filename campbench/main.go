// Command campbench is the repository's end-to-end benchmark: one
// fixed-seed design-space campaign (dse, see campaign.go) run through the
// three surfaces users drive — the in-process sweep engine, taskpointd
// over a cold store and taskpointd over a warm store — with every cell's
// record checked, and a separate traced run attributing the time to the
// layers (layers.go).
//
// Build and run it through run.sh from the repository root:
//
//	bash campbench/run.sh --workload serve-warm --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}},
// with the end-to-end metrics for --trace 0 and the per-layer metrics for
// --trace 1. The lines before it list the same metrics as a table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"taskpoint/internal/obs"
	"taskpoint/internal/sweep"
)

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string
	workdir  string
	workers  int
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campbench: "+format+"\n", args...)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "sweep-cold", "workload: sweep-cold, serve-cold or serve-warm")
	flag.Uint64Var(&o.seed, "seed", 42, "campaign seed: drives every generated program")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to repeat the timed campaign")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead")
	flag.StringVar(&o.daemon, "taskpointd", "", "taskpointd binary (built by run.sh)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for stores")
	flag.Parse()
	o.trace = trace == 1
	o.workers = runtime.NumCPU()
	if o.daemon == "" {
		logf("-taskpointd is required (run through campbench/run.sh)")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// Every run must end well inside the driver's 180 s limit.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var res result
	switch {
	case o.trace:
		res, err = traced(ctx, o, dir)
	default:
		res, err = untraced(ctx, o, dir)
	}
	if err != nil {
		return err
	}
	printTable(o, res)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// repeat runs timed reps until the measuring time is spent, at least
// three times so every reported median has company.
func repeat(ctx context.Context, seconds float64, once func() (rep, error)) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) < 3 || time.Since(start).Seconds() < seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := once()
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// sweepRep runs one campaign in-process through sweep.Engine.RunContext,
// as cmd/sweep does, with a fresh engine and so fresh caches.
func sweepRep(ctx context.Context, spec sweep.Spec, workers int) (rep, error) {
	r := rep{recs: map[string]sweep.Record{}, errs: map[string]string{}, computed: map[string]bool{}}
	eng, setup, err := sweepSetup(spec, workers)
	if err != nil {
		return r, err
	}
	r.setup = setup

	before := obs.Default().Snapshot().Counters
	start := time.Now()
	eng.OnRecord = func(_, _ int, _ sweep.Record) {
		if r.first == 0 {
			r.first = time.Since(start)
		}
	}
	recs, runErr := eng.RunContext(ctx, nil, nil)
	r.wall = time.Since(start)
	after := obs.Default().Snapshot().Counters
	r.counters = map[string]int64{}
	for k, v := range after {
		r.counters[k] = v - before[k]
	}
	for _, rec := range recs {
		r.recs[rec.Key] = rec
		r.computed[rec.Key] = true
	}
	if runErr != nil {
		// Failed cells are missing from recs; the checker counts them.
		logf("sweep: %v", runErr)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.maxRSSKB = ru.Maxrss
	}
	return r, ctx.Err()
}

// sweepSetup builds the sweep surface: it collects the previous
// campaign's garbage, decodes the spec as cmd/sweep -spec does and builds
// the engine.
func sweepSetup(spec sweep.Spec, workers int) (*sweep.Engine, time.Duration, error) {
	start := time.Now()
	runtime.GC()
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, err
	}
	var s sweep.Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, 0, err
	}
	eng, err := sweep.New(s, workers)
	return eng, time.Since(start), err
}

// fixture is what a workload needs before its timed campaigns: the
// reference records of dse from the sweep engine and, for serve-warm, a
// snapshot of a store populated by serving dse.
type fixture struct {
	ref      rep
	snapshot string
	populate rep
}

// prepare builds the fixture of a served workload; its records are
// checked too.
func prepare(ctx context.Context, o options, dir string, chk *checker) (fixture, error) {
	var f fixture
	var err error
	f.ref, err = sweepRep(ctx, dseSpec(o.seed), o.workers)
	if err != nil {
		return f, fmt.Errorf("sweep reference: %w", err)
	}
	cells := cellsOf(dseSpec(o.seed))
	chk.check(cells, f.ref)
	if o.workload != "serve-warm" && !o.trace {
		return f, nil
	}
	popDir := filepath.Join(dir, "populate")
	f.populate, err = servedRep(ctx, o, dseSpec(o.seed), popDir, nil)
	if err != nil {
		return f, fmt.Errorf("populating the store: %w", err)
	}
	chk.check(cells, f.populate)
	f.snapshot = filepath.Join(dir, "snapshot")
	if err := snapshotStore(popDir, f.snapshot); err != nil {
		return f, fmt.Errorf("snapshotting the store: %w", err)
	}
	return f, os.RemoveAll(popDir)
}

// probeSamples is how many samples setup_s and first_record_s are the
// medians of. Both are short, so beyond the timed campaigns the run
// repeats them alone: a set-up torn down at once, or a campaign abandoned
// at its first record.
const probeSamples = 15

// storePrep returns how the workload fills its store before taskpointd
// starts: serve-warm restores the fixture's snapshot, the others start
// empty.
func storePrep(o options, f fixture) func(string) error {
	if o.workload != "serve-warm" {
		return nil
	}
	return func(d string) error { return snapshotStore(f.snapshot, d) }
}

// setupOnce sets the workload's surface up, as a timed campaign would,
// and tears it down again.
func setupOnce(ctx context.Context, o options, dir string, f fixture) (time.Duration, error) {
	if o.workload == "sweep-cold" {
		_, d, err := sweepSetup(dseSpec(o.seed), o.workers)
		return d, err
	}
	d, setup, err := startServed(ctx, o, filepath.Join(dir, "store"), storePrep(o, f))
	if err != nil {
		return 0, err
	}
	_, err = d.stop()
	return setup, err
}

// firstRecordOnce starts a campaign of the workload and returns the time
// to its first record, abandoning the rest of the campaign.
func firstRecordOnce(ctx context.Context, o options, dir string, f fixture) (time.Duration, error) {
	if o.workload == "sweep-cold" {
		eng, _, err := sweepSetup(dseSpec(o.seed), o.workers)
		if err != nil {
			return 0, err
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var first time.Duration
		start := time.Now()
		eng.OnRecord = func(_, _ int, _ sweep.Record) {
			if first == 0 {
				first = time.Since(start)
				cancel()
			}
		}
		// The cancellation fails the rest of the campaign on purpose.
		_, _ = eng.RunContext(ctx, nil, nil)
		if first == 0 {
			return 0, fmt.Errorf("campaign produced no record")
		}
		return first, nil
	}
	d, _, err := startServed(ctx, o, filepath.Join(dir, "store"), storePrep(o, f))
	if err != nil {
		return 0, err
	}
	r, err := d.campaign(ctx, workloadSpec(o), true)
	if _, stopErr := d.stop(); err == nil {
		err = stopErr
	}
	return r.first, err
}

// surfaceRep runs one campaign of the workload on its surface.
func surfaceRep(ctx context.Context, o options, dir string, f fixture) (rep, error) {
	if o.workload == "sweep-cold" {
		return sweepRep(ctx, dseSpec(o.seed), o.workers)
	}
	return servedRep(ctx, o, workloadSpec(o), filepath.Join(dir, "store"), storePrep(o, f))
}

func workloadSpec(o options) sweep.Spec {
	if o.workload == "serve-warm" {
		return dsePlusSpec(o.seed)
	}
	return dseSpec(o.seed)
}

func checkWorkload(o options) error {
	switch o.workload {
	case "sweep-cold", "serve-cold", "serve-warm":
		return nil
	}
	return fmt.Errorf("unknown workload %q (want sweep-cold, serve-cold or serve-warm)", o.workload)
}

// untraced measures the end-to-end metrics: repeated timed campaigns of
// the workload, reported as medians over the reps.
func untraced(ctx context.Context, o options, dir string) (result, error) {
	if err := checkWorkload(o); err != nil {
		return result{}, err
	}
	chk := newChecker()
	var f fixture
	if o.workload != "sweep-cold" {
		var err error
		if f, err = prepare(ctx, o, dir, chk); err != nil {
			return result{}, err
		}
	}
	cells := cellsOf(workloadSpec(o))
	reps, err := repeat(ctx, o.seconds, func() (rep, error) {
		r, err := surfaceRep(ctx, o, dir, f)
		if err == nil {
			chk.check(cells, r)
		}
		return r, err
	})
	if err != nil {
		return result{}, err
	}
	logf("%s: %d timed campaigns of %d cells", o.workload, len(reps), len(cells))

	var setup, first, wall, rate, speedup, rss []float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		first = append(first, r.first.Seconds())
	}
	for len(setup) < probeSamples {
		d, err := setupOnce(ctx, o, dir, f)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, d.Seconds())
	}
	for len(first) < probeSamples {
		d, err := firstRecordOnce(ctx, o, dir, f)
		if err != nil {
			return result{}, fmt.Errorf("first record: %w", err)
		}
		first = append(first, d.Seconds())
	}
	for _, r := range reps {
		wall = append(wall, r.wall.Seconds())
		rate = append(rate, float64(len(cells))/r.wall.Seconds())
		speedup = append(speedup, speedupWall(r))
		rss = append(rss, float64(r.maxRSSKB)/1024)
	}
	acc := accuracyOf(reps[0].recs)
	m := metrics{}
	m.set("setup_s", "s", median(setup))
	m.set("wall_s", "s", median(wall))
	m.set("cells_per_s", "cells/s", median(rate))
	m.set("first_record_s", "s", median(first))
	m.set("speedup_wall", "x", median(speedup))
	m.set("speedup_detail_geo", "x", acc.geoSpeedup)
	m.set("ci_coverage", "fraction", acc.ciCoverage)
	m.set("ci_rel_width_mean", "fraction", acc.ciWidth)
	m.set("peak_rss_mb", "MB", median(rss))
	m.set("cells_ok_frac", "fraction", 1-float64(chk.failed)/float64(chk.attempted))
	return result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   m,
	}, nil
}

func printTable(o options, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("campbench %s seed=%d trace=%v: %d cells checked, %d failed\n",
		o.workload, o.seed, o.trace, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
