// Command estfuzz fuzzes the sampling estimators continuously: it draws
// seeded adversarial scenarios from the generative engine forever (or for
// -rounds / -duration), runs every policy against the detailed reference,
// flags accuracy-contract violations (CI coverage miss, interval-floor
// miss, error over the per-policy ceiling), delta-debugs each hit to a
// 1-minimal gen: spec, and appends the reproducers to a regression corpus
// that `go test -run RegressionCorpus` replays.
//
// Violation lines go to stdout and are fully deterministic for a fixed
// seed and round range — two runs of `estfuzz -rounds 200 -seed 1` print
// identical logs. Progress and wall-clock chatter go to stderr.
//
// Usage:
//
//	estfuzz -rounds 200 -seed 1                   # bounded, reproducible
//	estfuzz -duration 10m -corpus found.jsonl     # time-boxed nightly hunt
//	estfuzz -rounds 500 -state fuzz.state -corpus testdata/regression_corpus.jsonl
//	                                              # resumable: SIGINT, rerun, continues
//	estfuzz -rounds 50 -trace t.jsonl -metrics-out m.json   # observability
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taskpoint/internal/arch"
	"taskpoint/internal/bench"
	"taskpoint/internal/fuzz"
	"taskpoint/internal/obs"
	"taskpoint/internal/obs/query"
)

// state is the resumable round cursor, written atomically after every
// completed round so an interrupted campaign continues from the last
// completed round.
type state struct {
	Fingerprint string `json:"fingerprint"`
	NextRound   int    `json:"next_round"`
	Findings    int    `json:"findings"`
}

func main() {
	var (
		rounds   = flag.Int("rounds", 0, "round-space bound: run rounds [resume, N) (0 = unbounded)")
		duration = flag.Duration("duration", 0, "wall-clock budget (0 = unbounded)")
		seed     = flag.Uint64("seed", 1, "master seed: scenario draws and request seeds derive from it")
		archName = flag.String("arch", "", "architecture (hp, lp, native; default high-performance)")
		threads  = flag.Int("threads", 0, "simulated thread count (default 4)")
		policies = flag.String("policies", "", "comma-separated policies (default lazy,periodic(64),stratified(96))")
		ceilings = flag.String("ceilings", "", "per-policy error ceilings in percent, e.g. lazy=60,stratified(96)=25")
		families = flag.String("families", "", "comma-separated scenario family subset (default: all)")
		minTasks = flag.Int("min-tasks", 0, "minimum instances per scenario (default 64)")
		maxTasks = flag.Int("max-tasks", 0, "maximum instances per scenario (default 384)")
		workers  = flag.Int("workers", runtime.NumCPU(), "concurrent simulations")
		minimize = flag.Bool("minimize", true, "delta-debug each finding to a 1-minimal reproducer")
		corpus   = flag.String("corpus", "", "append minimized reproducers to this JSONL corpus (deduped)")
		statePat = flag.String("state", "", "resumable round cursor: continue from the last completed round")
		quiet    = flag.Bool("quiet", false, "suppress per-round progress on stderr")
		failHits = flag.Bool("fail-on-violation", false, "exit 3 when any violation was found (for CI)")

		tracePath  = flag.String("trace", "", "append a flight-recorder JSONL trace of the campaign to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/obs, /debug/obs/campaign, /debug/vars and /debug/pprof on this address while running")
		metricsOut = flag.String("metrics-out", "", "write the final metrics snapshot as JSON to this file")
	)
	flag.Parse()

	var rec *obs.Recorder
	if *tracePath != "" {
		var err error
		if rec, err = obs.Open(*tracePath); err != nil {
			fatal(err)
		}
		defer rec.Close()
	}
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

	cfg := fuzz.Config{
		Rounds: *rounds, Seed: *seed, Arch: *archName, Threads: *threads,
		MinTasks: *minTasks, MaxTasks: *maxTasks,
		Minimize: *minimize, Workers: *workers,
		Recorder: rec,
	}
	if *policies != "" {
		cfg.Policies = splitCSV(*policies)
	}
	if *families != "" {
		cfg.Families = splitCSV(*families)
	}
	if *ceilings != "" {
		m, err := parseCeilings(*ceilings)
		if err != nil {
			fatal(err)
		}
		cfg.Ceilings = m
	}
	drv, err := fuzz.New(cfg)
	if err != nil {
		fatal(err)
	}
	cfg = drv.Config()

	start := 0
	if *statePat != "" {
		st, err := loadState(*statePat)
		if err != nil {
			fatal(err)
		}
		if st != nil {
			if st.Fingerprint != cfg.Fingerprint() {
				fatal(fmt.Errorf("state %s was written by a different campaign:\n  state: %s\n  flags: %s\nremove the file or match the flags",
					*statePat, st.Fingerprint, cfg.Fingerprint()))
			}
			start = st.NextRound
			fmt.Fprintf(os.Stderr, "estfuzz: resuming at round %d (%d findings so far)\n", start, st.Findings)
		}
	}
	if cfg.Rounds > 0 && start >= cfg.Rounds {
		fmt.Fprintf(os.Stderr, "estfuzz: all %d rounds already completed\n", cfg.Rounds)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	total := 0
	wallStart := time.Now()
	onRound := func(round int, fs []fuzz.Finding) {
		for _, f := range fs {
			printFinding(f)
		}
		total += len(fs)
		if *corpus != "" && len(fs) > 0 {
			if _, err := fuzz.AppendCorpus(*corpus, fs); err != nil {
				fatal(fmt.Errorf("appending to corpus %s: %w", *corpus, err))
			}
		}
		if *statePat != "" {
			if err := saveState(*statePat, state{
				Fingerprint: cfg.Fingerprint(), NextRound: round + 1, Findings: total,
			}); err != nil {
				fatal(fmt.Errorf("writing state %s: %w", *statePat, err))
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[round %d] %d findings (%d total, %v)\n",
				round, len(fs), total, time.Since(wallStart).Round(time.Millisecond))
		}
	}

	_, runErr := drv.Run(ctx, start, onRound)
	switch {
	case runErr == nil:
	case errors.Is(runErr, context.Canceled), errors.Is(runErr, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "estfuzz: stopped (%v); state resumes from the last completed round\n", context.Cause(ctx))
	default:
		fatal(runErr)
	}
	fmt.Fprintf(os.Stderr, "estfuzz: %d violations in %v (%d vacuous cells: run fully in detail, cannot violate)\n",
		total, time.Since(wallStart).Round(time.Millisecond), obs.Default().Counter("fuzz.cells.vacuous").Value())
	if *metricsOut != "" {
		b, err := obs.Default().MarshalSnapshot()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*metricsOut, b, 0o644); err != nil {
			fatal(err)
		}
	}
	if *failHits && total > 0 {
		os.Exit(3)
	}
}

// printFinding emits one deterministic violation line on stdout.
func printFinding(f fuzz.Finding) {
	var b strings.Builder
	classes := make([]string, len(f.Classes))
	for i, c := range f.Classes {
		classes[i] = string(c)
	}
	fmt.Fprintf(&b, "violation round=%d policy=%s classes=%s err=%.4f%% ceiling=%.0f%%",
		f.Round, f.Policy, strings.Join(classes, "+"), f.ErrPct, f.CeilingPct)
	if f.CIHi > 0 {
		fmt.Fprintf(&b, " ci=[%.0f,%.0f] detailed=%.0f", f.CILo, f.CIHi, f.DetailedTaskCycles)
	}
	fmt.Fprintf(&b, " spec=%s", f.Spec)
	if f.MinimizedFrom != "" {
		fmt.Fprintf(&b, " from=%s trials=%d", f.MinimizedFrom, f.ShrinkTrials)
	}
	fmt.Println(b.String())
}

func loadState(path string) (*state, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("state %s: %w", path, err)
	}
	return &st, nil
}

// saveState writes the cursor atomically (temp file + rename), so a kill
// mid-write can never leave a torn state file behind.
func saveState(path string, st state) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func parseCeilings(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("malformed ceiling %q (want policy=percent)", pair)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("ceiling %s=%q: want a positive percentage", key, val)
		}
		out[key] = v
	}
	return out, nil
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
	fmt.Fprintln(os.Stderr, "estfuzz:", err)
	if errors.Is(err, arch.ErrUnknown) {
		fmt.Fprintf(os.Stderr, "\nvalid architectures:\n%s", arch.Listing())
	}
	if errors.Is(err, bench.ErrUnknownName) {
		fmt.Fprintln(os.Stderr, "\nunknown scenario family; valid families: run 'taskpoint -list'")
	}
	os.Exit(1)
}
