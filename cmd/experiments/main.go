// Command experiments regenerates every table and figure of the paper's
// evaluation and writes a markdown report. Detailed baselines are shared
// across experiments, so the whole sweep is feasible on a laptop.
//
// Usage:
//
//	experiments -scale 0.125 -out EXPERIMENTS.md          # everything
//	experiments -exp fig7,fig9 -threads 8,16              # a subset
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taskpoint"
	"taskpoint/internal/results"
	"taskpoint/internal/sweep"
)

func main() {
	var (
		scale   = flag.Float64("scale", 1.0/8, "benchmark scale (1.0 = Table I)")
		seed    = flag.Uint64("seed", 42, "workload/noise seed")
		workers = flag.Int("workers", 2, "concurrent simulations")
		out     = flag.String("out", "", "output markdown file (default stdout)")
		exps    = flag.String("exp", "all", "comma-separated experiments: table1,fig1,fig5,fig6a,fig6b,fig6c,fig7,fig8,fig9,fig10,summary")
		hpT     = flag.String("hp-threads", "8,16,32,64", "thread counts for the high-performance figures")
		lpT     = flag.String("lp-threads", "1,2,4,8", "thread counts for the low-power figures")
		quiet   = flag.Bool("quiet", false, "suppress per-section progress on stderr")
	)
	flag.Parse()

	// One signal-bound context cancels every simulation of every section:
	// the runner is a view over the unified experiment engine, so Ctrl-C
	// stops the in-flight detailed and sampled runs promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner := taskpoint.NewRunner(*scale, *seed, *workers).WithContext(ctx)
	hpThreads := parseInts(*hpT)
	lpThreads := parseInts(*lpT)
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	var report strings.Builder
	fmt.Fprintf(&report, "# TaskPoint experiments (scale %.3g, seed %d)\n\nGenerated %s.\n\n",
		*scale, *seed, time.Now().Format(time.RFC1123))

	start := time.Now()
	section := func(name string, f func() (string, error)) {
		if !all && !want[name] {
			return
		}
		t0 := time.Now()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== %s...\n", name)
		}
		s, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		report.WriteString(s)
		report.WriteString("\n")
		if !*quiet {
			fmt.Fprintf(os.Stderr, "   done in %v\n", time.Since(t0).Round(time.Millisecond))
		}
	}

	var fig1Rows, fig5Rows []results.VariationRow
	var fig9Rows []sweep.Record

	section("fig5", func() (string, error) {
		rows, err := runner.Variation(results.HighPerf, 8)
		if err != nil {
			return "", err
		}
		fig5Rows = rows
		return results.RenderVariation("Figure 5 — IPC variation, simulated high-performance, 8 threads", rows), nil
	})
	section("fig1", func() (string, error) {
		rows, err := runner.Variation(results.Native, 8)
		if err != nil {
			return "", err
		}
		fig1Rows = rows
		s := results.RenderVariation("Figure 1 — IPC variation, native-like (noise model), 8 threads", rows)
		if fig5Rows != nil {
			agree, total := results.ClassificationAgreement(fig1Rows, fig5Rows)
			s += fmt.Sprintf("\nNative/simulated ±5%% classification agreement: %d of %d (paper: 18 of 19).\n", agree, total)
		}
		return s, nil
	})
	section("fig6a", func() (string, error) {
		pts, err := runner.SweepW([]int{0, 1, 2, 3, 4, 6, 8, 10}, []int{32, 64})
		if err != nil {
			return "", err
		}
		return results.RenderSweep("Figure 6a — warm-up size W (H=10, P=inf, 32+64 threads)", "W", pts), nil
	})
	section("fig6b", func() (string, error) {
		pts, err := runner.SweepH([]int{1, 2, 3, 4, 5, 6, 8, 10}, []int{32, 64})
		if err != nil {
			return "", err
		}
		return results.RenderSweep("Figure 6b — history size H (W=2, P=inf)", "H", pts), nil
	})
	section("fig6c", func() (string, error) {
		pts, err := runner.SweepP([]int{10, 25, 50, 100, 250, 500, 1000}, []int{32, 64})
		if err != nil {
			return "", err
		}
		return results.RenderSweep("Figure 6c — sampling period P (W=2, H=4)", "P", pts), nil
	})
	section("fig7", func() (string, error) {
		rows, err := runner.Figure(results.HighPerf, hpThreads, "periodic(250)", nil)
		if err != nil {
			return "", err
		}
		return results.RenderSampled("Figure 7 — periodic sampling (P=250), high-performance", rows), nil
	})
	section("fig8", func() (string, error) {
		rows, err := runner.Figure(results.LowPower, lpThreads, "periodic(250)", nil)
		if err != nil {
			return "", err
		}
		return results.RenderSampled("Figure 8 — periodic sampling (P=250), low-power", rows), nil
	})
	section("fig9", func() (string, error) {
		rows, err := runner.Figure(results.HighPerf, hpThreads, "lazy", nil)
		if err != nil {
			return "", err
		}
		fig9Rows = rows
		return results.RenderSampled("Figure 9 — lazy sampling, high-performance", rows), nil
	})
	section("fig10", func() (string, error) {
		rows, err := runner.Figure(results.LowPower, lpThreads, "lazy", nil)
		if err != nil {
			return "", err
		}
		return results.RenderSampled("Figure 10 — lazy sampling, low-power", rows), nil
	})
	section("table1", func() (string, error) {
		rows, err := runner.Table1()
		if err != nil {
			return "", err
		}
		return results.RenderTable1(rows, *scale), nil
	})
	section("summary", func() (string, error) {
		rows := fig9Rows
		if rows == nil {
			var err error
			rows, err = runner.Figure(results.HighPerf, hpThreads, "lazy", nil)
			if err != nil {
				return "", err
			}
		}
		return results.RenderSummary(rows), nil
	})

	fmt.Fprintf(&report, "\nTotal experiment wall time: %v.\n", time.Since(start).Round(time.Second))

	if *out == "" {
		fmt.Print(report.String())
		return
	}
	if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bad thread count %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
