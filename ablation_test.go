// Ablation benchmarks for the design choices DESIGN.md calls out. These
// are not paper artefacts; they quantify the extensions and implementation
// choices of this reproduction:
//
//   - size-class clustering (the paper's §V-B future work) on the
//     input-dependent benchmarks it targets,
//   - TaskPoint's robustness to the runtime's scheduling order, and
//   - the parallelism-trigger patience on phase-structured workloads.
package taskpoint_test

import (
	"context"
	"fmt"
	"testing"

	"taskpoint/internal/bench"
	"taskpoint/internal/core"
	"taskpoint/internal/engine"
	"taskpoint/internal/sched"
	"taskpoint/internal/sim"
	"taskpoint/internal/stats"
)

// mustSpec resolves a Table I benchmark or fails the benchmark.
func mustSpec(b *testing.B, name string) *bench.Spec {
	b.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// ablationEngine runs the ablation cells over the shared benchBaselines
// cache, so every ablation reuses the figures' detailed references.
var ablationEngine = engine.New(engine.WithWorkers(2), engine.WithBaselineCache(benchBaselines))

// ablationRun runs one high-performance 8-thread cell of a benchmark at
// benchScale and seed 42.
func ablationRun(b *testing.B, name string, params core.Params, policy string) engine.Report {
	b.Helper()
	rep, err := ablationEngine.Run(context.Background(), engine.Request{
		Workload: name, Arch: "hp", Threads: 8, Scale: benchScale, Seed: 42,
		Policy: policy, Params: params,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkAblationSizeClassing compares plain per-type sampling against
// the size-class extension on dedup and freqmine — the two benchmarks the
// paper names as victims of input-dependent instance sizes.
func BenchmarkAblationSizeClassing(b *testing.B) {
	b.ReportAllocs()
	names := []string{"dedup", "freqmine", "sparse-matrix-vector-multiplication"}
	var plain, classed []float64
	for i := 0; i < b.N; i++ {
		plain, classed = nil, nil
		for _, name := range names {
			p := core.DefaultParams()
			plain = append(plain, ablationRun(b, name, p, "lazy").ErrPct)
			p.SizeClasses = true
			classed = append(classed, ablationRun(b, name, p, "lazy").ErrPct)
		}
	}
	b.ReportMetric(stats.Mean(plain), "err_pct_plain")
	b.ReportMetric(stats.Mean(classed), "err_pct_classed")
}

// BenchmarkAblationStratified compares the plain size-class sampler
// against two-phase stratified sampling at an equal detailed budget
// (B = the plain run's detailed-instance count) on the input-dependent
// benchmarks, reporting both the execution-time error and the relative
// width of the stratified confidence interval.
func BenchmarkAblationStratified(b *testing.B) {
	b.ReportAllocs()
	names := []string{"dedup", "freqmine", "sparse-matrix-vector-multiplication"}
	var plain, strat, ciw []float64
	for i := 0; i < b.N; i++ {
		plain, strat, ciw = nil, nil, nil
		for _, name := range names {
			p := core.DefaultParams()
			p.SizeClasses = true
			rep := ablationRun(b, name, p, "lazy")
			plain = append(plain, rep.ErrPct)
			budget := fmt.Sprintf("stratified(%d)", rep.Sampler.DetailedStarted)
			srep := ablationRun(b, name, core.DefaultParams(), budget)
			strat = append(strat, srep.ErrPct)
			ciw = append(ciw, srep.Confidence.RelWidth())
		}
	}
	b.ReportMetric(stats.Mean(plain), "err_pct_sizeclass")
	b.ReportMetric(stats.Mean(strat), "err_pct_stratified")
	b.ReportMetric(stats.Mean(ciw), "ci_rel_width")
}

// BenchmarkAblationSchedulerPolicy measures TaskPoint's accuracy under
// FIFO vs LIFO ready-queue orders. Dynamic scheduling reshuffles which
// thread executes which instance — the property that breaks classical
// sampling (paper §I) — so the error should stay in the same band for
// both orders.
func BenchmarkAblationSchedulerPolicy(b *testing.B) {
	b.ReportAllocs()
	var errs [2]float64
	for i := 0; i < b.N; i++ {
		for pi, pol := range []sched.Policy{sched.FIFO, sched.LIFO} {
			spec := mustSpec(b, "cholesky")
			p := spec.MustBuild(benchScale, 42)
			cfg := sim.HighPerfConfig(8)
			cfg.Policy = pol
			det, err := sim.Simulate(cfg, p, sim.DetailedController{})
			if err != nil {
				b.Fatal(err)
			}
			s := core.MustNew(core.DefaultParams(), core.Lazy{})
			samp, err := sim.Simulate(cfg, p, s)
			if err != nil {
				b.Fatal(err)
			}
			errs[pi] = stats.AbsPctError(samp.Cycles, det.Cycles)
		}
	}
	b.ReportMetric(errs[0], "err_pct_fifo")
	b.ReportMetric(errs[1], "err_pct_lifo")
}

// BenchmarkAblationPatience measures the parallelism-trigger patience on
// kmeans (a serial convergence check between parallel phases) and
// reduction (a genuinely shrinking tree): patience 1 resamples on every
// transient; patience 2 absorbs them.
func BenchmarkAblationPatience(b *testing.B) {
	b.ReportAllocs()
	var resamples [2]float64
	var errs [2]float64
	for i := 0; i < b.N; i++ {
		for pi, patience := range []int{1, 2} {
			p := core.DefaultParams()
			p.ConcurrencyPatience = patience
			var errSum, resSum float64
			for _, name := range []string{"kmeans", "reduction"} {
				rep := ablationRun(b, name, p, "lazy")
				errSum += rep.ErrPct
				resSum += float64(rep.Sampler.Resamples)
			}
			errs[pi] = errSum / 2
			resamples[pi] = resSum / 2
		}
	}
	b.ReportMetric(errs[0], "err_pct_pat1")
	b.ReportMetric(errs[1], "err_pct_pat2")
	b.ReportMetric(resamples[0], "resamples_pat1")
	b.ReportMetric(resamples[1], "resamples_pat2")
}

// BenchmarkAblationQuantum measures sensitivity of the detailed baseline
// to the engine's time-slice length: cycles must be stable (within a few
// percent) across quantum sizes, showing the conservative interleaving
// converges.
func BenchmarkAblationQuantum(b *testing.B) {
	b.ReportAllocs()
	var cycles [3]float64
	quanta := []int64{500, 2000, 8000}
	for i := 0; i < b.N; i++ {
		for qi, q := range quanta {
			spec := mustSpec(b, "histogram")
			p := spec.MustBuild(benchScale, 42)
			cfg := sim.HighPerfConfig(8)
			cfg.Quantum = q
			det, err := sim.Simulate(cfg, p, sim.DetailedController{})
			if err != nil {
				b.Fatal(err)
			}
			cycles[qi] = det.Cycles
		}
	}
	b.ReportMetric(stats.AbsPctError(cycles[0], cycles[1]), "drift_pct_q500")
	b.ReportMetric(stats.AbsPctError(cycles[2], cycles[1]), "drift_pct_q8000")
}
