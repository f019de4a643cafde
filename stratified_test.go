// Acceptance tests for the two-phase stratified sampling subsystem
// (internal/strata): on the paper's input-dependent benchmarks the
// Stratified policy must not lose accuracy against the plain size-class
// sampler at an equal detailed budget, and its reported confidence
// interval must cover the detailed reference's true total task cycles.
package taskpoint_test

import (
	"context"
	"fmt"
	"testing"

	"taskpoint"
	"taskpoint/internal/stats"
)

// runCell runs one high-performance cell on eng. The engine caches the
// detailed reference, so the plain and stratified runs of one seed share
// it.
func runCell(t *testing.T, eng *taskpoint.Engine, name string, scale float64, seed uint64, threads int, policy string, params taskpoint.Params) taskpoint.Report {
	t.Helper()
	rep, err := eng.Run(context.Background(), taskpoint.Request{
		Workload: name, Arch: "hp", Threads: threads, Scale: scale, Seed: seed,
		Policy: policy, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// plainSizeClassRun runs the §V-B size-class sampler (lazy) and returns
// its error and detailed-instance count — the budget reference.
func plainSizeClassRun(t *testing.T, eng *taskpoint.Engine, name string, scale float64, seed uint64, threads int) (errPct float64, detailed int) {
	t.Helper()
	params := taskpoint.DefaultParams()
	params.SizeClasses = true
	rep := runCell(t, eng, name, scale, seed, threads, "lazy", params)
	return rep.ErrPct, rep.Sampler.DetailedStarted
}

// stratifiedRun runs the stratified policy at budget B (size-class
// histories implied) against the same detailed reference.
func stratifiedRun(t *testing.T, eng *taskpoint.Engine, name string, scale float64, seed uint64, threads, budget int) taskpoint.Report {
	t.Helper()
	return runCell(t, eng, name, scale, seed, threads, fmt.Sprintf("stratified(%d)", budget), taskpoint.Params{})
}

// TestStratifiedBeatsPlainOnDedup: dedup is the paper's poster child for
// input-dependent instance sizes (§V-B). At an equal detailed budget
// (B = the plain sampler's detailed-instance count), stratified sampling
// must report an execution-time error no worse than the plain size-class
// sampler on every seed.
func TestStratifiedBeatsPlainOnDedup(t *testing.T) {
	const scale, threads = 1.0 / 32, 8
	eng := taskpoint.NewEngine()
	for _, seed := range []uint64{1, 2, 3, 42} {
		plainErr, detailed := plainSizeClassRun(t, eng, "dedup", scale, seed, threads)
		stratErr := stratifiedRun(t, eng, "dedup", scale, seed, threads, detailed).ErrPct
		if stratErr > plainErr {
			t.Errorf("seed %d: stratified error %.2f%% > plain size-class error %.2f%% at equal budget %d",
				seed, stratErr, plainErr, detailed)
		}
	}
}

// TestStratifiedBeatsPlainOnFreqmine: freqmine's mine_subtree spans two
// orders of magnitude in instance size, so single-run errors are noisy in
// both configurations; the comparison is on the seed-averaged error at
// equal per-seed budgets.
func TestStratifiedBeatsPlainOnFreqmine(t *testing.T) {
	const scale, threads = 1.0 / 8, 8
	eng := taskpoint.NewEngine()
	var plainErrs, stratErrs []float64
	for _, seed := range []uint64{1, 3, 5, 6, 7} {
		plainErr, detailed := plainSizeClassRun(t, eng, "freqmine", scale, seed, threads)
		stratErr := stratifiedRun(t, eng, "freqmine", scale, seed, threads, detailed).ErrPct
		plainErrs = append(plainErrs, plainErr)
		stratErrs = append(stratErrs, stratErr)
	}
	plainMean, stratMean := stats.Mean(plainErrs), stats.Mean(stratErrs)
	if stratMean > plainMean {
		t.Errorf("stratified mean error %.2f%% > plain size-class mean error %.2f%% (per-seed: strat %v vs plain %v)",
			stratMean, plainMean, stratErrs, plainErrs)
	}
}

// TestStratifiedConfidenceCoversTruth: across the paper's input-dependent
// benchmarks and seeds, the detailed reference's total task cycles must
// fall inside every reported 95% confidence interval, and the interval
// must be meaningful (non-zero width, multiple strata).
//
// The guarantee is scoped to input-dependent workloads, whose residual
// ratio variance keeps the interval honest. Highly regular memory-bound
// workloads (sparse-matrix-vector-multiplication) collapse the ratio
// residuals to near zero while a steady-state contention bias of a few
// percent remains — shared-cache pressure in a sampled run never reaches
// the reference's steady state — so their intervals can undercover; see
// the "Confidence intervals" section of the README.
func TestStratifiedConfidenceCoversTruth(t *testing.T) {
	cases := []struct {
		bench   string
		scale   float64
		budget  int
		threads int
	}{
		{"dedup", 1.0 / 32, 150, 8},
		{"freqmine", 1.0 / 8, 160, 8},
	}
	eng := taskpoint.NewEngine()
	for _, tc := range cases {
		for _, seed := range []uint64{1, 2, 3, 4, 5, 42} {
			rep := stratifiedRun(t, eng, tc.bench, tc.scale, seed, tc.threads, tc.budget)
			conf := rep.Confidence
			trueTotal := rep.DetailedTaskCycles
			if !conf.Covers(trueTotal) {
				t.Errorf("%s seed %d: true total %.4g outside 95%% CI [%.4g, %.4g] (estimate %.4g)",
					tc.bench, seed, trueTotal, conf.Lo, conf.Hi, conf.Estimate)
			}
			if conf.RelWidth() <= 0 {
				t.Errorf("%s seed %d: degenerate interval %+v", tc.bench, seed, conf)
			}
			if conf.Strata < 2 {
				t.Errorf("%s seed %d: only %d strata", tc.bench, seed, conf.Strata)
			}
			if conf.Population != rep.Program.NumTasks() {
				t.Errorf("%s seed %d: population %d, want %d instances",
					tc.bench, seed, conf.Population, rep.Program.NumTasks())
			}
		}
	}
}
