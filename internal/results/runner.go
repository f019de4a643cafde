// Package results drives the paper's evaluation: it runs detailed
// (reference) and sampled simulations over the 19 benchmarks and both
// Table II architectures, computes the execution-time error and simulation
// speedup of Figures 6-10, the IPC-variation box plots of Figures 1 and 5,
// and the Table I inventory, and renders them as the rows/series the paper
// reports.
//
// Since the unified experiment engine (internal/engine) was introduced,
// Runner is a thin adapter over it: worker pooling, baseline caching and
// cell identity live in the engine; this package keeps the paper-shaped
// row types and rendering.
package results

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"time"

	"taskpoint/internal/arch"
	"taskpoint/internal/bench"
	"taskpoint/internal/core"
	"taskpoint/internal/engine"
	"taskpoint/internal/sim"
	"taskpoint/internal/stats"
	"taskpoint/internal/strata"
	"taskpoint/internal/trace"
)

// Arch selects one of the evaluated machine configurations. It is an
// alias of arch.Arch — the architecture registry lives in internal/arch.
type Arch = arch.Arch

// The evaluated architectures.
const (
	// HighPerf is Table II's high-performance configuration.
	HighPerf = arch.HighPerf
	// LowPower is Table II's low-power configuration.
	LowPower = arch.LowPower
	// Native is the high-performance configuration plus the system-noise
	// model, standing in for the paper's SandyBridge-EP machine (Fig 1).
	Native = arch.Native
)

// Runner executes and caches simulations through the unified experiment
// engine. Detailed reference runs are cached by (benchmark, arch,
// threads), so every figure shares its baselines. Runner is safe for
// concurrent use.
type Runner struct {
	// Scale is the benchmark scale (1 = Table I instance counts).
	Scale float64
	// Seed drives workload generation and the noise model.
	Seed uint64
	// Workers bounds concurrent simulations.
	Workers int

	// ctx, when set via WithContext, cancels every simulation the runner
	// starts; nil means context.Background().
	ctx context.Context

	// eng is shared by the runner and every context-bound view of it
	// (WithContext), so all views share one baseline cache and one worker
	// pool.
	eng *engine.Engine
}

// NewRunner builds a runner at the given benchmark scale.
func NewRunner(scale float64, seed uint64, workers int) *Runner {
	return NewCachedRunner(scale, seed, workers, nil)
}

// NewCachedRunner builds a runner whose generated programs and detailed
// reference simulations live in the caller's shared cache, so runners
// created for separate figures (or separate benchmark iterations) stop
// re-simulating identical baselines. Results are unaffected: the cache
// key pins the full cell identity. A nil cache gives the runner a
// private one.
func NewCachedRunner(scale float64, seed uint64, workers int, cache *engine.BaselineCache) *Runner {
	if workers < 1 {
		workers = 1
	}
	opts := []engine.Option{engine.WithWorkers(workers)}
	if cache != nil {
		opts = append(opts, engine.WithBaselineCache(cache))
	}
	return &Runner{Scale: scale, Seed: seed, Workers: workers, eng: engine.New(opts...)}
}

// WithContext returns a view of the runner whose simulations are
// cancelled when ctx is: the paper-figure drivers (cmd/experiments) bind
// a signal context once instead of threading it through every call. The
// view shares the runner's engine, baseline cache and worker pool.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	return &Runner{Scale: r.Scale, Seed: r.Seed, Workers: r.Workers, ctx: ctx, eng: r.eng}
}

func (r *Runner) context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// request is the engine request of one runner cell.
func (r *Runner) request(benchName string, a Arch, threads int) engine.Request {
	return engine.Request{
		Workload: benchName,
		Arch:     string(a),
		Threads:  threads,
		Scale:    r.Scale,
		Seed:     r.Seed,
	}
}

// Program returns the (cached) generated program of a benchmark.
func (r *Runner) Program(name string) (*trace.Program, error) {
	return r.eng.Cache().Program(name, r.Scale, r.Seed)
}

// Detailed runs (or returns the cached) full-detail reference simulation.
func (r *Runner) Detailed(benchName string, a Arch, threads int) (*sim.Result, error) {
	return r.eng.Baseline(r.context(), r.request(benchName, a, threads))
}

// SampledRow is one bar of Figures 7-10: one benchmark at one thread count
// under one sampling configuration.
type SampledRow struct {
	Bench   string
	Arch    Arch
	Threads int
	// ErrPct is the absolute execution-time error against the detailed
	// reference, in percent.
	ErrPct float64
	// SpeedupWall is detailed wall time / sampled wall time — the
	// paper's speedup metric.
	SpeedupWall float64
	// SpeedupDetail is total instructions / instructions simulated in
	// detail — a machine-independent speedup proxy.
	SpeedupDetail float64
	// DetailFraction is the fraction of instructions simulated in
	// detail during the sampled run.
	DetailFraction float64
	// Sampler reports the sampler's internal statistics.
	Sampler core.Stats
	// Cycles are the simulated execution times.
	SampledCycles, DetailedCycles float64
	// DetailedTaskCycles is the detailed reference's total task
	// execution time (Σ per-instance durations) — the quantity the
	// stratified Confidence estimates.
	DetailedTaskCycles float64
	// Confidence is the stratified cycle estimate with its confidence
	// interval; nil unless the run's policy was strata.Stratified.
	Confidence *strata.Confidence
	// Wall times of both runs.
	SampledWall, DetailedWall time.Duration
}

// RowOf folds an engine report into the figure-row shape of this package.
func RowOf(rep engine.Report) SampledRow {
	return SampledRow{
		Bench:              rep.Request.Workload,
		Arch:               Arch(rep.Request.Arch),
		Threads:            rep.Request.Threads,
		ErrPct:             rep.ErrPct,
		SpeedupWall:        rep.SpeedupWall,
		SpeedupDetail:      rep.SpeedupDetail,
		DetailFraction:     rep.DetailFraction,
		Sampler:            rep.Sampler,
		SampledCycles:      rep.Sampled.Cycles,
		DetailedCycles:     rep.Detailed.Cycles,
		DetailedTaskCycles: rep.DetailedTaskCycles,
		Confidence:         rep.Confidence,
		SampledWall:        rep.SampledWall,
		DetailedWall:       rep.DetailedWall,
	}
}

// Sampled runs one sampled simulation and compares it against the cached
// detailed reference. A confidence-reporting policy (strata.Stratified)
// is prescanned over the program (exact stratum populations) and implies
// size-class histories; its confidence interval lands in the row.
func (r *Runner) Sampled(benchName string, a Arch, threads int, params core.Params, policy core.Policy) (SampledRow, error) {
	req := r.request(benchName, a, threads)
	req.Params = params
	req.PolicyValue = policy
	rep, err := r.eng.Run(r.context(), req)
	if err != nil {
		return SampledRow{}, err
	}
	return RowOf(rep), nil
}

// Figure runs the full grid of one of Figures 7-10: every benchmark at
// every thread count under the given sampling parameters and policy.
// Rows are ordered benchmark-major in Table I order. Policies whose name
// fully round-trips through core.ParsePolicy (lazy, periodic — the
// figure policies) are rebuilt fresh per cell, so stateful policies
// never share state across the grid; anything the name cannot faithfully
// reproduce (custom configurations, custom policy types) runs as a
// shared value, like it always did.
func (r *Runner) Figure(a Arch, threadCounts []int, params core.Params, policy core.Policy, benchNames []string) ([]SampledRow, error) {
	if benchNames == nil {
		benchNames = bench.Names()
	}
	name := policy.Name()
	var value core.Policy
	if rebuilt, err := core.ParsePolicy(name); err != nil || !reflect.DeepEqual(rebuilt, policy) {
		// The textual name does not reconstruct this exact policy
		// (unregistered custom type, non-default configuration, or
		// carried-over run state) — pass the caller's value through
		// rather than silently substituting the default build.
		value = policy
	}
	reqs := make([]engine.Request, 0, len(benchNames)*len(threadCounts))
	for _, bn := range benchNames {
		for _, tc := range threadCounts {
			req := r.request(bn, a, tc)
			req.Params = params
			req.Policy = name
			req.PolicyValue = value
			reqs = append(reqs, req)
		}
	}
	rows := make([]SampledRow, 0, len(reqs))
	for rep, err := range r.eng.RunAll(r.context(), reqs) {
		if err != nil {
			return nil, err
		}
		rows = append(rows, RowOf(rep))
	}
	return rows, nil
}

// Averages aggregates rows per thread count: mean error, mean wall
// speedup and geometric-mean detail speedup (the paper reports averages
// per thread count in Figures 7-10).
type Averages struct {
	Threads        int
	MeanErrPct     float64
	MaxErrPct      float64
	MeanSpeedupW   float64
	GeoSpeedupDet  float64
	MeanDetailFrac float64
}

// Aggregate folds per-run metrics into the averages the paper reports for
// a group of runs: mean and max error, mean wall speedup, geometric-mean
// detail speedup and mean detail fraction. All slices must have the same
// length (one entry per run). It is shared by the figure averages here and
// the sweep engine's campaign summaries.
func Aggregate(errPct, wallSpeedup, detSpeedup, detailFrac []float64) Averages {
	maxErr := 0.0
	for _, e := range errPct {
		if e > maxErr {
			maxErr = e
		}
	}
	return Averages{
		MeanErrPct:     stats.Mean(errPct),
		MaxErrPct:      maxErr,
		MeanSpeedupW:   stats.Mean(wallSpeedup),
		GeoSpeedupDet:  stats.GeoMean(detSpeedup),
		MeanDetailFrac: stats.Mean(detailFrac),
	}
}

// AverageByThreads folds figure rows into per-thread-count averages, in
// ascending thread-count order — the column order of RenderSampled.
func AverageByThreads(rows []SampledRow) []Averages {
	byT := map[int][]SampledRow{}
	for _, row := range rows {
		byT[row.Threads] = append(byT[row.Threads], row)
	}
	var out []Averages
	for _, t := range slices.Sorted(maps.Keys(byT)) {
		group := byT[t]
		var errs, wall, det, frac []float64
		for _, row := range group {
			errs = append(errs, row.ErrPct)
			wall = append(wall, row.SpeedupWall)
			det = append(det, row.SpeedupDetail)
			frac = append(frac, row.DetailFraction)
		}
		avg := Aggregate(errs, wall, det, frac)
		avg.Threads = t
		out = append(out, avg)
	}
	return out
}
