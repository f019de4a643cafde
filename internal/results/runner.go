// Package results drives the paper's evaluation: it runs detailed
// (reference) and sampled simulations over the 19 benchmarks and both
// Table II architectures, computes the execution-time error and simulation
// speedup of Figures 6-10, the IPC-variation box plots of Figures 1 and 5,
// and the Table I inventory, and renders them as the rows/series the paper
// reports.
//
// Runner is a thin adapter over the unified experiment engine
// (internal/engine): worker pooling, baseline caching and cell identity
// live in the engine. A figure's cells are a sweep (internal/sweep): their
// records are sweep.Record and their averages sweep.Summarize, so this
// package keeps only the paper-shaped experiments and their rendering.
package results

import (
	"context"

	"taskpoint/internal/arch"
	"taskpoint/internal/bench"
	"taskpoint/internal/engine"
	"taskpoint/internal/sim"
	"taskpoint/internal/sweep"
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

// Figure runs the full grid of one of Figures 7-10: every benchmark at
// every thread count under the named policy ("lazy", "periodic(250)")
// with the paper's default W and H. The grid is a sweep.Spec whose cells
// run on the runner's shared engine, so every figure reuses the
// baselines of the others. Records come in the spec's cell order:
// benchmark-major, in Table I order when benchNames is nil.
func (r *Runner) Figure(a Arch, threadCounts []int, policy string, benchNames []string) ([]sweep.Record, error) {
	if benchNames == nil {
		benchNames = bench.Names()
	}
	spec := sweep.Spec{
		Scale:      r.Scale,
		Benchmarks: benchNames,
		Archs:      []string{string(a)},
		Threads:    threadCounts,
		Policies:   []string{policy},
		Seeds:      []uint64{r.Seed},
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	reqs := make([]engine.Request, len(cells))
	for i, c := range cells {
		reqs[i] = c.Request(spec)
	}
	recs := make([]sweep.Record, 0, len(cells))
	for rep, err := range r.eng.RunAll(r.context(), reqs) {
		if err != nil {
			return nil, err
		}
		recs = append(recs, sweep.RecordOf(cells[len(recs)], spec, rep))
	}
	return recs, nil
}
