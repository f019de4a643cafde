// Package engine is the unified experiment engine: one context-aware,
// cancellable entry point that turns a Request (workload × architecture ×
// threads × parameters × policy) into a Report (sampled result, sampler
// statistics, accuracy against the cached detailed reference, optional
// confidence interval).
//
// Every driver of the repository routes through it — the evaluation
// runner (internal/results), the design-space sweep engine
// (internal/sweep, which also runs generated accuracy corpora) and the
// command front ends — so worker pooling, baseline caching and
// cell identity exist exactly once.
package engine

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"taskpoint/internal/arch"
	"taskpoint/internal/core"
	"taskpoint/internal/obs"
	"taskpoint/internal/sim"
	"taskpoint/internal/stats"
	"taskpoint/internal/strata"
	"taskpoint/internal/trace"

	// Register the "gen:" scenario resolver so generated workloads run
	// wherever a Table I benchmark name does, mirroring how the strata
	// import below registers the "stratified" policy parser.
	_ "taskpoint/internal/gen"
)

// Report is the outcome of one experiment cell: the sampled run, its
// detailed reference, and the derived accuracy/speedup metrics every
// consumer reports.
type Report struct {
	// Request echoes the executed request in normalized form: defaults
	// filled, architecture and policy names canonical. Request.Key() is
	// the cell's durable identity.
	Request Request
	// Program is the generated workload the cell simulated.
	Program *trace.Program
	// Config is the resolved machine configuration.
	Config sim.Config
	// Sampled and Detailed are the two simulation results; Detailed is
	// shared with every other cell of the same baseline via the engine's
	// cache.
	Sampled  *sim.Result
	Detailed *sim.Result
	// Sampler reports the sampling controller's internal statistics.
	Sampler core.Stats
	// Confidence is the stratified estimate of total task cycles with
	// its confidence interval; nil unless the policy reports one.
	Confidence *strata.Confidence
	// ErrPct is the absolute execution-time error of the sampled run
	// against the detailed reference, in percent — the paper's accuracy
	// metric.
	ErrPct float64
	// SpeedupWall is detailed wall time / sampled wall time.
	SpeedupWall float64
	// SpeedupDetail is total instructions / instructions simulated in
	// detail — the machine-independent speedup proxy.
	SpeedupDetail float64
	// DetailFraction is the fraction of instructions simulated in detail.
	DetailFraction float64
	// DetailedTaskCycles is the detailed reference's total task execution
	// time (Σ per-instance durations) — the quantity a stratified
	// Confidence estimates.
	DetailedTaskCycles float64
	// SampledWall and DetailedWall are the host wall-clock times of the
	// two runs (the only non-deterministic fields of a report).
	SampledWall, DetailedWall time.Duration
}

// confidencePolicy is the optional policy surface the engine wires up:
// strata.Stratified implements it, and so can any future budgeted policy
// that prescans the program and reports a confidence interval.
type confidencePolicy interface {
	core.Policy
	Prescan(prog *trace.Program)
	Confidence() strata.Confidence
}

// Engine executes experiment requests over a bounded worker pool with a
// shared baseline cache. The zero configuration is usable: New() gives
// one worker slot per CPU and a private cache. Engines are safe for
// concurrent use.
type Engine struct {
	workers   int
	cache     *BaselineCache
	rec       *obs.Recorder
	cellFault func(key string) error
	pool      *pool
}

// Engine metrics in the default registry: cell throughput and latency,
// worker-pool occupancy, and baseline computation volume. The baseline
// cache's hit/miss/eviction counters live in cache.go.
var (
	metricCellsCompleted = obs.Default().Counter("engine.cells.completed")
	metricCellsFailed    = obs.Default().Counter("engine.cells.failed")
	metricCellsPanicked  = obs.Default().Counter("engine.cells.panicked")
	metricCellWallMS     = obs.Default().Histogram("engine.cell.wall_ms")
	metricWorkersBusy    = obs.Default().Gauge("engine.workers.busy")
	metricBaselineRuns   = obs.Default().Counter("engine.baseline.computed")
)

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the number of concurrently running simulations
// (minimum 1): it sizes the engine's one worker pool, which RunAll
// campaigns and concurrent Run callers share.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithBaselineCache shares an existing baseline cache, so detailed
// references computed by other engines (or earlier campaigns in the same
// process) are reused instead of re-simulated.
func WithBaselineCache(c *BaselineCache) Option {
	return func(e *Engine) {
		if c != nil {
			e.cache = c
		}
	}
}

// WithRecorder attaches a flight recorder: the engine emits cell
// lifecycle, baseline-computation and sampler-decision events to it. A
// nil recorder (the default) is the free disabled path — the same call
// sites compile to immediate returns.
func WithRecorder(r *obs.Recorder) Option {
	return func(e *Engine) { e.rec = r }
}

// WithCellFault installs a fault hook invoked with the cell key at the
// start of every Run, inside the engine's panic-recovery boundary. It is
// the per-cell seam of internal/fault: the hook may return an error (the
// cell fails cleanly) or panic (the cell fails as a PanicError, like any
// other poisoned cell). A nil hook (the default) costs nothing.
func WithCellFault(fn func(key string) error) Option {
	return func(e *Engine) { e.cellFault = fn }
}

// PanicError is the structured error a recovered per-cell panic turns
// into: a poisoned scenario fails its own cell — with the panic value
// and stack preserved for diagnosis — instead of killing the campaign
// that contains it (or the server running that campaign).
type PanicError struct {
	// Key is the panicking cell's identity (Request.Key()).
	Key string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: cell %s panicked: %v", p.Key, p.Value)
}

// New builds an engine. Defaults: one worker slot per CPU, a fresh
// private baseline cache, no progress observer.
func New(opts ...Option) *Engine {
	e := &Engine{workers: runtime.NumCPU(), cache: NewBaselineCache()}
	if e.workers < 1 {
		e.workers = 1
	}
	for _, o := range opts {
		o(e)
	}
	e.pool = newPool(e.workers)
	return e
}

// Workers returns the engine's worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// DispatchWindow is how many cells a campaign keeps in flight at once:
// enough beyond the worker slots that a cell waiting on another cell's
// computation leaves its slot to a cell with work to do, and few enough
// that the reorder buffer of an ordered campaign stays small.
func (e *Engine) DispatchWindow() int { return max(4*e.workers, 8) }

// Cache returns the engine's baseline cache (shared or private).
func (e *Engine) Cache() *BaselineCache { return e.cache }

// Baseline returns the (cached) detailed reference simulation of the
// request's (workload, arch, threads, scale, seed) cell — the run every
// sampled result is measured against. The request's policy and sampling
// parameters are irrelevant and ignored. Like a cell, it runs under a
// worker slot of the engine's pool.
func (e *Engine) Baseline(ctx context.Context, req Request) (*sim.Result, error) {
	n := req.normalized()
	a, err := arch.Parse(n.Arch)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	s := e.pool.join()
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	res, _, err := e.detailedFor(ctx, s, detailedKey(n, a), func() (*sim.Engine, error) {
		prog, err := e.cache.program(progKeyOf(n), s.wait(ctx))
		if err != nil {
			return nil, err
		}
		cfg, err := arch.ConfigFor(a, n.Threads)
		if err != nil {
			return nil, err
		}
		return sim.NewEngine(cfg, prog, arch.SimOptions(a, n.Seed, n.Threads)...)
	})
	return res, err
}

// progKeyOf is the cache identity of a cell's program.
func progKeyOf(n Request) progKey {
	return progKey{workload: n.Workload, scale: n.Scale, seed: n.Seed}
}

// detailedKey is the cache identity of a cell's detailed reference.
func detailedKey(n Request, a arch.Arch) detKey {
	return detKey{progKey: progKeyOf(n), arch: string(a), threads: n.Threads}
}

// detailedFor returns key's detailed reference through the cache. When
// the calling cell leads the key's flight, it builds a simulation engine
// with newSim and runs the reference on it, returning that engine so the
// cell can Reset and reuse it; otherwise the returned engine is nil. The
// result is the cache's canonical value for the key either way.
func (e *Engine) detailedFor(ctx context.Context, s *slot, key detKey, newSim func() (*sim.Engine, error)) (*sim.Result, *sim.Engine, error) {
	ident := []obs.Field{obs.String("workload", key.workload), obs.String("arch", key.arch), obs.Int("threads", key.threads)}
	var se *sim.Engine
	res, how, err := e.cache.detailed(key, s.wait(ctx), func() (*sim.Result, error) {
		e.rec.Emit("cache.miss", ident...)
		// wall_ms on span.end is the pure simulation time — the quantity a
		// later cache.hit on the same (workload, arch, threads) saves.
		sp := obs.ChildSpan(ctx, e.rec, "baseline", ident...)
		var err error
		if se, err = newSim(); err != nil {
			sp.End(obs.String("status", "error"))
			return nil, err
		}
		res, err := se.RunContext(ctx, sim.DetailedController{})
		if err != nil {
			sp.End(obs.String("status", "error"))
			return nil, err
		}
		metricBaselineRuns.Inc()
		sp.End(obs.String("status", "ok"), obs.Float("wall_ms", float64(res.Wall.Microseconds())/1e3))
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	switch how {
	case lookupHit:
		e.rec.Emit("cache.hit", ident...)
	case lookupJoined:
		e.rec.Emit("cache.hit", append(ident, obs.Bool("joined", true))...)
	}
	return res, se, nil
}

// Run executes one experiment cell: the detailed reference (cached), the
// sampled run under the request's policy, and the comparison between
// them. Cancellation of ctx abandons the cell mid-simulation with ctx's
// error.
//
// A cell takes one worker slot of the engine's pool before it starts and
// holds it for all of its CPU work — program build, simulator set-up,
// the detailed reference if it computes it, the sampled run — lending it
// back only while it waits on another cell's computation of a program or
// reference it needs. Slots go to the oldest cell first.
//
// A cell that computes the detailed reference reuses its simulation
// engine (sim.Engine.Reset) for the sampled run, so the expensive
// simulator state — cache arrays, core rings, scheduler storage — is
// paid once per cell instead of once per run. Reset restores the engine
// (including the native architecture's noise model) bit-for-bit, so the
// results are identical to building two engines.
func (e *Engine) Run(ctx context.Context, req Request) (Report, error) {
	return e.runCell(ctx, req, e.pool.join())
}

// runCell is Run for a cell that has joined the pool: RunAll joins its
// cells in request order, so a campaign's cells take slots oldest first.
func (e *Engine) runCell(ctx context.Context, req Request, s *slot) (Report, error) {
	n := req.normalized()
	key := n.Key()
	if err := s.acquire(ctx); err != nil {
		metricCellsFailed.Inc()
		return Report{}, err
	}
	defer s.release()
	sp := obs.ChildSpan(ctx, e.rec, "cell",
		obs.String("key", key),
		obs.String("workload", n.Workload),
		obs.String("arch", n.Arch),
		obs.Int("threads", n.Threads),
		obs.String("policy", n.Policy),
		obs.Uint64("seed", n.Seed))
	ctx = obs.ContextWithSpan(ctx, sp)
	// The body runs under the pprof label cell=<key>, so every CPU or
	// goroutine profile sample it takes, baseline run included, names
	// its cell: `go tool pprof -tagfocus 'cell=<key>'` isolates one.
	var rep Report
	var err error
	pprof.Do(ctx, pprof.Labels("cell", key), func(ctx context.Context) {
		rep, err = e.runSafe(ctx, req, key, s)
	})
	if err != nil {
		metricCellsFailed.Inc()
		sp.Emit("cell.error", obs.String("key", key), obs.String("err", err.Error()))
		sp.End(obs.String("status", "error"))
		return rep, err
	}
	metricCellsCompleted.Inc()
	wallMS := float64((rep.SampledWall + rep.DetailedWall).Microseconds()) / 1e3
	metricCellWallMS.Observe(wallMS)
	sp.End(
		obs.String("status", "ok"),
		obs.Float("err_pct", rep.ErrPct),
		obs.Float("detail_fraction", rep.DetailFraction),
		obs.Float("wall_ms", wallMS))
	return rep, nil
}

// runSafe is the engine's panic boundary: a panic anywhere in the cell
// body — a poisoned generated scenario, a simulator bug on a pathological
// configuration, an injected fault — is recovered into a structured
// PanicError so the cell fails and the campaign continues. The cellFault
// hook fires first, inside the boundary, so injected panics take the
// same recovery path as organic ones.
func (e *Engine) runSafe(ctx context.Context, req Request, key string, s *slot) (rep Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			metricCellsPanicked.Inc()
			err = &PanicError{Key: key, Value: v, Stack: debug.Stack()}
		}
	}()
	if e.cellFault != nil {
		if ferr := e.cellFault(key); ferr != nil {
			return Report{}, ferr
		}
	}
	return e.run(ctx, req, s)
}

func (e *Engine) run(ctx context.Context, req Request, s *slot) (Report, error) {
	n, policy, err := req.resolve()
	if err != nil {
		return Report{}, err
	}
	a := arch.Arch(n.Arch)
	prog, err := e.cache.program(progKeyOf(n), s.wait(ctx))
	if err != nil {
		return Report{}, err
	}
	cfg, err := arch.ConfigFor(a, n.Threads)
	if err != nil {
		return Report{}, err
	}
	newSim := func() (*sim.Engine, error) {
		return sim.NewEngine(cfg, prog, arch.SimOptions(a, n.Seed, n.Threads)...)
	}
	det, se, err := e.detailedFor(ctx, s, detailedKey(n, a), newSim)
	if err != nil {
		return Report{}, err
	}
	if se != nil {
		err = se.Reset(nil)
	} else {
		se, err = newSim()
	}
	if err != nil {
		return Report{}, err
	}
	params := n.Params
	strat, _ := policy.(confidencePolicy)
	if strat != nil {
		// A confidence-reporting policy is prescanned over the program
		// (exact stratum populations) and implies size-class histories.
		strat.Prescan(prog)
		params.SizeClasses = true
	}
	sampler, err := core.New(params, policy)
	if err != nil {
		return Report{}, err
	}
	sampler.SetTrace(e.rec, n.Key())
	// The sampled-phase span nests under the cell span Run put in ctx; a
	// tracing-aware policy (strata.Stratified) opens its pilot/allocation/
	// directed phase spans beneath it.
	ssp := obs.ChildSpan(ctx, e.rec, "sampled")
	if tr, ok := policy.(interface {
		SetTrace(*obs.Recorder, obs.Span)
	}); ok {
		tr.SetTrace(e.rec, ssp)
	}
	res, err := se.RunContext(ctx, sampler)
	if err != nil {
		ssp.End(obs.String("status", "error"))
		return Report{}, err
	}
	ssp.End(obs.String("status", "ok"), obs.Float("wall_ms", float64(res.Wall.Microseconds())/1e3))

	rep := Report{
		Request:            n,
		Program:            prog,
		Config:             cfg,
		Sampled:            res,
		Detailed:           det,
		Sampler:            sampler.Stats(),
		ErrPct:             stats.AbsPctError(res.Cycles, det.Cycles),
		SpeedupDetail:      float64(res.TotalInstructions) / float64(max(res.DetailedInstructions, 1)),
		DetailFraction:     res.DetailFraction(),
		DetailedTaskCycles: det.TotalTaskCycles(),
		SampledWall:        res.Wall,
		DetailedWall:       det.Wall,
	}
	if res.Wall > 0 {
		rep.SpeedupWall = float64(det.Wall) / float64(res.Wall)
	}
	if strat != nil {
		conf := strat.Confidence()
		rep.Confidence = &conf
	}
	return rep, nil
}

// RunAll executes the requests across the engine's worker pool and yields
// one (Report, error) pair per request, in request order regardless of
// worker count or completion order — so record streams derived from the
// sequence are deterministic. A failing cell yields its error and the
// iteration continues; once ctx is cancelled, in-flight simulations stop
// promptly and every remaining request yields ctx's error. Breaking out
// of the iteration cancels the outstanding work.
//
// Dispatch is throttled to a bounded window ahead of the yield frontier
// (DispatchWindow), so the reorder buffer holds at most a few reports
// (with their full per-instance results) even when one slow early cell
// stalls the ordered output of a huge campaign. Every dispatched cell
// runs at once, and the engine's worker pool decides which of them
// simulates: the window's cells that wait on another cell's reference
// hold no worker slot, so they never idle a core.
func (e *Engine) RunAll(ctx context.Context, reqs []Request) iter.Seq2[Report, error] {
	return func(yield func(Report, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		camp := obs.ChildSpan(ctx, e.rec, "campaign",
			obs.Int("requests", len(reqs)), obs.Int("workers", e.workers))
		ctx = obs.ContextWithSpan(ctx, camp)
		completed := 0
		defer func() {
			camp.End(obs.Int("requests", len(reqs)), obs.Int("completed", completed))
		}()

		type outcome struct {
			idx int
			rep Report
			err error
		}
		// Buffered to the full request count so producers never block:
		// an early break from the consumer cannot strand a goroutine.
		out := make(chan outcome, len(reqs))
		// Dispatch credits: one is taken per dispatched request and
		// returned per yielded outcome, bounding dispatched-but-unyielded
		// work (and with it the reorder buffer) to the window size.
		window := e.DispatchWindow()
		credits := make(chan struct{}, window)
		for range window {
			credits <- struct{}{}
		}
		go func() {
			for i, req := range reqs {
				// Undispatched requests fail with the cancellation error;
				// dispatched ones report through their own goroutine.
				select {
				case <-credits:
				case <-ctx.Done():
					for j := i; j < len(reqs); j++ {
						out <- outcome{idx: j, err: fmt.Errorf("engine: request %s: %w", reqs[j].Key(), ctx.Err())}
					}
					return
				}
				// Cells join the pool in request order, so it serves the
				// campaign's oldest cells first.
				s := e.pool.join()
				go func() {
					rep, err := e.runCell(ctx, req, s)
					if err != nil {
						err = fmt.Errorf("engine: request %s: %w", req.Key(), err)
					}
					out <- outcome{idx: i, rep: rep, err: err}
				}()
			}
		}()

		pending := make(map[int]outcome)
		next := 0
		for received := 0; received < len(reqs); received++ {
			o := <-out
			pending[o.idx] = o
			for {
				po, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				// Return the dispatch credit non-blockingly: after a
				// cancellation the feeder emits the tail without taking
				// credits, so the channel may already be full.
				select {
				case credits <- struct{}{}:
				default:
				}
				if po.err == nil {
					completed++
				}
				if !yield(po.rep, po.err) {
					return
				}
			}
		}
	}
}
