// Package taskpoint is a reproduction of "TaskPoint: Sampled Simulation of
// Task-Based Programs" (Grass, Rico, Casas, Moreto, Ayguadé — ISPASS 2016)
// as a self-contained Go library.
//
// TaskPoint accelerates architectural simulation of dynamically scheduled
// task-based programs by using task instances as sampling units: a few
// instances per task type are simulated cycle by cycle to warm
// micro-architectural state and measure IPC; the remaining instances are
// fast-forwarded at the mean IPC of their type's sample history, so every
// thread advances at a rate matching the work it executes.
//
// The package bundles the full stack the paper builds on:
//
//   - a generative trace model for task-based programs (task types,
//     instances, dependencies, instruction-stream descriptors),
//   - an OmpSs-like dynamic scheduler over the task dependency graph,
//   - a TaskSim-like deterministic multi-core simulator with a detailed
//     mode (ROB-occupancy core model + caches/coherence/DRAM) and a
//     fixed-IPC burst mode,
//   - the TaskPoint sampling controller with periodic and lazy policies,
//   - the 19 benchmarks of the paper's Table I as synthetic workload
//     generators, and
//   - the evaluation harness regenerating every table and figure.
//
// # Quick start
//
//	prog := taskpoint.Benchmark("cholesky", 1.0/16, 42)
//	cfg := taskpoint.HighPerf(8)
//
//	detailed, _ := taskpoint.SimulateDetailed(cfg, prog)
//	sampled, stats, _ := taskpoint.SimulateSampled(cfg, prog,
//		taskpoint.DefaultParams(), taskpoint.LazyPolicy())
//
//	fmt.Printf("error %.2f%%, %.0fx fewer instructions in detail\n",
//		taskpoint.ErrorPct(sampled, detailed),
//		1/sampled.DetailFraction())
//	_ = stats
//
// See examples/ for runnable programs and docs/ARCHITECTURE.md for the
// system map.
package taskpoint

import (
	"io"

	"taskpoint/internal/arch"
	"taskpoint/internal/bench"
	"taskpoint/internal/core"
	"taskpoint/internal/engine"
	"taskpoint/internal/gen"
	"taskpoint/internal/gen/corpus"
	"taskpoint/internal/obs"
	"taskpoint/internal/obs/query"
	"taskpoint/internal/results"
	"taskpoint/internal/sim"
	"taskpoint/internal/stats"
	"taskpoint/internal/store"
	"taskpoint/internal/strata"
	"taskpoint/internal/sweep"
	"taskpoint/internal/trace"
)

// Re-exported core types. The facade keeps downstream users on one import
// path while the implementation lives in internal packages.
type (
	// Program is an application trace: task types, instances and
	// dependencies.
	Program = trace.Program
	// Instance is one task instance.
	Instance = trace.Instance
	// Segment describes a homogeneous instruction run of an instance.
	Segment = trace.Segment
	// TypeInfo names a task type.
	TypeInfo = trace.TypeInfo
	// Config describes a simulated machine.
	Config = sim.Config
	// Result is the outcome of one simulation.
	Result = sim.Result
	// Controller decides the simulation mode per task instance.
	Controller = sim.Controller
	// Params are TaskPoint's model parameters (W, H, rare cut-off...).
	Params = core.Params
	// Policy decides when a fast-forwarding simulation is resampled.
	Policy = core.Policy
	// Sampler is the TaskPoint controller.
	Sampler = core.Sampler
	// SamplerStats reports what the sampler did during a run.
	SamplerStats = core.Stats
	// Runner drives the paper's evaluation experiments.
	Runner = results.Runner
	// Pattern selects how a segment generates memory addresses.
	Pattern = trace.Pattern
	// StartInfo describes a task instance about to start (custom
	// controllers).
	StartInfo = sim.StartInfo
	// FinishInfo describes a completed task instance.
	FinishInfo = sim.FinishInfo
	// Decision is a controller's mode choice for one instance.
	Decision = sim.Decision
	// SweepSpec declares a design-space campaign (benchmarks ×
	// architectures × thread counts × policies × seeds).
	SweepSpec = sweep.Spec
	// SweepEngine executes a campaign over a bounded worker pool.
	SweepEngine = sweep.Engine
	// SweepRecord is one completed campaign cell (one JSONL line).
	SweepRecord = sweep.Record
	// SweepSummary aggregates one (arch, policy, threads) cell group.
	SweepSummary = sweep.Summary
	// Confidence is the stratified estimate of total task cycles with
	// its 95% confidence interval.
	Confidence = strata.Confidence
	// StratifiedConfig parameterises the two-phase stratified policy
	// (budget, pilot size, banding, confidence level).
	StratifiedConfig = strata.Config
	// Stratified is the two-phase stratified sampling policy, as built
	// by NewStratifiedPolicy or ParsePolicy("stratified(B)").
	Stratified = strata.Stratified
	// Scenario is a generated workload: a DAG pattern family plus its
	// knobs, named by a "gen:family(knob=value,...)" spec string.
	Scenario = gen.Scenario
	// ScenarioFamily is one DAG pattern family of the generator
	// (fork-join, pipeline, wavefront, divide-and-conquer, reduction
	// tree, irregular random graphs, deep chains).
	ScenarioFamily = gen.Family
	// ScenarioKnobs are the generator's orthogonal scenario parameters
	// (task count, width/depth, size distribution, variability, phases,
	// input dependence).
	ScenarioKnobs = gen.Knobs
	// CorpusSpec declares a generated accuracy-stress campaign: N
	// scenarios drawn across the family × knob grid, run under every
	// listed policy against the detailed reference. SweepSpec expands it
	// into the campaign NewSweep runs.
	CorpusSpec = corpus.Spec
	// Request declares one experiment cell for the unified engine: a
	// workload (Table I name or "gen:" scenario spec) on one architecture
	// at one thread count under one sampling policy. Zero-valued optional
	// fields select documented defaults.
	Request = engine.Request
	// Report is the outcome of one experiment cell: the sampled run, its
	// cached detailed reference, the derived accuracy and speedup
	// metrics, the sampler's statistics and — for confidence-reporting
	// policies — the stratified interval.
	Report = engine.Report
	// Engine is the unified, context-aware experiment engine behind the
	// evaluation Runner and the sweep engine. Build
	// one with NewEngine and drive it with Run or RunAll.
	Engine = engine.Engine
	// EngineOption configures NewEngine (WithWorkers, WithBaselineCache,
	// WithRecorder).
	EngineOption = engine.Option
	// BaselineCache caches generated programs and detailed reference
	// results across cells and engines.
	BaselineCache = engine.BaselineCache
	// CacheStats is a point-in-time view of a baseline cache's
	// hit/miss/eviction behaviour.
	CacheStats = engine.CacheStats
	// Recorder is the observability flight recorder: a bounded,
	// torn-tail-safe JSONL trace of the real execution (cell lifecycle,
	// cache outcomes, sampler decisions). A nil *Recorder is a valid
	// no-op — the free disabled path.
	Recorder = obs.Recorder
	// MetricsSnapshot is a point-in-time JSON form of the process-wide
	// metrics registry (counters, gauges, histograms).
	MetricsSnapshot = obs.Snapshot
	// TimelineSpan is one interval on a simulated timeline, in cycles.
	TimelineSpan = obs.TimelineSpan
	// TimelineProcess names a timeline process track and its threads.
	TimelineProcess = obs.Process
	// Span is a live interval in a flight-recorder trace: StartSpan on a
	// Recorder (or on a parent Span) emits a span.begin line, End the
	// matching span.end. The zero Span is a valid no-op, so span-
	// instrumented code needs no nil checks when tracing is disabled.
	Span = obs.Span
	// CampaignTrace is a parsed flight-recorder trace: the span tree plus
	// the raw events, as rebuilt by ReadSpans from the JSONL a Recorder
	// wrote. Interrupted traces parse too (Clean=false, open spans pinned
	// to the last observed timestamp).
	CampaignTrace = query.Trace
	// ObsqReport is the campaign cost report cmd/obsq prints: wall-clock
	// attribution by phase/cell/stratum, the critical path through the
	// worker pool, baseline-cache economics and straggler cells. Derived
	// purely from trace content, so the same trace always yields the
	// byte-identical report.
	ObsqReport = query.Report
	// DiskStore is the content-addressed persistent result store behind
	// the campaign service (cmd/taskpointd): detailed baseline results
	// and finished cell reports keyed by the SHA-256 of their request's
	// canonical form, in a local sharded tree (<root>/ab/cdef..., atomic
	// rename writes, checksum-verified reads that quarantine corrupt
	// entries). Open one with OpenStore.
	DiskStore = store.DiskStore
	// StoreStats is a point-in-time view of one DiskStore's traffic
	// (hits, misses, writes, quarantined entries).
	StoreStats = store.Stats
	// BaselineTier is the persistence seam under a BaselineCache: a
	// read-through/write-behind layer detailed references survive in
	// across processes. DiskStore.Tier() adapts a store into one;
	// install it with BaselineCache.SetTier.
	BaselineTier = engine.BaselineTier
)

// Detailed returns the decision that simulates an instance cycle-level.
func Detailed() Decision { return sim.Detailed() }

// Fast returns the decision that fast-forwards an instance at ipc.
func Fast(ipc float64) Decision { return sim.Fast(ipc) }

// Memory access patterns for custom workloads.
const (
	// PatStride walks a footprint with a fixed stride.
	PatStride = trace.PatStride
	// PatRandom draws uniform addresses from the footprint.
	PatRandom = trace.PatRandom
	// PatGaussian clusters accesses around a hot spot.
	PatGaussian = trace.PatGaussian
	// PatChase serialises loads (pointer chasing).
	PatChase = trace.PatChase
)

// HighPerf returns the paper's high-performance architecture (Table II)
// with the given thread count.
func HighPerf(threads int) Config { return sim.HighPerfConfig(threads) }

// LowPower returns the paper's low-power architecture (Table II).
func LowPower(threads int) Config { return sim.LowPowerConfig(threads) }

// DefaultParams returns the paper's selected parameters: W=2, H=4.
func DefaultParams() Params { return core.DefaultParams() }

// LazyPolicy returns lazy sampling (P = infinity): resampling only on
// unknown task types and parallelism changes.
func LazyPolicy() Policy { return core.Lazy{} }

// PeriodicPolicy returns periodic sampling with period p: the simulation is
// resampled whenever a thread retires p instances in fast-forward mode.
func PeriodicPolicy(p int) Policy { return core.Periodic{P: p} }

// NewStratifiedPolicy returns two-phase stratified sampling with a
// detailed budget of b task instances: a pilot phase measures every
// stratum (task type × size class × concurrency band), the remaining
// budget is Neyman-allocated by stratum variance, and the run reports a
// confidence interval. The policy is stateful: pass a fresh (or finished)
// value per run. It rejects budgets below one task instance with an
// error, the same failure mode as ParsePolicy("stratified(B)").
func NewStratifiedPolicy(b int) (Policy, error) {
	pol, err := strata.New(strata.DefaultConfig(b))
	if err != nil {
		return nil, err
	}
	return pol, nil
}

// ParsePolicy builds a policy from its textual name — "lazy",
// "periodic(250)", "stratified(400)" or the flag-friendly colon forms —
// the inverse of Policy.Name.
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// Benchmarks returns the names of the 19 Table I benchmarks in paper order.
func Benchmarks() []string { return bench.Names() }

// ErrUnknownName marks benchmark/scenario lookup failures caused by an
// unknown name (as opposed to malformed arguments of a known one) — the
// error class a "valid names" listing fixes. Test with errors.Is.
var ErrUnknownName = bench.ErrUnknownName

// ErrUnknownArch marks architecture lookup failures caused by a name that
// matches no machine configuration — the error class a "valid
// architectures" listing fixes, parallel to ErrUnknownName. Test with
// errors.Is.
var ErrUnknownArch = arch.ErrUnknown

// Arches returns the canonical architecture names in paper order
// (high-performance, low-power, native); Request.Arch also accepts the
// short forms "hp" and "lp".
func Arches() []string { return arch.Names() }

// ArchListing returns the human-readable "valid architectures" block
// front ends print under an ErrUnknownArch failure.
func ArchListing() string { return arch.Listing() }

// Benchmark generates one of the paper's benchmarks at the given scale
// (1.0 reproduces Table I instance counts) with a deterministic seed.
// It panics on an unknown name or invalid scale; use LookupBenchmark for
// error handling.
func Benchmark(name string, scale float64, seed uint64) *Program {
	spec, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	return spec.MustBuild(scale, seed)
}

// LookupBenchmark generates a benchmark, reporting errors instead of
// panicking.
func LookupBenchmark(name string, scale float64, seed uint64) (*Program, error) {
	spec, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Build(scale, seed)
}

// SimulateDetailed runs prog through the cycle-level detailed mode on cfg —
// the reference against which sampling error is measured.
func SimulateDetailed(cfg Config, prog *Program) (*Result, error) {
	return sim.Simulate(cfg, prog, sim.DetailedController{})
}

// SimulateSampled runs prog under TaskPoint with the given parameters and
// resampling policy, returning the result and the sampler's statistics.
func SimulateSampled(cfg Config, prog *Program, params Params, policy Policy) (*Result, SamplerStats, error) {
	sampler, err := core.New(params, policy)
	if err != nil {
		return nil, SamplerStats{}, err
	}
	res, err := sim.Simulate(cfg, prog, sampler)
	if err != nil {
		return nil, SamplerStats{}, err
	}
	return res, sampler.Stats(), nil
}

// SimulateWith runs prog under a custom Controller, for users implementing
// their own sampling policies on top of the simulator.
func SimulateWith(cfg Config, prog *Program, ctrl Controller) (*Result, error) {
	return sim.Simulate(cfg, prog, ctrl)
}

// ErrorPct returns the execution-time error of a sampled run against its
// detailed reference, in percent — the paper's accuracy metric.
func ErrorPct(sampled, detailed *Result) float64 {
	return stats.AbsPctError(sampled.Cycles, detailed.Cycles)
}

// NewEngine builds a unified experiment engine. Defaults: one worker slot
// per CPU, a private baseline cache, no progress observer. Every other
// driver of the repository — NewRunner, NewSweep and the
// command front ends — is a thin adapter over an Engine, so pooling,
// baseline caching and cell identity behave identically everywhere.
//
//	eng := taskpoint.NewEngine(taskpoint.WithWorkers(4))
//	rep, err := eng.Run(ctx, taskpoint.Request{Workload: "cholesky", Threads: 8})
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithWorkers bounds an engine's concurrently running simulations
// (minimum 1).
func WithWorkers(n int) EngineOption { return engine.WithWorkers(n) }

// WithBaselineCache shares a baseline cache across engines, so detailed
// references computed by one campaign are reused by the next.
func WithBaselineCache(c *BaselineCache) EngineOption { return engine.WithBaselineCache(c) }

// WithRecorder attaches a flight recorder to an engine: cell lifecycle,
// baseline-cache outcomes and sampler phase transitions are traced as
// JSONL events. A nil recorder (the default) costs nothing.
func WithRecorder(r *Recorder) EngineOption { return engine.WithRecorder(r) }

// NewBaselineCache returns an empty baseline cache for WithBaselineCache.
func NewBaselineCache() *BaselineCache { return engine.NewBaselineCache() }

// OpenStore opens (creating if needed) a content-addressed result store
// rooted at dir. Wire it under an engine's baseline cache to persist
// detailed references across processes:
//
//	st, _ := taskpoint.OpenStore("taskpoint-store")
//	cache := taskpoint.NewBaselineCache()
//	cache.SetTier(st.Tier())
//	eng := taskpoint.NewEngine(taskpoint.WithBaselineCache(cache))
func OpenStore(dir string) (*DiskStore, error) { return store.Open(dir) }

// ErrStoreNotFound reports a store lookup of an address with no valid
// entry; quarantined (corrupt) entries report it too. Test with
// errors.Is.
var ErrStoreNotFound = store.ErrNotFound

// ContentAddress returns the content address of an experiment cell: the
// SHA-256 (hex) of the canonical serialization of the request's
// normalized form. Every accepted spelling of one cell yields the same
// address; any semantic difference yields a different one. It is the key
// finished cell reports are stored under and the cross-campaign
// deduplication identity of the campaign server.
func ContentAddress(req Request) (string, error) { return store.ContentAddress(req) }

// BaselineAddress returns the content address of the request's detailed
// reference simulation: only workload, architecture, threads, scale and
// seed enter the hash, so every policy sweeping one cell shares its
// baseline entry.
func BaselineAddress(req Request) (string, error) { return store.BaselineAddress(req) }

// OpenRecorder opens (or creates) a flight-recorder trace file for
// appending, truncating a torn trailing line left by an interrupted run
// first. Close the recorder to flush the final "trace.end" event and
// release the file.
func OpenRecorder(path string) (*Recorder, error) { return obs.Open(path) }

// NewRecorder wraps an arbitrary writer in a flight recorder (the caller
// keeps ownership of the writer).
func NewRecorder(w io.Writer) *Recorder { return obs.NewRecorder(w) }

// ReadSpans parses a flight-recorder JSONL trace into its span tree.
// The reader sorts events into the recorder's deterministic order, repairs
// a torn final line in memory (never touching the source), and keeps
// spans left open by an interrupted campaign, pinned to the last observed
// timestamp.
func ReadSpans(r io.Reader) (*CampaignTrace, error) { return query.ReadSpans(r) }

// AnalyzeTrace computes the campaign cost report over a parsed trace —
// the same analysis cmd/obsq runs, available in-process.
func AnalyzeTrace(t *CampaignTrace) *ObsqReport { return query.Analyze(t) }

// AnalyzeTraceFile reads and analyzes a flight-recorder trace file,
// including the live trace of a still-running campaign.
func AnalyzeTraceFile(path string) (*ObsqReport, error) { return query.AnalyzeFile(path) }

// Metrics returns a point-in-time snapshot of the process-wide metrics
// registry: engine cell throughput and latency, baseline-cache behaviour,
// stratified-sampler budget spending and interval widths, and simulation
// kernel volume.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// WriteTimeline renders a report's simulated execution — the per-core
// task schedule of the sampled run and its detailed reference — as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing. Simulated
// cycles map 1:1 to trace microseconds. The sampled run is pid 1, the
// detailed reference pid 2.
func WriteTimeline(w io.Writer, rep Report) error {
	var procs []TimelineProcess
	var spans []TimelineSpan
	if rep.Sampled != nil {
		p := rep.Sampled.TimelineProcess(rep.Program, 1)
		p.Name = "sampled " + p.Name
		procs = append(procs, p)
		spans = append(spans, rep.Sampled.TimelineSpans(rep.Program, 1)...)
	}
	if rep.Detailed != nil {
		p := rep.Detailed.TimelineProcess(rep.Program, 2)
		p.Name = "detailed " + p.Name
		procs = append(procs, p)
		spans = append(spans, rep.Detailed.TimelineSpans(rep.Program, 2)...)
	}
	return obs.WriteTimeline(w, procs, spans)
}

// NewRunner builds an evaluation runner at the given benchmark scale with
// the given worker parallelism; it caches detailed baselines across
// experiments. Seed drives workload generation and the noise model.
// Runner.WithContext binds a cancellation context to every simulation the
// runner starts.
func NewRunner(scale float64, seed uint64, workers int) *Runner {
	return results.NewRunner(scale, seed, workers)
}

// NewSweep validates a campaign spec and builds its sweep engine with the
// given worker parallelism. See cmd/sweep for the command-line front end.
func NewSweep(spec SweepSpec, workers int) (*SweepEngine, error) {
	return sweep.New(spec, workers)
}

// DefaultSweepSpec returns a small representative campaign: four
// benchmark classes × both Table II architectures × two thread counts ×
// both §V-C resampling policies.
func DefaultSweepSpec() SweepSpec { return sweep.DefaultSpec() }

// LoadSweep reads the JSONL stream of a previous campaign, keyed by cell,
// for resuming an interrupted sweep via SweepEngine.Run.
func LoadSweep(r io.Reader) (map[string]SweepRecord, error) {
	return sweep.LoadCompleted(r)
}

// SummarizeSweep folds campaign records into per-(arch, policy, threads)
// aggregates mirroring the averages of the paper's Figures 7-10.
func SummarizeSweep(recs []SweepRecord) []SweepSummary { return sweep.Summarize(recs) }

// RenderSweepSummary renders campaign aggregates as an aligned text table.
func RenderSweepSummary(title string, sums []SweepSummary) string {
	return sweep.RenderSummary(title, sums)
}

// WriteSweepCSV exports campaign records as CSV for post-processing.
func WriteSweepCSV(w io.Writer, recs []SweepRecord) error {
	return sweep.WriteCSV(w, recs)
}

// ScenarioFamilies returns the generator's DAG pattern families in fixed
// order. Their names combine with knobs into "gen:family(knob=value,...)"
// specs accepted everywhere a benchmark name is.
func ScenarioFamilies() []*ScenarioFamily { return gen.Families() }

// ParseScenario builds a generated-workload scenario from its strict
// "gen:family(knob=value,...)" spec string, the inverse of Scenario.Spec.
func ParseScenario(spec string) (*Scenario, error) { return gen.Parse(spec) }

// DefaultCorpus returns a generated accuracy-stress campaign of n
// scenarios at the default grid: all pattern families, the
// high-performance architecture at 4 threads, lazy/periodic/stratified
// policies, master seed 42. A corpus is a sweep: run it with
// NewSweep(spec.SweepSpec()) and summarise it with SummarizeSweep, or
// from the command line with cmd/sweep -corpus n.
func DefaultCorpus(n int) CorpusSpec { return corpus.DefaultSpec(n) }
