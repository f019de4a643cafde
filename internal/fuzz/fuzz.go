// Package fuzz is the continuous adversarial accuracy fuzzer for the
// sampling estimators: a long-running driver that draws seeded scenarios
// from the generative engine (internal/gen) forever, runs every sampling
// policy against the detailed reference through the unified experiment
// engine (internal/engine), and flags cells that break the accuracy
// contract — a confidence interval that fails to cover the detailed
// reference, an interval narrower than the configured floor, or a
// worst-case error above the per-policy ceiling (internal/strata's
// violation classes).
//
// Accuracy validation by fixed corpus snapshot under-samples rare scenario
// shapes, exactly where two-phase stratified estimators hide their failure
// modes; this package makes it a continuously adversarial process the way
// random-but-valid program generators hunt compiler bugs. On a hit, a
// delta-debugging minimizer (Minimize) shrinks the failing gen: spec over
// the generator's shrink hooks — halve sizes, drop phases, step knobs
// toward family defaults — re-validating the violation at every step under
// a fixed re-seed protocol (the finding's request seed is held constant
// while the spec shrinks), and the minimal spec plus its expected failure
// signature is appended to a committed regression corpus
// (testdata/regression_corpus.jsonl) that a tier-1 test replays
// deterministically.
package fuzz

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"taskpoint/internal/arch"
	"taskpoint/internal/core"
	"taskpoint/internal/engine"
	"taskpoint/internal/gen"
	"taskpoint/internal/obs"
	"taskpoint/internal/strata"
)

// Fuzzer metrics in the default registry: round throughput and violation
// volume by class (the per-class counters are created on first hit).
var (
	metricRounds   = obs.Default().Counter("fuzz.rounds")
	metricFindings = obs.Default().Counter("fuzz.findings")
)

// Config parameterises a fuzz campaign. Zero values select the defaults
// noted per field; Normalized fills them.
type Config struct {
	// Rounds bounds the round space: rounds [0, Rounds) are drawn, and a
	// resumed campaign continues from its last completed round toward the
	// same bound. Zero means unbounded (stop via context deadline or
	// cancellation).
	Rounds int `json:"rounds,omitempty"`
	// Seed is the master seed: round i's scenario draw and request seed
	// both derive from it, so a campaign is identified by (Seed, knob
	// ranges) and two runs over the same rounds find identical
	// violations (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Arch and Threads fix the simulated machine (default
	// high-performance, 4 threads).
	Arch    string `json:"arch,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// Policies are the sampling policies under test (default lazy,
	// periodic(64) and stratified(96) — the stratified budget sits below
	// the drawn populations so estimation is genuinely partial).
	Policies []string `json:"policies,omitempty"`
	// Ceilings overrides the per-policy relative-error ceiling in
	// percent; CeilingFor falls back to 30% for confidence-reporting
	// policies and 60% for the rest.
	Ceilings map[string]float64 `json:"ceilings,omitempty"`
	// FloorRelErr is the interval floor the estimator is configured with
	// (strata.Config.MinRelErr), used to detect IntervalFloorMiss.
	// Default: the strata default config's floor.
	FloorRelErr float64 `json:"floor_rel_err,omitempty"`
	// Families restricts the scenario family pool (default: all).
	Families []string `json:"families,omitempty"`
	// MinTasks and MaxTasks bound the per-scenario instance draw
	// (default 64..384 — smaller than the accuracy corpus, so rounds are
	// fast and small-population estimator behaviour is stressed).
	MinTasks int `json:"min_tasks,omitempty"`
	MaxTasks int `json:"max_tasks,omitempty"`
	// Minimize shrinks every finding to a 1-minimal reproducer before
	// reporting it. Set by default in NewDefault-style callers; the
	// zero Config leaves it off because false is the zero value — use
	// cmd/estfuzz's -minimize flag or set it explicitly.
	Minimize bool `json:"minimize,omitempty"`
	// Workers bounds concurrent simulations (default NumCPU).
	Workers int `json:"-"`
	// Recorder, when non-nil, receives round/finding flight-recorder
	// events and is threaded into the experiment engine. Excluded from
	// the fingerprint and from serialized configs.
	Recorder *obs.Recorder `json:"-"`
	// SlowProfiler, when non-nil, is threaded into the experiment engine
	// so cells exceeding its threshold get a pprof CPU capture. Excluded
	// from the fingerprint and from serialized configs.
	SlowProfiler *obs.SlowProfiler `json:"-"`
}

// Normalized returns the config with every defaulted field filled — what
// the driver executes and what Fingerprint hashes.
func (c Config) Normalized() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Arch == "" {
		c.Arch = string(arch.HighPerf)
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if len(c.Policies) == 0 {
		c.Policies = []string{"lazy", "periodic(64)", "stratified(96)"}
	}
	if c.FloorRelErr == 0 {
		c.FloorRelErr = strata.DefaultConfig(1).MinRelErr
	}
	if len(c.Families) == 0 {
		c.Families = gen.FamilyNames()
	}
	if c.MinTasks == 0 {
		c.MinTasks = 64
	}
	if c.MaxTasks == 0 {
		c.MaxTasks = 384
	}
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// Validate checks the campaign configuration after normalisation.
func (c Config) Validate() error {
	n := c.Normalized()
	if n.Rounds < 0 {
		return fmt.Errorf("fuzz: rounds %d must be >= 0", n.Rounds)
	}
	if _, err := arch.Parse(n.Arch); err != nil {
		return fmt.Errorf("fuzz: %w", err)
	}
	if n.Threads < 1 {
		return fmt.Errorf("fuzz: threads %d must be >= 1", n.Threads)
	}
	for _, p := range n.Policies {
		if _, err := core.ParsePolicy(p); err != nil {
			return fmt.Errorf("fuzz: %w", err)
		}
	}
	for _, f := range n.Families {
		if _, err := gen.FamilyByName(f); err != nil {
			return fmt.Errorf("fuzz: %w", err)
		}
	}
	if n.MinTasks < 8 || n.MaxTasks < n.MinTasks {
		return fmt.Errorf("fuzz: task range [%d, %d] invalid (want 8 <= min <= max)", n.MinTasks, n.MaxTasks)
	}
	if n.FloorRelErr < 0 || n.FloorRelErr >= 1 {
		return fmt.Errorf("fuzz: floor %v out of range [0, 1)", n.FloorRelErr)
	}
	return nil
}

// Fingerprint identifies the round space: any two configs with equal
// fingerprints draw identical scenarios and request seeds for every round
// index, so resumable campaign state is portable exactly between them.
// Round bounds, worker counts and reporting knobs are deliberately
// excluded.
func (c Config) Fingerprint() string {
	n := c.Normalized()
	return fmt.Sprintf("seed=%d arch=%s threads=%d policies=%v families=%v tasks=[%d,%d] ceil=%v floor=%v",
		n.Seed, n.Arch, n.Threads, n.Policies, n.Families, n.MinTasks, n.MaxTasks, n.Ceilings, n.FloorRelErr)
}

// CeilingFor returns the relative-error ceiling (percent) applied to the
// named policy: the explicit Ceilings entry when present, otherwise 30%
// for stratified (confidence-reporting) policies and 60% for the rest —
// generous enough that hits are genuine tail events, not routine sampling
// error.
func (c Config) CeilingFor(policy string) float64 {
	if v, ok := c.Ceilings[policy]; ok {
		return v
	}
	if pol, err := core.ParsePolicy(policy); err == nil {
		if _, ok := pol.(interface{ Confidence() strata.Confidence }); ok {
			return 30
		}
	}
	return 60
}

// splitmix64 is the SplitMix64 finaliser, used to derive independent
// per-round seeds from the master seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RoundSeed is the request seed of round i — the seed the fixed re-seed
// protocol holds constant while a finding's spec shrinks, so minimization
// re-validates the violation in the exact cell it was found in.
func (c Config) RoundSeed(i int) uint64 {
	n := c.Normalized()
	return splitmix64(n.Seed ^ uint64(i)*0x9e3779b97f4a7c15)
}

// DrawRound returns round i's scenario. The draw is deterministic per
// (Seed, i) and independent of every other round, so campaigns are
// prefix-stable: resuming, extending or re-running a round space always
// reproduces the same scenarios. The knob grid is deliberately wider and
// nastier than the accuracy corpus's: widths to 128, depths to 16, the
// full CV/input-dependence ranges, log-uniform means.
func (c Config) DrawRound(i int) *gen.Scenario {
	n := c.Normalized()
	rng := rand.New(rand.NewPCG(n.Seed, 0xADE5A17^uint64(i)))
	fam, _ := gen.FamilyByName(n.Families[i%len(n.Families)])
	k := gen.DefaultKnobs()
	k.Tasks = n.MinTasks + rng.IntN(n.MaxTasks-n.MinTasks+1)
	k.Width = []int{1, 2, 4, 8, 16, 32, 64, 128}[rng.IntN(8)]
	k.Depth = 1 + rng.IntN(16)
	k.Types = 1 + rng.IntN(8)
	k.Size = gen.SizeDist(rng.IntN(4))
	k.Mean = int64(128 << rng.IntN(6))     // 128 .. 4096, log-uniform
	k.Mean += int64(rng.IntN(int(k.Mean))) // jitter within the octave
	k.CV = float64(rng.IntN(101)) / 100
	k.Phases = 1 + rng.IntN(4)
	k.InputDep = float64(rng.IntN(101)) / 100
	return &gen.Scenario{Family: fam, Knobs: k}
}

// Finding is one violating (scenario, policy) cell: the minimal reproducer
// plus its expected failure signature, in the exact shape committed to the
// regression corpus and replayed by the tier-1 gate. All fields are
// deterministic — a finding never carries host wall-clock state.
type Finding struct {
	// Round is the fuzz round that produced the finding.
	Round int `json:"round"`
	// Spec, Policy, Arch, Threads and Seed identify the violating cell;
	// Seed is the request seed of the fixed re-seed protocol.
	Spec    string `json:"spec"`
	Policy  string `json:"policy"`
	Arch    string `json:"arch"`
	Threads int    `json:"threads"`
	Seed    uint64 `json:"seed"`
	// CeilingPct and FloorRelErr record the thresholds the cell was
	// judged against, so replay applies the same contract.
	CeilingPct  float64 `json:"ceiling_pct"`
	FloorRelErr float64 `json:"floor_rel_err,omitempty"`
	// Classes is the failure signature: the violation classes observed,
	// in strata.Classify order.
	Classes []strata.ViolationClass `json:"classes"`
	// The cell's numbers at find time.
	ErrPct             float64 `json:"err_pct"`
	EstTotalCycles     float64 `json:"est_total_cycles,omitempty"`
	CILo               float64 `json:"ci_lo,omitempty"`
	CIHi               float64 `json:"ci_hi,omitempty"`
	DetailedTaskCycles float64 `json:"detailed_task_cycles,omitempty"`
	// MinimizedFrom is the originally drawn spec the minimizer shrank;
	// ShrinkTrials counts oracle runs it spent.
	MinimizedFrom string `json:"minimized_from,omitempty"`
	ShrinkTrials  int    `json:"shrink_trials,omitempty"`
	// Note annotates hand-committed corpus entries (boundary sentinels).
	Note string `json:"note,omitempty"`
}

// Key is the finding's cell identity, shared with every other durable
// record of the repository (engine.CellKey) — the corpus dedup key.
func (f Finding) Key() string {
	return engine.CellKey(f.Spec, f.Arch, f.Threads, f.Policy, f.Seed)
}

// Driver runs fuzz rounds over one experiment engine. Rounds execute
// sequentially (the unit of resumable state); the cells within a round and
// the detailed reference they share use the engine's worker pool.
type Driver struct {
	cfg Config
	eng *engine.Engine
}

// New validates the config and builds a driver.
func New(cfg Config) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Normalized()
	return &Driver{cfg: n, eng: engine.New(
		engine.WithWorkers(n.Workers),
		engine.WithRecorder(n.Recorder),
		engine.WithSlowProfiler(n.SlowProfiler))}, nil
}

// Config returns the driver's normalized configuration.
func (d *Driver) Config() Config { return d.cfg }

// evaluate runs one cell and returns its finding-shaped outcome (Classes
// empty when the cell honours the contract).
func (d *Driver) evaluate(ctx context.Context, spec, policy string, seed uint64, round int) (Finding, error) {
	rep, err := d.eng.Run(ctx, engine.Request{
		Workload: spec, Arch: d.cfg.Arch, Threads: d.cfg.Threads,
		Seed: seed, Policy: policy,
	})
	if err != nil {
		return Finding{}, err
	}
	f := Finding{
		Round: round, Spec: spec, Policy: rep.Request.Policy,
		Arch: rep.Request.Arch, Threads: rep.Request.Threads, Seed: seed,
		CeilingPct: d.cfg.CeilingFor(policy), FloorRelErr: d.cfg.FloorRelErr,
		ErrPct: rep.ErrPct, DetailedTaskCycles: rep.DetailedTaskCycles,
	}
	chk := strata.Check{
		DetailedTaskCycles: rep.DetailedTaskCycles,
		ErrPct:             rep.ErrPct,
		ErrCeilingPct:      f.CeilingPct,
		MinRelErr:          f.FloorRelErr,
	}
	if c := rep.Confidence; c != nil {
		f.EstTotalCycles, f.CILo, f.CIHi = c.Estimate, c.Lo, c.Hi
	}
	f.Classes = strata.Classify(rep.Confidence, chk)
	return f, nil
}

// Round executes fuzz round i: draw the scenario, compute its detailed
// reference once, run every policy against it, classify, and (when
// configured) minimize each violating cell to a 1-minimal reproducer.
// The round's workloads are evicted from the baseline cache before
// returning, so unbounded campaigns run in bounded memory.
func (d *Driver) Round(ctx context.Context, i int) ([]Finding, error) {
	sc := d.cfg.DrawRound(i)
	spec := sc.Spec()
	seed := d.cfg.RoundSeed(i)
	// The round span is the root of this round's trace subtree: the engine
	// nests every cell it runs for the round (baseline included) under it
	// through the context.
	sp := obs.ChildSpan(ctx, d.cfg.Recorder, "fuzz.round",
		obs.Int("round", i), obs.String("spec", spec), obs.Uint64("seed", seed))
	ctx = obs.ContextWithSpan(ctx, sp)
	nFindings := 0
	defer func() { sp.End(obs.Int("round", i), obs.Int("findings", nFindings)) }()
	visited := map[string]bool{spec: true}
	defer func() {
		for w := range visited {
			d.eng.Cache().DropWorkload(w)
		}
	}()

	var findings []Finding
	for _, policy := range d.cfg.Policies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f, err := d.evaluate(ctx, spec, policy, seed, i)
		if err != nil {
			return nil, fmt.Errorf("fuzz: round %d %s: %w", i, policy, err)
		}
		if len(f.Classes) == 0 {
			continue
		}
		if d.cfg.Minimize {
			msp := sp.StartSpan("fuzz.minimize", obs.String("spec", spec), obs.String("policy", policy))
			mctx := obs.ContextWithSpan(ctx, msp)
			memo := map[string]Finding{spec: f}
			min, trials, err := Minimize(sc, f.Classes, func(cand *gen.Scenario) ([]strata.ViolationClass, error) {
				cs := cand.Spec()
				visited[cs] = true
				cf, err := d.evaluate(mctx, cs, policy, seed, i)
				if err != nil {
					return nil, err
				}
				memo[cs] = cf
				return cf.Classes, nil
			})
			if err != nil {
				msp.End(obs.String("status", "error"))
				return nil, fmt.Errorf("fuzz: round %d minimizing %s under %s: %w", i, spec, policy, err)
			}
			if ms := min.Spec(); ms != spec {
				mf := memo[ms]
				mf.MinimizedFrom, mf.ShrinkTrials = spec, trials
				f = mf
			} else {
				f.ShrinkTrials = trials
			}
			msp.End(obs.String("status", "ok"), obs.String("minimized", f.Spec), obs.Int("trials", trials))
		}
		metricFindings.Inc()
		for _, class := range f.Classes {
			obs.Default().Counter("fuzz.violations." + string(class)).Inc()
		}
		sp.Emit("fuzz.finding",
			obs.Int("round", i), obs.String("spec", f.Spec), obs.String("policy", f.Policy),
			obs.String("classes", classesString(f.Classes)), obs.Float("err_pct", f.ErrPct))
		findings = append(findings, f)
	}
	metricRounds.Inc()
	nFindings = len(findings)
	return findings, nil
}

// classesString renders a failure signature as a comma-separated list.
func classesString(cs []strata.ViolationClass) string {
	s := ""
	for i, c := range cs {
		if i > 0 {
			s += ","
		}
		s += string(c)
	}
	return s
}

// Run executes rounds [start, cfg.Rounds) — or forever when Rounds is 0 —
// stopping cleanly on context cancellation or deadline. onRound, when
// non-nil, observes every *completed* round in order with its findings
// (possibly none): it is the persistence hook — append findings to the
// corpus and record round+1 as the resume point, and an interrupt mid-round
// loses at most that round's partial work. The returned findings span the
// completed rounds.
func (d *Driver) Run(ctx context.Context, start int, onRound func(round int, fs []Finding)) ([]Finding, error) {
	var all []Finding
	for i := start; d.cfg.Rounds == 0 || i < d.cfg.Rounds; i++ {
		fs, err := d.Round(ctx, i)
		if err != nil {
			return all, err
		}
		all = append(all, fs...)
		if onRound != nil {
			onRound(i, fs)
		}
	}
	return all, nil
}

// Replay re-runs a committed reproducer in its recorded cell — same spec,
// policy, architecture, threads and request seed, judged against the
// recorded ceiling and floor — and returns the violation classes the cell
// exhibits now. The regression gate asserts the recorded classes are gone.
func (d *Driver) Replay(ctx context.Context, f Finding) ([]strata.ViolationClass, error) {
	rep, err := d.eng.Run(ctx, engine.Request{
		Workload: f.Spec, Arch: f.Arch, Threads: f.Threads,
		Seed: f.Seed, Policy: f.Policy,
	})
	if err != nil {
		return nil, err
	}
	return strata.Classify(rep.Confidence, strata.Check{
		DetailedTaskCycles: rep.DetailedTaskCycles,
		ErrPct:             rep.ErrPct,
		ErrCeilingPct:      f.CeilingPct,
		MinRelErr:          f.FloorRelErr,
	}), nil
}

// ReplayTimeout bounds one corpus replay in the tier-1 gate.
const ReplayTimeout = 5 * time.Minute
