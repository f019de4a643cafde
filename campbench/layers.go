package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"taskpoint/internal/arch"
	"taskpoint/internal/core"
	"taskpoint/internal/engine"
	"taskpoint/internal/obs"
	"taskpoint/internal/sim"
	"taskpoint/internal/store"
	"taskpoint/internal/strata"
	"taskpoint/internal/sweep"
	"taskpoint/internal/trace"
)

// The traced run attributes a workload's time to the layers by timing the
// benchmark's own calls into each layer's public API — spans inside the
// program are not used. Its pieces:
//
//   - the layer pipeline replays the workload's cell path in-process, one
//     public call per layer and cell: store report lookup (served
//     workloads), BaselineCache.Program (bench), Engine.Baseline (sim
//     detailed run, through a timed store tier on served workloads),
//     Engine.Run (engine + sampled run, with a timing wrapper around the
//     stratified policy) and the report put (serve-cold and serve-warm);
//   - the core replay re-runs every computed cell's sampled simulation on
//     sim.Engine.RunContext under a timing controller around core.New's
//     sampler, for the sampler's per-task cost;
//   - the store replay puts and gets every reference and record of the
//     pipeline in a scratch store, addressed by store.BaselineAddress and
//     store.ContentAddress, for per-entry store costs;
//   - counts come from the counters the layers export, read after an
//     untraced campaign of the workload on its own surface.

// callTimes accumulates the duration and count of one kind of call.
type callTimes struct{ ns, n int64 }

func (c *callTimes) add(since time.Time) { c.ns += time.Since(since).Nanoseconds(); c.n++ }
func (c *callTimes) merge(o callTimes)   { c.ns += o.ns; c.n += o.n }

// mean is the per-call mean in ns. It includes the timer's own two clock
// reads, a few tens of ns, which is why per-task costs are compared
// between commits rather than read as absolute.
func (c callTimes) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.n)
}

// strataTimer wraps a stratified policy, timing the calls the sampler and
// the engine make into it. It forwards every optional method the engine
// and the sampler look for (Prescan, Confidence, SetTrace, ResetRun), so
// the wrapped policy behaves exactly like the bare one. One run uses it
// from one goroutine.
type strataTimer struct {
	inner                              *strata.Stratified
	want, observe, fast, conf, prescan callTimes
}

var _ core.BudgetedPolicy = (*strataTimer)(nil)

func (s *strataTimer) Name() string                            { return s.inner.Name() }
func (s *strataTimer) ShouldResample(thread, n int) bool       { return s.inner.ShouldResample(thread, n) }
func (s *strataTimer) SetTrace(rec *obs.Recorder, sp obs.Span) { s.inner.SetTrace(rec, sp) }
func (s *strataTimer) ResetRun()                               { s.inner.ResetRun() }

func (s *strataTimer) WantDetailed(si sim.StartInfo) bool {
	t := time.Now()
	v := s.inner.WantDetailed(si)
	s.want.add(t)
	return v
}

func (s *strataTimer) Observe(fi sim.FinishInfo, kind core.SampleKind) {
	t := time.Now()
	s.inner.Observe(fi, kind)
	s.observe.add(t)
}

func (s *strataTimer) FastIPC(si sim.StartInfo) (float64, bool) {
	t := time.Now()
	ipc, ok := s.inner.FastIPC(si)
	s.fast.add(t)
	return ipc, ok
}

func (s *strataTimer) Prescan(p *trace.Program) {
	t := time.Now()
	s.inner.Prescan(p)
	s.prescan.add(t)
}

func (s *strataTimer) Confidence() strata.Confidence {
	t := time.Now()
	c := s.inner.Confidence()
	s.conf.add(t)
	return c
}

// inRun is the strata time spent inside the simulation loop.
func (s *strataTimer) inRun() int64 { return s.want.ns + s.observe.ns + s.fast.ns }

func (s *strataTimer) merge(o *strataTimer) {
	s.want.merge(o.want)
	s.observe.merge(o.observe)
	s.fast.merge(o.fast)
	s.conf.merge(o.conf)
	s.prescan.merge(o.prescan)
}

// controllerTimer wraps the sampler as a sim.Controller and times its
// per-task decisions.
type controllerTimer struct {
	inner         sim.Controller
	start, finish callTimes
}

func (c *controllerTimer) TaskStart(si sim.StartInfo) sim.Decision {
	t := time.Now()
	d := c.inner.TaskStart(si)
	c.start.add(t)
	return d
}

func (c *controllerTimer) TaskFinish(fi sim.FinishInfo) {
	t := time.Now()
	c.inner.TaskFinish(fi)
	c.finish.add(t)
}

// tierTimer wraps the store's baseline tier, timing the engine's
// read-through loads and write-behind saves.
type tierTimer struct {
	inner          engine.BaselineTier
	loadNS, saveNS atomic.Int64
}

func (t *tierTimer) LoadBaseline(id engine.BaselineID) (*sim.Result, bool) {
	s := time.Now()
	res, ok := t.inner.LoadBaseline(id)
	t.loadNS.Add(time.Since(s).Nanoseconds())
	return res, ok
}

func (t *tierTimer) SaveBaseline(id engine.BaselineID, res *sim.Result) {
	s := time.Now()
	t.inner.SaveBaseline(id, res)
	t.saveNS.Add(time.Since(s).Nanoseconds())
}

// requestOf is the engine request of a campaign cell, as the sweep engine
// and the server build it.
func requestOf(cell sweep.Cell, spec sweep.Spec) engine.Request {
	return engine.Request{
		Workload: cell.Bench,
		Arch:     string(cell.Arch),
		Threads:  cell.Threads,
		Scale:    spec.Scale,
		Seed:     cell.Seed,
		Policy:   cell.Policy,
		Params:   spec.Params(),
	}
}

// runStat is the host cost of one simulation run.
type runStat struct {
	instr, detailedInstr, events int64
	wall                         time.Duration
}

func statOf(r *sim.Result) runStat {
	return runStat{instr: r.TotalInstructions, detailedInstr: r.DetailedInstructions, events: r.Events, wall: r.Wall}
}

// pipeline is one in-process replay of a workload's cell path.
type pipeline struct {
	spec  sweep.Spec
	ds    *store.DiskStore // nil on the sweep path
	timed bool
	cache *engine.BaselineCache
	eng   *engine.Engine
	tier  *tierTimer

	mu                               sync.Mutex
	program, baseline, run, get, put callTimes
	sampledNS                        int64
	strata                           strataTimer
	runMS, overheadMS                []float64
	recs                             map[string]sweep.Record
	errs                             map[string]string
	computed                         map[string]bool
	refs                             map[string]runStat // distinct references by BaselineAddress
	sampled                          map[string]runStat // computed cells by key
	detailedRuns                     int64
	wall                             time.Duration
}

// runPipeline replays the workload's campaign with o.workers goroutines.
// Served workloads run over a scratch store: empty for serve-cold,
// restored from the fixture's snapshot for serve-warm. timed wraps the
// stratified policy in its per-task timer; the untimed pipeline is the
// baseline of the price of tracing.
func runPipeline(ctx context.Context, o options, dir string, f fixture, timed bool) (*pipeline, error) {
	p := &pipeline{
		spec:     workloadSpec(o),
		timed:    timed,
		cache:    engine.NewBaselineCache(),
		recs:     map[string]sweep.Record{},
		errs:     map[string]string{},
		computed: map[string]bool{},
		refs:     map[string]runStat{},
		sampled:  map[string]runStat{},
	}
	if o.workload != "sweep-cold" {
		storeDir := filepath.Join(dir, "pipeline-store")
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, err
		}
		if o.workload == "serve-warm" {
			if err := snapshotStore(f.snapshot, storeDir); err != nil {
				return nil, err
			}
		}
		ds, err := store.Open(storeDir)
		if err != nil {
			return nil, err
		}
		p.ds = ds
		p.tier = &tierTimer{inner: ds.Tier()}
		p.cache.SetTier(p.tier)
	}
	p.eng = engine.New(engine.WithWorkers(o.workers), engine.WithBaselineCache(p.cache))

	computedBefore := counter("engine.baseline.computed")
	start := time.Now()
	forEach(ctx, o.workers, p.spec.Cells(), func(cell sweep.Cell) {
		if err := p.cell(ctx, cell); err != nil {
			p.mu.Lock()
			p.errs[cell.Key()] = err.Error()
			p.mu.Unlock()
		}
	})
	p.cache.Sync()
	p.wall = time.Since(start)
	p.detailedRuns = counter("engine.baseline.computed") - computedBefore
	return p, ctx.Err()
}

func counter(name string) int64 { return obs.Default().Snapshot().Counters[name] }

// forEach calls fn on every cell from workers goroutines and returns once
// all calls have returned; cells not started when ctx ends are skipped.
func forEach(ctx context.Context, workers int, cells []sweep.Cell, fn func(sweep.Cell)) {
	feed := make(chan sweep.Cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range feed {
				fn(cell)
			}
		}()
	}
	defer wg.Wait()
	defer close(feed)
	for _, cell := range cells {
		select {
		case feed <- cell:
		case <-ctx.Done():
			return
		}
	}
}

// cell resolves one cell the way its surface does: a report hit from the
// store when there is one, otherwise program, detailed reference and
// sampled run, with the report put back into the store.
func (p *pipeline) cell(ctx context.Context, cell sweep.Cell) error {
	req := requestOf(cell, p.spec)
	var addr string
	if p.ds != nil {
		var err error
		if addr, err = store.ContentAddress(req); err != nil {
			return err
		}
		var get callTimes
		t := time.Now()
		rec, err := p.ds.Report(addr)
		get.add(t)
		p.mu.Lock()
		p.get.merge(get)
		if err == nil {
			p.recs[cell.Key()] = *rec
		}
		p.mu.Unlock()
		if err == nil {
			return nil
		}
	}

	var program, baseline callTimes
	t := time.Now()
	if _, err := p.cache.Program(req.Workload, req.Scale, req.Seed); err != nil {
		return err
	}
	program.add(t)
	t = time.Now()
	det, err := p.eng.Baseline(ctx, req)
	if err != nil {
		return err
	}
	baseline.add(t)
	baseAddr, err := store.BaselineAddress(req)
	if err != nil {
		return err
	}

	var st *strataTimer
	if p.timed {
		pol, err := core.ParsePolicy(req.Policy)
		if err != nil {
			return err
		}
		if s, ok := pol.(*strata.Stratified); ok {
			st = &strataTimer{inner: s}
			req.PolicyValue = st
		}
	}
	t = time.Now()
	rep, err := p.eng.Run(ctx, req)
	if err != nil {
		return err
	}
	runNS := time.Since(t).Nanoseconds()
	rec := sweep.RecordOf(cell, p.spec, rep)

	var put callTimes
	if p.ds != nil {
		t = time.Now()
		if err := p.ds.PutReport(addr, &rec); err != nil {
			return err
		}
		put.add(t)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.program.merge(program)
	p.baseline.merge(baseline)
	p.put.merge(put)
	p.run.merge(callTimes{ns: runNS, n: 1})
	p.sampledNS += rep.SampledWall.Nanoseconds()
	p.runMS = append(p.runMS, float64(runNS)/1e6)
	overhead := runNS - rep.SampledWall.Nanoseconds()
	if st != nil {
		p.strata.merge(st)
		overhead -= st.prescan.ns + st.conf.ns
	}
	p.overheadMS = append(p.overheadMS, float64(overhead)/1e6)
	p.recs[cell.Key()] = rec
	p.computed[cell.Key()] = true
	p.refs[baseAddr] = statOf(det)
	p.sampled[cell.Key()] = statOf(rep.Sampled)
	return nil
}

func (p *pipeline) asRep() rep {
	return rep{recs: p.recs, errs: p.errs, computed: p.computed}
}

// coreTimes is the sampler's own per-task cost from the core replay.
type coreTimes struct {
	startSelfNS, finishSelfNS float64 // totals, net of nested strata calls
	starts, finishes          int64
	mismatches                int
}

// coreReplay re-runs the sampled simulation of every cell the pipeline
// computed on sim.Engine.RunContext, with the sampler from core.New
// wrapped in a timing controller (and a stratified policy in its timer,
// so its nested time is taken out of the sampler's). Each replayed run
// must reproduce the pipeline's sampled cycles.
func coreReplay(ctx context.Context, o options, p *pipeline) (coreTimes, error) {
	var ct coreTimes
	var mu sync.Mutex
	var firstErr error
	var cells []sweep.Cell
	for _, cell := range p.spec.Cells() {
		if p.computed[cell.Key()] {
			cells = append(cells, cell)
		}
	}
	forEach(ctx, o.workers, cells, func(cell sweep.Cell) {
		start, finish, same, err := replayCell(ctx, p, cell)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil && firstErr == nil:
			firstErr = err
		case err == nil && !same:
			ct.mismatches++
		case err == nil:
			ct.startSelfNS += float64(start.ns)
			ct.finishSelfNS += float64(finish.ns)
			ct.starts += start.n
			ct.finishes += finish.n
		}
	})
	if firstErr != nil {
		return ct, firstErr
	}
	return ct, ctx.Err()
}

// replayCell runs one cell's sampled simulation under the timing
// controller and returns the sampler's self time in TaskStart and
// TaskFinish, and whether the run reproduced the pipeline's cycles.
func replayCell(ctx context.Context, p *pipeline, cell sweep.Cell) (start, finish callTimes, same bool, err error) {
	a, err := arch.Parse(string(cell.Arch))
	if err != nil {
		return start, finish, false, err
	}
	cfg, err := arch.ConfigFor(a, cell.Threads)
	if err != nil {
		return start, finish, false, err
	}
	prog, err := p.cache.Program(cell.Bench, p.spec.Scale, cell.Seed)
	if err != nil {
		return start, finish, false, err
	}
	se, err := sim.NewEngine(cfg, prog, arch.SimOptions(a, cell.Seed, cell.Threads)...)
	if err != nil {
		return start, finish, false, err
	}
	pol, err := core.ParsePolicy(cell.Policy)
	if err != nil {
		return start, finish, false, err
	}
	params := p.spec.Params()
	st := &strataTimer{}
	if s, ok := pol.(*strata.Stratified); ok {
		// As the engine does for a confidence-reporting policy.
		st.inner = s
		st.Prescan(prog)
		params.SizeClasses = true
		pol = st
	}
	smp, err := core.New(params, pol)
	if err != nil {
		return start, finish, false, err
	}
	ctl := &controllerTimer{inner: smp}
	res, err := se.RunContext(ctx, ctl)
	if err != nil {
		return start, finish, false, err
	}
	if res.Cycles != p.recs[cell.Key()].SampledCycles {
		logf("core replay of %s: %v cycles, the pipeline had %v", cell.Key(), res.Cycles, p.recs[cell.Key()].SampledCycles)
		return start, finish, false, nil
	}
	// The strata calls the sampler makes are the policy's time, not its own.
	start = callTimes{ns: ctl.start.ns - st.want.ns - st.fast.ns, n: ctl.start.n}
	finish = callTimes{ns: ctl.finish.ns - st.observe.ns, n: ctl.finish.n}
	return start, finish, true, nil
}

// storeTimes are per-entry store costs from the store replay.
type storeTimes struct {
	baselineGetMS, reportGetMS []float64
	baselinePut, reportPut     callTimes
	baselineBytes, reportBytes int64
	baselines, reports         int
	mismatches                 int
}

// storeReplay writes every distinct reference and every record of the
// pipeline into a scratch store, then reads each back three times. The
// references are written as the engine's tier writes them — the results
// are recomputed from the pipeline's cache, so they are exactly what the
// tier would store.
func storeReplay(ctx context.Context, dir string, p *pipeline) (storeTimes, error) {
	var s storeTimes
	ds, err := store.Open(filepath.Join(dir, "replay-store"))
	if err != nil {
		return s, err
	}
	cells := p.spec.Cells()
	var baseAddrs, reportAddrs []string
	reportKey := map[string]string{}
	seen := map[string]bool{}
	for _, cell := range cells {
		rec, ok := p.recs[cell.Key()]
		if !ok {
			continue
		}
		req := requestOf(cell, p.spec)
		addr, err := store.ContentAddress(req)
		if err != nil {
			return s, err
		}
		t := time.Now()
		if err := ds.PutReport(addr, &rec); err != nil {
			return s, err
		}
		s.reportPut.add(t)
		s.reportBytes += entrySize(ds, addr)
		reportAddrs = append(reportAddrs, addr)
		reportKey[addr] = cell.Key()

		baseAddr, err := store.BaselineAddress(req)
		if err != nil {
			return s, err
		}
		if seen[baseAddr] {
			continue
		}
		seen[baseAddr] = true
		det, err := p.eng.Baseline(ctx, req)
		if err != nil {
			return s, err
		}
		t = time.Now()
		if err := ds.PutBaseline(baseAddr, det); err != nil {
			return s, err
		}
		s.baselinePut.add(t)
		s.baselineBytes += entrySize(ds, baseAddr)
		baseAddrs = append(baseAddrs, baseAddr)
	}
	s.baselines, s.reports = len(baseAddrs), len(reportAddrs)
	for pass := 0; pass < 3; pass++ {
		for _, addr := range baseAddrs {
			t := time.Now()
			if _, err := ds.Baseline(addr); err != nil {
				return s, err
			}
			s.baselineGetMS = append(s.baselineGetMS, ms(time.Since(t)))
		}
		for _, addr := range reportAddrs {
			t := time.Now()
			rec, err := ds.Report(addr)
			if err != nil {
				return s, err
			}
			s.reportGetMS = append(s.reportGetMS, ms(time.Since(t)))
			if pass == 0 && digest(*rec) != digest(p.recs[reportKey[addr]]) {
				s.mismatches++
			}
		}
	}
	return s, nil
}

func entrySize(ds *store.DiskStore, addr string) int64 {
	path, err := ds.EntryPath(addr)
	if err != nil {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// traced is the --trace 1 run: per-layer metrics for the workload.
func traced(ctx context.Context, o options, dir string) (result, error) {
	if err := checkWorkload(o); err != nil {
		return result{}, err
	}
	chk := newChecker()
	// The fixture holds one untraced sweep campaign and one served cold
	// campaign of dse, which give server.overhead_pct on every workload.
	f, err := prepare(ctx, o, dir, chk)
	if err != nil {
		return result{}, err
	}
	cells := cellsOf(workloadSpec(o))
	// surf is an untraced campaign of the workload on its own surface,
	// whose exported counters give the counts; served is the campaign the
	// server metrics come from (a serve-cold one on sweep-cold).
	surf, served := f.ref, f.populate
	switch o.workload {
	case "serve-cold":
		surf = f.populate
	case "serve-warm":
		if surf, err = surfaceRep(ctx, o, dir, f); err != nil {
			return result{}, err
		}
		chk.check(cells, surf)
		served = surf
	}

	plain, err := runPipeline(ctx, o, dir, f, false)
	if err != nil {
		return result{}, fmt.Errorf("untimed pipeline: %w", err)
	}
	chk.check(cells, plain.asRep())
	plainWall := plain.wall
	p, err := runPipeline(ctx, o, dir, f, true)
	if err != nil {
		return result{}, fmt.Errorf("timed pipeline: %w", err)
	}
	chk.check(cells, p.asRep())
	ct, err := coreReplay(ctx, o, p)
	if err != nil {
		return result{}, fmt.Errorf("core replay: %w", err)
	}
	chk.attempted += len(p.sampled)
	chk.failed += ct.mismatches
	stt, err := storeReplay(ctx, dir, p)
	if err != nil {
		return result{}, fmt.Errorf("store replay: %w", err)
	}
	chk.attempted += stt.reports
	chk.failed += stt.mismatches

	m := metrics{}
	layerMetrics(m, o, surf, served, f, plainWall, p, ct, stt)
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// layerMetrics fills the per-layer metrics.
func layerMetrics(m metrics, o options, surf, served rep, f fixture, plainWall time.Duration, p *pipeline, ct coreTimes, stt storeTimes) {
	c := surf.counters
	capacityNS := float64(o.workers) * float64(p.wall.Nanoseconds())
	pct := func(ns float64) float64 { return 100 * ns / capacityNS }

	// bench
	programs := map[string]bool{}
	for _, cell := range p.spec.Cells() {
		if p.computed[cell.Key()] {
			programs[cell.Bench] = true
		}
	}
	m.set("bench.programs", "count", float64(len(programs)))
	m.set("bench.build_ms", "ms", float64(p.program.ns)/1e6/float64(max(len(programs), 1)))

	// sim
	var det, samp runStat
	for _, r := range p.refs {
		det.instr += r.instr
		det.events += r.events
		det.wall += r.wall
	}
	for _, r := range p.sampled {
		samp.instr += r.instr
		samp.detailedInstr += r.detailedInstr
		samp.events += r.events
		samp.wall += r.wall
	}
	m.set("sim.detailed_runs", "count", float64(p.detailedRuns))
	m.set("sim.detailed_ms", "ms", ms(det.wall)/float64(max(len(p.refs), 1)))
	m.set("sim.detailed_minstr_per_s", "Minstr/s", float64(det.instr)/1e6/det.wall.Seconds())
	m.set("sim.sampled_runs", "count", float64(len(p.sampled)))
	m.set("sim.sampled_ms", "ms", ms(samp.wall)/float64(max(len(p.sampled), 1)))
	m.set("sim.sampled_minstr_per_s", "Minstr/s", float64(samp.instr)/1e6/samp.wall.Seconds())
	m.set("sim.events_per_s", "1/s", float64(det.events+samp.events)/(det.wall+samp.wall).Seconds())
	m.set("sim.minstr_total", "Minstr", float64(c["sim.instr.total"])/1e6)
	m.set("sim.instr_detailed_frac", "fraction", float64(c["sim.instr.detailed"])/float64(max(c["sim.instr.total"], 1)))

	// core and strata
	m.set("core.task_start_ns", "ns", ct.startSelfNS/float64(max(ct.starts, 1)))
	m.set("core.task_finish_ns", "ns", ct.finishSelfNS/float64(max(ct.finishes, 1)))
	m.set("core.detail_frac", "fraction", float64(samp.detailedInstr)/float64(max(samp.instr, 1)))
	m.set("strata.want_detailed_ns", "ns", p.strata.want.mean())
	m.set("strata.observe_ns", "ns", p.strata.observe.mean())
	m.set("strata.confidence_us", "us", p.strata.conf.mean()/1e3)
	m.set("strata.samples", "count", float64(c["strata.samples.pilot"]+c["strata.samples.phase"]+c["strata.samples.directed"]))

	// engine: baselines the surface computed or loaded, against the
	// distinct references its computed cells needed.
	distinct := map[string]bool{}
	for _, cell := range cellsOf(workloadSpec(o)) {
		if surf.computed[cell.Key()] {
			distinct[fmt.Sprintf("%s|%s|%d", cell.Bench, cell.Arch, cell.Threads)] = true
		}
	}
	computed := c["engine.baseline.computed"]
	m.set("engine.baseline_computed", "count", float64(computed))
	m.set("engine.baseline_distinct", "count", float64(len(distinct)))
	m.set("engine.baseline_dup_ratio", "x", float64(computed+c["store.baseline.hits"])/float64(max(len(distinct), 1)))
	m.set("engine.cell_p50_ms", "ms", quantile(p.runMS, 0.5))
	m.set("engine.cell_p90_ms", "ms", quantile(p.runMS, 0.9))
	var overhead float64
	for _, v := range p.overheadMS {
		overhead += v
	}
	m.set("engine.overhead_ms", "ms", overhead/float64(max(len(p.overheadMS), 1)))
	m.set("engine.worker_busy_frac", "fraction", float64(p.baseline.ns+p.run.ns)/capacityNS)

	// store
	m.set("store.baseline_get_p50_ms", "ms", quantile(stt.baselineGetMS, 0.5))
	m.set("store.baseline_get_p90_ms", "ms", quantile(stt.baselineGetMS, 0.9))
	m.set("store.report_get_p50_ms", "ms", quantile(stt.reportGetMS, 0.5))
	m.set("store.report_get_p90_ms", "ms", quantile(stt.reportGetMS, 0.9))
	m.set("store.baseline_put_ms", "ms", stt.baselinePut.mean()/1e6)
	m.set("store.report_put_ms", "ms", stt.reportPut.mean()/1e6)
	m.set("store.baseline_entry_kb", "KB", float64(stt.baselineBytes)/1024/float64(max(stt.baselines, 1)))
	m.set("store.report_entry_kb", "KB", float64(stt.reportBytes)/1024/float64(max(stt.reports, 1)))
	m.set("store.baseline_loads", "count", float64(c["store.baseline.hits"]))
	m.set("store.writes", "count", float64(c["store.writes"]))
	m.set("store.quarantined", "count", float64(c["store.quarantined"]))
	m.set("store.errors", "count", float64(c["store.writebehind.errors"]))

	// server
	sc := served.counters
	m.set("server.submit_ms", "ms", ms(served.submit))
	m.set("server.event_gap_p50_ms", "ms", quantile(served.gaps, 0.5))
	m.set("server.event_gap_p90_ms", "ms", quantile(served.gaps, 0.9))
	m.set("server.cells_computed", "count", float64(sc["server.cells.computed"]))
	m.set("server.cells_store_hits", "count", float64(sc["server.cells.store_hits"]))
	m.set("server.cells_joined", "count", float64(sc["server.cells.joined"]))
	m.set("server.store_errors", "count", float64(sc["server.cells.store_errors"]))
	m.set("server.overhead_pct", "%", 100*(f.populate.wall.Seconds()/f.ref.wall.Seconds()-1))

	// Self time per layer over the timed pipeline. The sampler's self time
	// comes from the core replay of the same cells; the rest of the
	// sampled runs is the kernel's.
	storeNS := float64(p.get.ns + p.put.ns)
	var tierLoad float64
	if p.tier != nil {
		tierLoad = float64(p.tier.loadNS.Load())
		storeNS += tierLoad + float64(p.tier.saveNS.Load())
	}
	coreNS := ct.startSelfNS + ct.finishSelfNS
	strataNS := float64(p.strata.inRun() + p.strata.prescan.ns + p.strata.conf.ns)
	simNS := float64(p.baseline.ns) - tierLoad + float64(p.sampledNS) - coreNS - float64(p.strata.inRun())
	engineNS := float64(p.run.ns-p.sampledNS) - float64(p.strata.prescan.ns+p.strata.conf.ns)
	benchNS := float64(p.program.ns)
	m.set("bench.self_pct", "%", pct(benchNS))
	m.set("sim.self_pct", "%", pct(simNS))
	m.set("core.self_pct", "%", pct(coreNS))
	m.set("strata.self_pct", "%", pct(strataNS))
	m.set("engine.self_pct", "%", pct(engineNS))
	m.set("store.self_pct", "%", pct(storeNS))
	m.set("obs.unattributed_pct", "%", 100-pct(benchNS+simNS+coreNS+strataNS+engineNS+storeNS))
	m.set("obs.trace_overhead_pct", "%", 100*(p.wall.Seconds()/plainWall.Seconds()-1))

	// Accuracy is deterministic per seed but varies too much between
	// seeds to hold an end-to-end bound; it is reported here.
	acc := accuracyOf(surf.recs)
	m.set("acc.err_pct_mean", "%", acc.errMean)
	m.set("acc.err_pct_max", "%", acc.errMax)

	logf("%s traced: pipeline %.2fs (untimed %.2fs), surface campaign %.2fs, %d cells",
		o.workload, p.wall.Seconds(), plainWall.Seconds(), surf.wall.Seconds(), len(p.recs))
}
