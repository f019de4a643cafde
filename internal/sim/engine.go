package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"taskpoint/internal/cpu"
	"taskpoint/internal/mem"
	"taskpoint/internal/sched"
	"taskpoint/internal/taskgraph"
	"taskpoint/internal/trace"
)

// Perturber injects execution-time perturbation into detailed task
// instances. The noise package implements it to model native-execution
// system noise for the Figure 1 experiment; architectural simulations use
// no perturber.
type Perturber interface {
	// Perturb returns extra cycles to add to a task instance that ran
	// on thread, started at start and took dur cycles.
	Perturb(thread int, start, dur float64) float64
}

// InstanceRecord is the per-task-instance outcome of a simulation.
type InstanceRecord struct {
	// Type is the instance's task type.
	Type trace.TypeID
	// Thread is the core that executed it.
	Thread int
	// Start and End delimit its execution in cycles.
	Start, End float64
	// Instr is its dynamic instruction count.
	Instr int64
	// IPC is measured (detailed) or applied (fast).
	IPC float64
	// Mode is the simulation mode used.
	Mode Mode
}

// Result summarises one simulation run.
type Result struct {
	// Cycles is the simulated execution time of the program.
	Cycles float64
	// TotalInstructions is the program's dynamic instruction count.
	TotalInstructions int64
	// DetailedInstructions counts instructions simulated cycle by cycle.
	DetailedInstructions int64
	// DetailedTasks and FastTasks count instances per mode.
	DetailedTasks, FastTasks int
	// PerInstance holds one record per task instance, indexed by
	// instance ID.
	PerInstance []InstanceRecord
	// Mem is the memory hierarchy statistics (meaningful for the
	// detailed portions of the run).
	Mem mem.Stats
	// Wall is the host wall-clock time the simulation took.
	Wall time.Duration
	// Events is the number of scheduler events the run processed (one
	// per core advance: a detailed quantum or a fast-burst completion).
	Events int64
	// MaxHeapDepth is the deepest the event heap got — an upper bound on
	// simultaneously busy cores, the occupancy evidence an intra-run
	// parallelisation of the kernel would start from.
	MaxHeapDepth int
}

// DetailFraction returns the fraction of instructions simulated in detail.
func (r *Result) DetailFraction() float64 {
	if r.TotalInstructions == 0 {
		return 0
	}
	return float64(r.DetailedInstructions) / float64(r.TotalInstructions)
}

// TotalTaskCycles returns the summed execution time of all task instances
// (Σ End−Start) — the total work performed, as opposed to Cycles, the
// makespan. The stratified confidence estimator targets this quantity.
func (r *Result) TotalTaskCycles() float64 {
	var sum float64
	for i := range r.PerInstance {
		sum += r.PerInstance[i].End - r.PerInstance[i].Start
	}
	return sum
}

// IPCOfType returns the measured IPC values of all detailed instances of
// type t, in instance-ID order.
func (r *Result) IPCOfType(t trace.TypeID) []float64 {
	var out []float64
	for i := range r.PerInstance {
		rec := &r.PerInstance[i]
		if rec.Type == t && rec.Mode == ModeDetailed {
			out = append(out, rec.IPC)
		}
	}
	return out
}

// Engine simulates one program on one machine configuration. One engine
// serves one run at a time: after Run returns (or is cancelled), call
// Reset before running again — a second Run without Reset fails with
// ErrFinished. Resetting instead of rebuilding reuses the expensive
// state (cache arrays, core rings, scheduler storage, cursor free list)
// across the repeated runs of an experiment cell.
type Engine struct {
	cfg     Config
	prog    *trace.Program
	graph   *taskgraph.Graph
	memsys  *mem.System
	cpus    []*cpu.Core
	state   []coreState
	sched   *sched.State
	noise   Perturber
	running int

	// events holds the busy cores keyed by their next event time; idle
	// is the complementary bitmask of idle cores (Cores <= 64). Together
	// they replace the per-event O(cores) scans of the scheduler loop.
	events  eventHeap
	idle    uint64
	idleAll uint64 // idle mask with every core set

	// execFree pools task-instance execution cursors: steady-state task
	// starts reuse a cursor instead of allocating one (plus its two
	// generators) per instance.
	execFree []*cpu.Exec

	used bool // a run has started; Reset required before the next
}

// coreEvent is one busy core's next event: the local clock of a detailed
// core (its next quantum continues there) or the burst completion time of
// a fast core.
type coreEvent struct {
	t    float64
	core int32
}

// before orders events by (time, core index) — a strict total order, so
// the heap's pop sequence reproduces the earliest-time/lowest-index
// selection of the linear scan it replaced exactly.
func (ev coreEvent) before(o coreEvent) bool {
	return ev.t < o.t || (ev.t == o.t && ev.core < o.core)
}

// eventHeap is a binary min-heap of core events. The engine only ever
// mutates the top (the minimum event is advanced, then either re-keyed
// or removed), so the heap needs no position index.
type eventHeap []coreEvent

func (h *eventHeap) push(ev coreEvent) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h eventHeap) siftDown() {
	n := len(h)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		child := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			child = r
		}
		if !h[child].before(h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// fixTop re-keys the minimum event (a detailed core advanced one quantum).
func (h eventHeap) fixTop(t float64) {
	h[0].t = t
	h.siftDown()
}

// popTop removes the minimum event (its core finished a task).
func (h *eventHeap) popTop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	(*h).siftDown()
}

type coreState struct {
	clock   float64
	busy    bool
	taskID  int
	start   float64
	mode    Mode
	exec    *cpu.Exec // detailed mode only
	fastEnd float64   // fast mode only
	ipc     float64   // fast mode only
	instr   int64
}

// memPort binds a mem.System to one core for the cpu model.
type memPort struct {
	sys  *mem.System
	core int
}

func (p memPort) Access(addr uint64, write, atomic bool, now float64) float64 {
	return p.sys.Access(p.core, addr, write, atomic, now)
}

// Option configures an Engine.
type Option func(*Engine)

// WithPerturber installs a detailed-task execution-time perturber.
func WithPerturber(p Perturber) Option {
	return func(e *Engine) { e.noise = p }
}

// NewEngine builds an engine for prog on cfg. The task graph is derived
// from the program's dependency annotations.
func NewEngine(cfg Config, prog *trace.Program, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := taskgraph.Build(prog)
	if err != nil {
		return nil, err
	}
	ms, err := mem.NewSystem(cfg.Mem, cfg.Cores)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		prog:    prog,
		graph:   g,
		memsys:  ms,
		state:   make([]coreState, cfg.Cores),
		sched:   sched.New(g, cfg.Policy),
		events:  make(eventHeap, 0, cfg.Cores),
		idleAll: ^uint64(0) >> (64 - uint(cfg.Cores)),
	}
	e.idle = e.idleAll
	for i := 0; i < cfg.Cores; i++ {
		e.cpus = append(e.cpus, cpu.New(cfg.CPU, memPort{sys: ms, core: i}))
	}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// resetter is implemented by perturbers whose state must be restored to
// run start for Engine.Reset to reproduce a fresh engine bit-for-bit
// (noise.Model implements it; stateless perturbers need not).
type resetter interface{ Reset() }

// Reset restores the engine to run a program from scratch, reusing every
// allocation a fresh NewEngine would repeat: cache arrays, core rings,
// scheduler storage and pooled execution cursors. Passing the engine's
// current program (or nil) reuses the derived task graph; a different
// program rebuilds graph and scheduler state. Results after Reset are
// bit-identical to a freshly built engine's.
func (e *Engine) Reset(prog *trace.Program) error {
	e.memsys.Reset()
	if prog == nil || prog == e.prog {
		e.sched.Reset()
	} else {
		g, err := taskgraph.Build(prog)
		if err != nil {
			return err
		}
		e.prog = prog
		e.graph = g
		e.sched = sched.New(g, e.cfg.Policy)
	}
	for _, c := range e.cpus {
		c.Reset()
	}
	for i := range e.state {
		if ex := e.state[i].exec; ex != nil {
			e.execFree = append(e.execFree, ex) // run was cancelled mid-task
		}
	}
	clear(e.state)
	e.events = e.events[:0]
	e.idle = e.idleAll
	e.running = 0
	e.used = false
	if r, ok := e.noise.(resetter); ok {
		r.Reset()
	}
	return nil
}

// ErrDeadlock is returned if the scheduler stalls with work remaining;
// it indicates a corrupt dependency graph.
var ErrDeadlock = errors.New("sim: scheduler deadlock with tasks remaining")

// ErrFinished is returned when Run is called on an engine whose previous
// run already started (finished or cancelled) without an intervening
// Reset. The guard turns silent state corruption into a diagnosable
// error.
var ErrFinished = errors.New("sim: engine already ran; call Reset before reusing it")

// Run simulates the whole program under the given controller and returns
// the result. Call Reset before reusing the engine.
func (e *Engine) Run(ctrl Controller) (*Result, error) {
	return e.RunContext(context.Background(), ctrl)
}

// cancelCheckMask bounds how many scheduler iterations may pass between
// context checks in the hot loop. Each iteration advances one core by at
// most one quantum, so 64 iterations keep cancellation latency well under
// a millisecond of host time while the check itself (one atomic-ish
// ctx.Err call per 64 events) stays invisible in profiles.
const cancelCheckMask = 63

// RunContext is Run with cooperative cancellation: the scheduler loop
// polls ctx every few events and abandons the simulation with ctx's error
// mid-program, so callers driving large campaigns can stop promptly.
// After either outcome the engine requires Reset before its next run.
func (e *Engine) RunContext(ctx context.Context, ctrl Controller) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.used {
		return nil, ErrFinished
	}
	e.used = true
	wallStart := time.Now()
	res := &Result{
		TotalInstructions: e.prog.TotalInstructions(),
		PerInstance:       make([]InstanceRecord, len(e.prog.Instances)),
	}

	// Plain locals keep the per-event cost of the observability counters
	// at two register operations; they flush to the shared metrics
	// registry once, after the loop.
	var events int64
	maxDepth := 0
	for iter := 0; !e.sched.Done(); iter++ {
		if iter&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := e.assign(ctrl); err != nil {
			return nil, err
		}
		// The heap top is the busy core with the earliest next event —
		// the role the per-event O(cores) scan used to play. Advancing
		// cores in global event order keeps shared-resource contention
		// observed consistently.
		if len(e.events) == 0 {
			if e.sched.Done() {
				break
			}
			return nil, ErrDeadlock
		}
		if d := len(e.events); d > maxDepth {
			maxDepth = d
		}
		events++
		e.advance(int(e.events[0].core), ctrl, res)
	}

	for i := range e.state {
		if e.state[i].clock > res.Cycles {
			res.Cycles = e.state[i].clock
		}
	}
	res.Mem = e.memsys.Stats()
	res.Wall = time.Since(wallStart)
	res.Events = events
	res.MaxHeapDepth = maxDepth
	recordRunMetrics(res)
	return res, nil
}

// assign hands ready tasks to idle cores: each queued-ready task goes to
// the idle core that can start it earliest (ties to the lowest index),
// like a runtime waking the first available worker. The idle bitmask
// makes the common all-cores-busy case a single comparison; otherwise
// only idle cores are visited, in index order, with an early exit on the
// first core that can start at the task's readiness time (any such core
// achieves the minimum possible start, and the lowest index wins ties —
// the exact selection of the full scan this replaced).
func (e *Engine) assign(ctrl Controller) error {
	for {
		ready, ok := e.sched.NextReadyTime()
		if !ok || e.idle == 0 {
			return nil
		}
		best, bestStart := -1, math.Inf(1)
		for m := e.idle; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if c := e.state[i].clock; c <= ready {
				best, bestStart = i, ready
				break
			} else if c < bestStart {
				best, bestStart = i, c
			}
		}
		id, ok := e.sched.Pop(bestStart)
		if !ok {
			return nil
		}
		if err := e.startTask(best, id, bestStart, ctrl); err != nil {
			return err
		}
	}
}

func (e *Engine) startTask(core, id int, start float64, ctrl Controller) error {
	inst := &e.prog.Instances[id]
	e.running++
	dec := ctrl.TaskStart(StartInfo{
		Thread:   core,
		Instance: inst,
		Now:      start,
		Running:  e.running,
	})
	cs := &e.state[core]
	cs.busy = true
	cs.taskID = id
	cs.start = start
	cs.clock = start
	cs.instr = inst.Instructions()
	cs.mode = dec.Mode
	e.idle &^= 1 << uint(core)
	switch dec.Mode {
	case ModeDetailed:
		if n := len(e.execFree); n > 0 {
			cs.exec = e.execFree[n-1]
			e.execFree = e.execFree[:n-1]
			cs.exec.Reset(inst)
		} else {
			cs.exec = cpu.NewExec(inst)
		}
		e.events.push(coreEvent{t: start, core: int32(core)})
	case ModeFast:
		if !(dec.IPC > 0) || math.IsInf(dec.IPC, 0) {
			return fmt.Errorf("sim: controller requested fast mode with invalid IPC %v", dec.IPC)
		}
		cs.ipc = dec.IPC
		cs.fastEnd = start + float64(cs.instr)/dec.IPC
		e.events.push(coreEvent{t: cs.fastEnd, core: int32(core)})
	default:
		return fmt.Errorf("sim: unknown mode %d", dec.Mode)
	}
	return nil
}

// advance moves the heap-top core (the earliest next event) forward: a
// fast core completes its burst; a detailed core runs one bounded time
// slice and is re-keyed at its new clock, or finishes.
func (e *Engine) advance(core int, ctrl Controller, res *Result) {
	cs := &e.state[core]
	switch cs.mode {
	case ModeFast:
		cs.clock = cs.fastEnd
		e.events.popTop()
		e.finishTask(core, ctrl, res, cs.ipc)
	case ModeDetailed:
		// Advance by one bounded time slice: the deadline keeps cross-
		// core skew on shared resources within one quantum; the
		// instruction limit bounds the slice for high-IPC code.
		end, fin := e.cpus[core].Run(cs.exec, 8*e.cfg.Quantum,
			cs.clock+float64(e.cfg.Quantum), cs.start)
		cs.clock = end
		if !fin {
			e.events.fixTop(end)
			return
		}
		if e.noise != nil {
			extra := e.noise.Perturb(core, cs.start, end-cs.start)
			if extra < 0 {
				extra = 0
			}
			cs.clock = end + extra
		}
		dur := cs.clock - cs.start
		ipc := math.Inf(1)
		if dur > 0 {
			ipc = float64(cs.instr) / dur
		}
		res.DetailedInstructions += cs.instr
		e.events.popTop()
		e.finishTask(core, ctrl, res, ipc)
	}
}

func (e *Engine) finishTask(core int, ctrl Controller, res *Result, ipc float64) {
	cs := &e.state[core]
	e.running--
	rec := InstanceRecord{
		Type:   e.prog.Instances[cs.taskID].Type,
		Thread: core,
		Start:  cs.start,
		End:    cs.clock,
		Instr:  cs.instr,
		IPC:    ipc,
		Mode:   cs.mode,
	}
	res.PerInstance[cs.taskID] = rec
	if cs.mode == ModeDetailed {
		res.DetailedTasks++
	} else {
		res.FastTasks++
	}
	ctrl.TaskFinish(FinishInfo{
		Thread:   core,
		Instance: &e.prog.Instances[cs.taskID],
		Start:    cs.start,
		End:      cs.clock,
		Mode:     cs.mode,
		IPC:      ipc,
	})
	e.sched.Complete(cs.taskID, cs.clock)
	cs.busy = false
	e.idle |= 1 << uint(core)
	if cs.exec != nil {
		e.execFree = append(e.execFree, cs.exec)
		cs.exec = nil
	}
}

// Simulate is the convenience entry point: build an engine and run prog on
// cfg under ctrl.
func Simulate(cfg Config, prog *trace.Program, ctrl Controller, opts ...Option) (*Result, error) {
	return SimulateContext(context.Background(), cfg, prog, ctrl, opts...)
}

// SimulateContext is Simulate with cooperative cancellation: the run is
// abandoned with ctx's error when ctx is cancelled mid-simulation.
func SimulateContext(ctx context.Context, cfg Config, prog *trace.Program, ctrl Controller, opts ...Option) (*Result, error) {
	e, err := NewEngine(cfg, prog, opts...)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, ctrl)
}
