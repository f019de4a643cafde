// Package cpu implements the detailed core timing model of the simulator's
// detailed mode. Like TaskSim's detailed mode, it is a trace-driven model
// based on reorder-buffer occupancy analysis (Lee et al. [21] in the
// paper): instructions dispatch in program order limited by the issue
// width, wait for their register dependencies and memory latencies, and
// commit in order limited by the commit rate, with the ROB size bounding
// how far execution can run ahead of the oldest incomplete instruction.
//
// Instruction streams are expanded on the fly from trace.Segment
// descriptors using the instance seed, so the same instance always yields
// the same instruction mix, while timing depends on the simulated cache
// and contention state at the moment it executes.
package cpu

import (
	"fmt"
	"sync"

	"taskpoint/internal/trace"
)

// Config describes the modelled core (paper Table II rows 1-3).
type Config struct {
	// ROB is the reorder buffer size in instructions.
	ROB int
	// IssueWidth is the maximum dispatch rate (instructions/cycle).
	IssueWidth int
	// CommitWidth is the maximum commit rate (instructions/cycle).
	CommitWidth int
	// IntLat is the latency of short arithmetic instructions.
	IntLat float64
	// FPLat is the latency of long arithmetic (floating-point)
	// instructions.
	FPLat float64
	// StoreLat is the latency charged to a store before it can commit
	// (the write buffer hides the memory round trip).
	StoreLat float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.ROB <= 0:
		return fmt.Errorf("cpu: ROB size %d must be positive", c.ROB)
	case c.IssueWidth <= 0:
		return fmt.Errorf("cpu: issue width %d must be positive", c.IssueWidth)
	case c.CommitWidth <= 0:
		return fmt.Errorf("cpu: commit width %d must be positive", c.CommitWidth)
	case c.IntLat <= 0 || c.FPLat <= 0 || c.StoreLat <= 0:
		return fmt.Errorf("cpu: latencies must be positive")
	}
	return nil
}

// MemPort is the memory interface a core issues its loads and stores to.
// The sim package binds it to one core of the mem.System.
type MemPort interface {
	// Access returns the latency of an access issued at time now.
	Access(addr uint64, write, atomic bool, now float64) float64
}

// Core is the timing state of one simulated core. Pipeline state persists
// across task instances executed on the core; after long fast-forward gaps
// the recorded times lie in the past and impose no constraints, which
// naturally models a drained pipeline.
//
// The rings are sized to the next power of two >= ROB so the
// per-instruction history reads are masked ANDs instead of integer
// modulo. Only the last ROB instructions are ever read back (dependency
// distances are capped at ROB-1 and the occupancy check reads exactly
// ROB back), so the widened ring holds every value the model consults and
// the timings are bit-identical to a ROB-sized ring.
type Core struct {
	cfg        Config
	mem        MemPort
	compRing   []float64 // completion times of recent instructions
	commitRing []float64 // commit times of recent instructions
	head       int64     // total instructions dispatched on this core
	issueSlot  float64   // next available dispatch slot
	lastCommit float64
	invIssue   float64
	invCommit  float64
}

// New builds a core. It panics on invalid configuration: configs are
// produced by the sim package's validated architecture constructors.
func New(cfg Config, mem MemPort) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ring := 1
	for ring < cfg.ROB {
		ring <<= 1
	}
	return &Core{
		cfg:        cfg,
		mem:        mem,
		compRing:   make([]float64, ring),
		commitRing: make([]float64, ring),
		invIssue:   1 / float64(cfg.IssueWidth),
		invCommit:  1 / float64(cfg.CommitWidth),
	}
}

// Reset restores the core to a cold pipeline at time 0.
func (c *Core) Reset() {
	for i := range c.compRing {
		c.compRing[i] = 0
		c.commitRing[i] = 0
	}
	c.head = 0
	c.issueSlot = 0
	c.lastCommit = 0
}

// Exec is the execution cursor of one task instance. It carries the
// deterministic generator state, so a task can be simulated in bounded
// quanta interleaved with other cores.
//
// Two generators are kept apart on purpose: instruction classes and
// register dependencies come from a type-level seed, because all instances
// of a task type execute the same code and therefore the same instruction
// mix; memory addresses come from the per-instance seed, because each
// instance operates on its own data (paper §II-A). This split gives
// instances of a type the per-type IPC regularity Figure 1 documents,
// while input-dependent types (whose segment parameters themselves vary
// per instance) still diverge.
//
// Because the mix generator's seed depends on the type alone, every
// instance of a type would re-draw one identical stream. Instead, the
// first mixPrefixLen instructions' draws of each type are drawn once per
// process (see typePrefix) and read by all its instances. This is exact
// only when every instruction draws the same number of values, that is
// when every segment of the instance has DepDist > 1: then instruction i
// consumes exactly one ExpFloat64 and two draw53. Other instances, and
// types outside [0, mixTypes), keep the live generator for the whole
// instance. Past the prefix, the live generator continues from the state
// the prefix ended in, so long instances stay exact too.
//
// The generator state is embedded by value (pcgRand reproduces
// math/rand/v2's stream without the Source interface indirection), so
// resetting a cursor for a new instance allocates nothing: engines keep
// a free list of cursors instead of allocating one per task instance.
type Exec struct {
	inst     *trace.Instance
	segIdx   int
	segDone  int64
	prefix   *mixPrefix // the type's shared mix draws; nil draws live
	mixRng   pcgRand    // instruction classes + dependency distances
	addrRng  pcgRand    // memory addresses
	memIdx   int64
	chase    uint64
	lastLoad float64 // completion time of the previous load (chase deps)
	retired  int64

	// Incremental stride-offset state (see Core.address): the cached
	// offset of the CURRENT memIdx within segment strideIdx, its per-
	// access step, and whether the incremental form is exact for this
	// segment's parameters.
	strideIdx  int
	strideOff  uint64
	strideStep uint64
	strideOK   bool
}

// NewExec creates an execution cursor for inst.
func NewExec(inst *trace.Instance) *Exec {
	e := &Exec{}
	e.Reset(inst)
	return e
}

// Reset re-targets the cursor at a new instance, restoring the exact
// state a fresh NewExec(inst) would have, without allocating. It is the
// reuse hook behind the engine's cursor free list.
func (e *Exec) Reset(inst *trace.Instance) {
	e.inst = inst
	e.segIdx = 0
	e.segDone = 0
	e.prefix = nil
	seedMix(&e.mixRng, inst.Type)
	if inst.Type >= 0 && inst.Type < mixTypes && fixedMixDraws(inst) {
		e.prefix = typePrefix(inst.Type)
	}
	e.addrRng.Seed(inst.Seed, 0x2545f4914f6cdd1d)
	e.memIdx = 0
	e.chase = inst.Seed | 1
	e.lastLoad = 0
	e.retired = 0
	e.strideIdx = -1
	e.strideOff = 0
	e.strideStep = 0
	e.strideOK = false
}

// seedMix seeds r with type t's mix stream.
func seedMix(r *pcgRand, t trace.TypeID) {
	r.Seed(uint64(t)+0x9e3779b97f4a7c15, 0xd1b54a32d192ed03)
}

// fixedMixDraws reports whether every instruction of inst draws one
// mixDraw from the mix stream: every segment draws the dependency
// distance.
func fixedMixDraws(inst *trace.Instance) bool {
	for i := range inst.Segments {
		if !(inst.Segments[i].DepDist > 1) {
			return false
		}
	}
	return true
}

const (
	// mixPrefixLen is how many instructions' draws of each type's mix
	// stream are shared, 384 KiB per type. A fixed cap keeps the table's
	// memory a constant instead of growing with the longest instance.
	mixPrefixLen = 1 << 14
	// mixTypes bounds the task types that get a shared prefix; at most
	// mixTypes × 384 KiB is ever drawn.
	mixTypes = 64
)

// mixDraw is one instruction's draws from the mix stream, in draw order:
// the dependency-distance exponential, the memory-class draw, and the
// store draw (memory instructions) or floating-point draw (the rest).
type mixDraw struct {
	exp      float64
	mem, sub uint64
}

// mixPrefix is one task type's shared draws and the generator state after
// the last of them.
type mixPrefix struct {
	once  sync.Once
	draws [mixPrefixLen]mixDraw
	post  pcgRand
}

// mixPrefixes holds no pointers, so it lives outside the garbage-collected
// heap and adds nothing to the collector's pacing; only the pages of the
// types actually drawn become resident.
var mixPrefixes [mixTypes]mixPrefix

// typePrefix returns type t's shared mix draws, drawing them on first
// use. They are read-only once published.
func typePrefix(t trace.TypeID) *mixPrefix {
	p := &mixPrefixes[t]
	p.once.Do(func() {
		var r pcgRand
		seedMix(&r, t)
		for i := range p.draws {
			d := &p.draws[i]
			d.exp = r.ExpFloat64()
			d.mem = r.draw53()
			d.sub = r.draw53()
		}
		p.post = r
	})
	return p
}

// Instance returns the instance being executed.
func (e *Exec) Instance() *trace.Instance { return e.inst }

// Retired returns the number of instructions retired so far.
func (e *Exec) Retired() int64 { return e.retired }

// Finished reports whether the whole instance has been executed.
func (e *Exec) Finished() bool { return e.segIdx >= len(e.inst.Segments) }

// Run executes instructions of e on the core until the core-local commit
// time reaches deadline, limit instructions have executed, or the instance
// finishes — whichever comes first. The task does not start before now.
// It returns the core-local time after the last executed instruction
// commits and whether the instance finished.
//
// The time-based deadline is what keeps a multi-core simulation causal:
// the engine advances cores in bounded time slices, so the skew between
// cores sharing caches and DRAM queues stays bounded regardless of how
// slow the code on any one core is.
//
// The start-time constraint applies only to the first quantum of the
// instance; on later quanta the pipeline continues from its own state
// (issue may legitimately run behind commit).
func (c *Core) Run(e *Exec, limit int64, deadline, now float64) (end float64, finished bool) {
	if e.retired == 0 {
		if c.issueSlot < now {
			c.issueSlot = now
		}
		if c.lastCommit < now {
			c.lastCommit = now
		}
	}
	executed := int64(0)
	for executed < limit && !e.Finished() && (executed == 0 || c.lastCommit < deadline) {
		seg := &e.inst.Segments[e.segIdx]
		n := seg.N - e.segDone
		if n > limit-executed {
			n = limit - executed
		}
		n = c.runSegment(e, seg, n, deadline)
		executed += n
		e.segDone += n
		e.retired += n
		if e.segDone >= seg.N {
			e.segIdx++
			e.segDone = 0
		}
	}
	return c.lastCommit, e.Finished()
}

// runSegment executes up to n instructions of seg, stopping once the
// commit time passes deadline (at least one instruction always executes).
// It returns the number of instructions executed.
func (c *Core) runSegment(e *Exec, seg *trace.Segment, n int64, deadline float64) int64 {
	rob := int64(c.cfg.ROB)
	// Local ring slices with len-derived masks let the compiler prove
	// the masked indices in bounds and drop the per-instruction checks.
	comp, cring := c.compRing, c.commitRing
	cmask := uint64(len(comp) - 1)
	wmask := uint64(len(cring) - 1)
	// Pipeline state and segment parameters live in locals for the loop:
	// the memory-port call each memory instruction makes would otherwise
	// force the compiler to reload every field per instruction.
	var (
		head        = c.head
		issueSlot   = c.issueSlot
		lastCommit  = c.lastCommit
		invIssue    = c.invIssue
		invCommit   = c.invCommit
		memThresh   = f64Thresh(seg.MemRatio)
		storeThresh = f64Thresh(seg.StoreFrac)
		fpThresh    = f64Thresh(seg.FPFrac)
		depDist     = seg.DepDist
		atomic      = seg.Atomic
		chasePat    = seg.Pat == trace.PatChase
		intLat      = c.cfg.IntLat
		fpLat       = c.cfg.FPLat
		storeLat    = c.cfg.StoreLat
	)
	// Instructions inside the type's shared prefix read their draws from
	// it; the rest draw live, from where the prefix ended. Until the
	// first live draw the live state is unused, so it is (re)loaded
	// whenever this call may cross the end of the prefix.
	var pre []mixDraw
	if p := e.prefix; p != nil && e.retired <= mixPrefixLen {
		pre = p.draws[e.retired:min(e.retired+n, mixPrefixLen)]
		if e.retired+n > mixPrefixLen {
			e.mixRng = p.post
		}
	}
	k := int64(0)
	for ; k < n; k++ {
		if k > 0 && lastCommit >= deadline {
			break
		}
		var draw mixDraw
		if k < int64(len(pre)) {
			draw = pre[k]
		} else {
			if depDist > 1 {
				draw.exp = e.mixRng.ExpFloat64()
			}
			draw.mem = e.mixRng.draw53()
			draw.sub = e.mixRng.draw53()
		}
		// Register dependency: distance with mean seg.DepDist, at
		// least 1, bounded by the ROB window.
		ready := 0.0
		d := int64(1)
		if depDist > 1 {
			d += int64(draw.exp * (depDist - 1))
		}
		if d > rob-1 {
			d = rob - 1
		}
		if d <= head {
			ready = comp[uint64(head-d)&cmask]
		}

		// ROB occupancy: instruction head cannot dispatch before the
		// instruction ROB slots older has committed. (The slot of
		// instruction head-ROB still holds its commit time: the ring
		// spans at least ROB instructions.)
		robFree := cring[uint64(head-rob)&wmask]

		issue := issueSlot
		if ready > issue {
			issue = ready
		}
		if robFree > issue {
			issue = robFree
		}

		// Latency by instruction class.
		var lat float64
		if draw.mem < memThresh {
			addr := c.address(e, seg)
			isStore := draw.sub < storeThresh
			memLat := c.mem.Access(addr, isStore, atomic, issue)
			if isStore && !atomic {
				// The write buffer hides the store round trip.
				lat = storeLat
			} else {
				if chasePat {
					// Serialised loads: wait for the previous one.
					if e.lastLoad > issue {
						issue = e.lastLoad
					}
				}
				lat = memLat
				e.lastLoad = issue + lat
			}
		} else if draw.sub < fpThresh {
			lat = fpLat
		} else {
			lat = intLat
		}

		complete := issue + lat
		commit := lastCommit + invCommit
		if complete > commit {
			commit = complete
		}

		comp[uint64(head)&cmask] = complete
		cring[uint64(head)&wmask] = commit
		lastCommit = commit
		issueSlot = issue + invIssue
		head++
	}
	c.head = head
	c.issueSlot = issueSlot
	c.lastCommit = lastCommit
	return k
}

// address generates the next memory address of the segment's pattern.
func (c *Core) address(e *Exec, seg *trace.Segment) uint64 {
	fp := seg.Footprint
	if fp == 0 {
		return seg.Base
	}
	switch seg.Pat {
	case trace.PatStride:
		// The stride offset advances by (stride mod footprint) per
		// access, replacing the 64-bit division of the closed form
		// (memIdx*stride) mod footprint with one add and a conditional
		// subtract. The closed form remains as fallback for parameters
		// where incremental modular arithmetic would diverge (negative
		// strides or products overflowing int64), keeping the generated
		// address sequence bit-identical in every case.
		var off uint64
		if e.strideIdx != e.segIdx {
			e.strideIdx = e.segIdx
			e.strideOK = seg.Stride >= 0 && fp < 1<<62 &&
				(seg.Stride == 0 || e.memIdx+seg.N <= (1<<62)/seg.Stride)
			if e.strideOK {
				e.strideStep = uint64(seg.Stride) % fp
			}
			off = uint64(e.memIdx*seg.Stride) % fp
		} else {
			off = e.strideOff
		}
		e.memIdx++
		if e.strideOK {
			next := off + e.strideStep
			if next >= fp {
				next -= fp
			}
			e.strideOff = next
		} else {
			e.strideOff = uint64(e.memIdx*seg.Stride) % fp
		}
		return seg.Base + off
	case trace.PatRandom:
		return seg.Base + e.addrRng.Uint64N(fp)
	case trace.PatGaussian:
		// Hot spot in the middle of the footprint.
		off := float64(fp)/2 + e.addrRng.NormFloat64()*float64(fp)/8
		if off < 0 {
			off = 0
		}
		if off >= float64(fp) {
			off = float64(fp) - 1
		}
		return seg.Base + uint64(off)
	case trace.PatChase:
		e.chase = e.chase*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		return seg.Base + e.chase%fp
	default:
		return seg.Base
	}
}
