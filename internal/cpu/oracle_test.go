package cpu

import (
	"math"
	"math/rand/v2"
	"testing"

	"taskpoint/internal/trace"
)

// oracleCore is the core model as it was before its time selects became
// branch-free: float rings and if/else maxes. Run and runSegment below are
// that code verbatim; TestCoreMatchesOracle holds the branch-free loop to
// it bit for bit.
type oracleCore struct {
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

func newOracle(cfg Config, mem MemPort) *oracleCore {
	c := New(cfg, mem)
	return &oracleCore{
		cfg:        cfg,
		mem:        mem,
		compRing:   make([]float64, len(c.compRing)),
		commitRing: make([]float64, len(c.commitRing)),
		invIssue:   c.invIssue,
		invCommit:  c.invCommit,
	}
}

func (c *oracleCore) address(e *Exec, seg *trace.Segment) uint64 {
	return (&Core{}).address(e, seg)
}

func (c *oracleCore) Run(e *Exec, limit int64, deadline, now float64) (end float64, finished bool) {
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

func (c *oracleCore) runSegment(e *Exec, seg *trace.Segment, n int64, deadline float64) int64 {
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

// oracleDiff returns the first pipeline or cursor state in which the core
// and the oracle differ, or "" when they agree bit for bit.
func oracleDiff(c *Core, o *oracleCore, e, oe *Exec) string {
	for i := range c.compRing {
		if c.compRing[i] != math.Float64bits(o.compRing[i]) {
			return "completion ring"
		}
		if c.commitRing[i] != math.Float64bits(o.commitRing[i]) {
			return "commit ring"
		}
	}
	switch {
	case c.head != o.head:
		return "head"
	case math.Float64bits(c.issueSlot) != math.Float64bits(o.issueSlot):
		return "issueSlot"
	case math.Float64bits(c.lastCommit) != math.Float64bits(o.lastCommit):
		return "lastCommit"
	case e.Retired() != oe.Retired():
		return "Retired"
	case math.Float64bits(e.lastLoad) != math.Float64bits(oe.lastLoad):
		return "lastLoad"
	}
	return ""
}

// oracleFrac draws a class fraction: 0, 1 or in between.
func oracleFrac(r *rand.Rand) float64 {
	switch r.IntN(4) {
	case 0:
		return 0
	case 1:
		return 1
	}
	return r.Float64()
}

// oracleInstance draws an instance of type typ. long instances cross the
// type's shared mix prefix; prefix-eligible ones keep every DepDist > 1.
func oracleInstance(r *rand.Rand, typ trace.TypeID, long, eligible bool) *trace.Instance {
	in := &trace.Instance{Type: typ, Seed: r.Uint64()}
	segs := 1 + r.IntN(4)
	for i := range segs {
		dep := 1 + 20*r.Float64()
		if !eligible && (i == 0 || r.IntN(2) == 0) {
			dep = []float64{0.5, 1}[r.IntN(2)]
		}
		n := 1 + r.Int64N(600)
		if long {
			n = mixPrefixLen/int64(segs) + 1 + r.Int64N(2000)
		}
		in.Segments = append(in.Segments, trace.Segment{
			N:         n,
			MemRatio:  oracleFrac(r),
			StoreFrac: oracleFrac(r),
			Pat:       trace.Pattern(r.IntN(4)),
			Base:      uint64(r.IntN(1<<20)) << 6,
			Footprint: []uint64{0, 64, 1 << 12, 1 << 20}[r.IntN(4)],
			Stride:    []int64{0, 8, 64, 4160}[r.IntN(4)],
			Atomic:    r.IntN(2) == 0,
			DepDist:   dep,
			FPFrac:    oracleFrac(r),
		})
	}
	return in
}

// TestCoreMatchesOracle drives the branch-free core loop and the oracle
// side by side over seeded random configurations and instances — every
// address pattern, atomics on and off, DepDist at most 1 and above,
// class fractions at 0, 1 and between, instances that cross the shared
// mix prefix, instruction limits and deadlines that cut segments — and
// compares all of their state bit for bit after every Run.
func TestCoreMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(24, 7))
	for round := range 32 {
		cfg := Config{
			ROB:         []int{1, 2, 5, 32, 168}[r.IntN(5)],
			IssueWidth:  1 + r.IntN(8),
			CommitWidth: 1 + r.IntN(8),
			IntLat:      0.5 + 2*r.Float64(),
			FPLat:       1 + 8*r.Float64(),
			StoreLat:    0.5 + 3*r.Float64(),
		}
		m, om := &hashMem{}, &hashMem{}
		c, o := New(cfg, m), newOracle(cfg, om)
		now := 0.0
		for i := range 6 {
			long := i == 0 && round%4 == 0
			// Types 0-5 read a shared prefix when eligible; the others
			// are outside the prefix table.
			typ := []trace.TypeID{0, 1, 2, 3, 4, 5, mixTypes, 1000}[r.IntN(8)]
			if long {
				typ = trace.TypeID(r.IntN(6))
			}
			in := oracleInstance(r, typ, long, long || r.IntN(2) == 0)
			e, oe := NewExec(in), NewExec(in)
			limit := []int64{1, 7, 300, 1 << 40}[r.IntN(4)]
			step := []float64{5, 60, 1000, math.Inf(1)}[r.IntN(4)]
			for calls := 0; ; calls++ {
				end, fin := c.Run(e, limit, now+step, now)
				oend, ofin := o.Run(oe, limit, now+step, now)
				if math.Float64bits(end) != math.Float64bits(oend) || fin != ofin {
					t.Fatalf("round %d, instance %d, call %d: Run = (%v, %v), oracle (%v, %v)", round, i, calls, end, fin, oend, ofin)
				}
				if d := oracleDiff(c, o, e, oe); d != "" {
					t.Fatalf("round %d, instance %d, call %d: %s differs from the oracle", round, i, calls, d)
				}
				now = end
				if fin {
					break
				}
			}
			if m.h != om.h {
				t.Fatalf("round %d, instance %d: memory accesses differ from the oracle", round, i)
			}
			// The next instance starts before the pipeline drains, as it
			// drains or after an idle gap.
			now = max(now+[]float64{-40, 0, 500}[r.IntN(3)]*r.Float64(), 0)
		}
	}
}

// TestTmaxMatchesMax: on the non-negative, non-NaN times the core loop
// compares, tmax returns exactly what the builtin max does.
func TestTmaxMatchesMax(t *testing.T) {
	vals := []float64{
		0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022, // subnormal and normal edges
		1, math.Nextafter(1, 2), math.MaxFloat64, math.Inf(1),
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 200 {
		vals = append(vals, r.Float64()*math.Exp2(float64(r.IntN(200)-100)),
			math.Float64frombits(r.Uint64()>>1)) // any non-negative bit pattern; NaNs are skipped below
	}
	for _, a := range vals {
		for _, b := range vals {
			if math.IsNaN(a) || math.IsNaN(b) {
				continue
			}
			if got, want := tmax(a, b), max(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tmax(%v, %v) = %v, max = %v", a, b, got, want)
			}
		}
	}
}
