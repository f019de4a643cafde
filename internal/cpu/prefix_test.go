package cpu

import (
	"math"
	"slices"
	"sync"
	"testing"

	"taskpoint/internal/trace"
)

// hashMem is a memory port whose latency depends on every access's
// address, kind and issue time, and which folds all of them into a
// running hash, so any divergence in the mix or address draws changes
// both the timings and the hash.
type hashMem struct{ h uint64 }

func (m *hashMem) Access(addr uint64, write, atomic bool, now float64) float64 {
	x := addr ^ math.Float64bits(now)<<1
	if write {
		x ^= 1 << 62
	}
	if atomic {
		x ^= 1 << 61
	}
	m.h = (m.h^x)*0x100000001b3 + 0x9e3779b97f4a7c15
	return 1 + float64(m.h>>59)
}

// quanta is how a test splits an instance into Core.Run calls: at most
// limit instructions per call, and a deadline step cycles past the
// previous end (+Inf: no deadline).
type quanta struct {
	limit int64
	step  float64
}

// runTrace runs inst to completion on a fresh core and returns every
// call's end time and retired count, the core's final pipeline state and
// the memory hash, as raw bits. live forces the instance's live mix
// generator, the reference the shared prefix must reproduce.
func runTrace(inst *trace.Instance, q quanta, live bool) []uint64 {
	m := &hashMem{}
	c := New(Config{ROB: 168, IssueWidth: 4, CommitWidth: 4, IntLat: 1, FPLat: 4, StoreLat: 2}, m)
	e := NewExec(inst)
	if live {
		e.prefix = nil
	}
	var out []uint64
	now := 0.0
	for {
		end, fin := c.Run(e, q.limit, now+q.step, now)
		out = append(out, math.Float64bits(end), uint64(e.Retired()))
		now = end
		if fin {
			break
		}
	}
	for i := range c.compRing {
		out = append(out, c.compRing[i], c.commitRing[i])
	}
	return append(out, uint64(c.head), math.Float64bits(c.issueSlot), math.Float64bits(c.lastCommit), m.h)
}

// mixInst builds an instance of type typ whose segments have the given
// lengths, cycling through patterns and dependency distances (all > 1).
func mixInst(typ trace.TypeID, seed uint64, lens ...int64) *trace.Instance {
	pats := []trace.Segment{
		{MemRatio: 0.3, StoreFrac: 0.3, Pat: trace.PatStride, Base: 1 << 20, Stride: 64, Footprint: 1 << 18, DepDist: 3.5, FPFrac: 0.4},
		{MemRatio: 0.5, StoreFrac: 0.2, Pat: trace.PatRandom, Base: 1 << 24, Footprint: 1 << 16, DepDist: 1.2, FPFrac: 0.1},
		{MemRatio: 0.2, Pat: trace.PatChase, Base: 1 << 26, Footprint: 1 << 14, DepDist: 6, FPFrac: 0.6},
		{MemRatio: 0.4, StoreFrac: 0.5, Atomic: true, Pat: trace.PatGaussian, Base: 1 << 28, Footprint: 1 << 12, DepDist: 16},
	}
	in := &trace.Instance{Type: typ, Seed: seed}
	for i, n := range lens {
		s := pats[i%len(pats)]
		s.N = n
		in.Segments = append(in.Segments, s)
	}
	return in
}

// TestMixPrefixMatchesLive: instances reading their type's shared prefix
// time byte-identically to the live generator, whatever their length
// relative to the prefix and however Core.Run splits them.
func TestMixPrefixMatchesLive(t *testing.T) {
	insts := map[string]*trace.Instance{
		"below":       mixInst(2, 11, 3000, 5000, 4000),
		"equal":       mixInst(2, 12, 6000, 10000, 384),
		"above":       mixInst(2, 13, 6000, 9000, 7000, 3000),
		"one segment": mixInst(3, 14, 3*mixPrefixLen+17),
	}
	splits := map[string]quanta{
		"limit 1":    {1, math.Inf(1)},
		"limit 7":    {7, math.Inf(1)},
		"limit 4096": {4096, math.Inf(1)},
		"deadline":   {1 << 40, 300},
	}
	for name, in := range insts {
		if e := NewExec(in); e.prefix == nil {
			t.Fatalf("%s: instance does not read the shared prefix", name)
		}
		for qname, q := range splits {
			live := runTrace(in, q, true)
			if got := runTrace(in, q, false); !slices.Equal(got, live) {
				t.Errorf("%s, %s: prefix timings differ from the live generator", name, qname)
			}
		}
	}
}

// TestMixPrefixFallsBackToLive: an instance with a segment of DepDist 1
// draws a variable number of values per instruction, and a type outside
// the table has no prefix; both keep the live generator.
func TestMixPrefixFallsBackToLive(t *testing.T) {
	dep1 := mixInst(2, 21, 5000, 4000, 9000)
	dep1.Segments[1].DepDist = 1
	for name, in := range map[string]*trace.Instance{
		"DepDist 1": dep1,
		"type 64":   mixInst(mixTypes, 22, 9000, 9000),
		"type 1000": mixInst(1000, 23, 20000),
	} {
		if e := NewExec(in); e.prefix != nil {
			t.Errorf("%s: instance reads a shared prefix", name)
		}
		q := quanta{7, math.Inf(1)}
		if got, want := runTrace(in, q, false), runTrace(in, q, true); !slices.Equal(got, want) {
			t.Errorf("%s: timings differ from the live generator", name)
		}
	}
}

// TestMixPrefixConcurrent: goroutines starting instances of one type at
// once share a prefix drawn exactly once and still match the live
// generator (run under -race to check its publication).
func TestMixPrefixConcurrent(t *testing.T) {
	const typ = mixTypes - 1 // used by no other test, so built here
	q := quanta{4096, math.Inf(1)}
	var insts []*trace.Instance
	for g := range 8 {
		insts = append(insts, mixInst(typ, uint64(100+g), int64(2000+3000*g), 9000))
	}
	got := make([][]uint64, len(insts))
	var wg sync.WaitGroup
	for g, in := range insts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = runTrace(in, q, false)
		}()
	}
	wg.Wait()
	for g, in := range insts {
		if !slices.Equal(got[g], runTrace(in, q, true)) {
			t.Errorf("goroutine %d: timings differ from the live generator", g)
		}
	}
}
