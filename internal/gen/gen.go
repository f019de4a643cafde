// Package gen is a seeded, property-driven synthetic workload generator:
// composable DAG pattern families (fork-join, pipeline, wavefront,
// divide-and-conquer, reduction tree, irregular random-token graphs, deep
// chains) expressed over trace.Program, with orthogonal knobs for
// task-size distributions (log-uniform, bimodal, heavy-tail), per-type
// behaviour variability, phase changes mid-program and input dependence
// (instance attributes drawn from a latent input seed).
//
// The paper validates TaskPoint on 12-19 fixed benchmarks and names
// input-dependent task behaviour (dedup, freqmine) as the residual failure
// mode — exactly the structure a fixed registry under-samples. This
// package manufactures adversarial scenarios on demand so the corpus
// harness (gen/corpus) can measure where each sampling policy's error and
// CI coverage actually break.
//
// A scenario is named by a spec string in the strict
// "gen:family(knob=value,...)" grammar (see Parse); the package registers
// a bench.Resolver for the "gen" scheme, so scenario names work anywhere a
// Table I benchmark name does: bench.ByName, engine requests, sweep
// campaigns, cmd/taskpoint.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"taskpoint/internal/trace"
)

// SizeDist selects the task-size (dynamic instruction count) distribution.
type SizeDist uint8

// Supported size distributions.
const (
	// SizeLogUniform draws sizes log-uniformly over [Mean/8, Mean*8] —
	// the paper's size-class stressor.
	SizeLogUniform SizeDist = iota
	// SizeFixed gives every instance exactly Mean instructions.
	SizeFixed
	// SizeBimodal mixes a small mode (80% at Mean/3) with a large one
	// (20% at 4*Mean) — dedup-like duplicate/unique behaviour.
	SizeBimodal
	// SizeHeavyTail draws from a Pareto(α=1.5) tail — freqmine-like
	// subtree mining where a few instances dominate total work.
	SizeHeavyTail
	numSizeDists
)

// String returns the distribution name used in spec strings.
func (d SizeDist) String() string {
	switch d {
	case SizeLogUniform:
		return "loguniform"
	case SizeFixed:
		return "fixed"
	case SizeBimodal:
		return "bimodal"
	case SizeHeavyTail:
		return "heavytail"
	default:
		return fmt.Sprintf("sizedist(%d)", uint8(d))
	}
}

// ParseSizeDist is the inverse of SizeDist.String.
func ParseSizeDist(s string) (SizeDist, error) {
	for d := SizeDist(0); d < numSizeDists; d++ {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("gen: unknown size distribution %q (want loguniform, fixed, bimodal or heavytail)", s)
}

// Knobs are the orthogonal scenario parameters. Every family accepts the
// full set; structural knobs (Width, Depth, Types) are interpreted
// per family and ignored where they have no meaning.
type Knobs struct {
	// Tasks is the approximate instance count at scale 1.
	Tasks int
	// Width is the parallelism degree: workers per fork-join round,
	// chain count, dependency window radius of the irregular family.
	Width int
	// Depth is the stage/level count: pipeline stages, tree depth.
	Depth int
	// Types is the task-type count of the irregular family.
	Types int
	// Size selects the task-size distribution.
	Size SizeDist
	// Mean is the scale parameter of the size distribution, in dynamic
	// instructions per task.
	Mean int64
	// CV is the per-type behaviour variability across instances: a
	// coefficient-of-variation-style multiplicative jitter on size and
	// ILP, which turns into per-type IPC variance.
	CV float64
	// Phases is the number of behaviour regimes over program duration;
	// each phase rescales per-type size and memory intensity, stressing
	// resampling policies the way program phases do.
	Phases int
	// InputDep in [0,1] is the input-dependence strength: each instance
	// draws a latent input value that shifts its size, ILP and memory
	// intensity, so instances of one type differ in ways no per-type
	// history can predict (the paper's dedup/freqmine failure mode).
	InputDep float64
}

// DefaultKnobs returns the knob defaults every unspecified spec key takes.
func DefaultKnobs() Knobs {
	return Knobs{
		Tasks: 512, Width: 16, Depth: 8, Types: 3,
		Size: SizeLogUniform, Mean: 2600, CV: 0.1, Phases: 1, InputDep: 0,
	}
}

// Validate checks every knob range. Specs with out-of-range knobs are
// rejected, never clamped.
func (k *Knobs) Validate() error {
	switch {
	case k.Tasks < 8 || k.Tasks > 1<<20:
		return fmt.Errorf("gen: tasks=%d out of [8, %d]", k.Tasks, 1<<20)
	case k.Width < 1 || k.Width > 4096:
		return fmt.Errorf("gen: width=%d out of [1, 4096]", k.Width)
	case k.Depth < 1 || k.Depth > 64:
		return fmt.Errorf("gen: depth=%d out of [1, 64]", k.Depth)
	case k.Types < 1 || k.Types > 16:
		return fmt.Errorf("gen: types=%d out of [1, 16]", k.Types)
	case k.Size < 0 || k.Size >= numSizeDists:
		return fmt.Errorf("gen: invalid size distribution %d", k.Size)
	case k.Mean < 64 || k.Mean > 1<<20:
		return fmt.Errorf("gen: mean=%d out of [64, %d]", k.Mean, 1<<20)
	// The float ranges are phrased positively so NaN — which fails every
	// comparison — is rejected too, not silently accepted.
	case !(k.CV >= 0 && k.CV <= 1):
		return fmt.Errorf("gen: cv=%v out of [0, 1]", k.CV)
	case k.Phases < 1 || k.Phases > 16:
		return fmt.Errorf("gen: phases=%d out of [1, 16]", k.Phases)
	case !(k.InputDep >= 0 && k.InputDep <= 1):
		return fmt.Errorf("gen: inputdep=%v out of [0, 1]", k.InputDep)
	}
	return nil
}

// node is one task of a family shape: its type index and the indices of
// the earlier nodes it depends on. Shapes emit nodes in creation order, so
// every predecessor index is smaller than the node's own index and the
// derived task graph is acyclic by construction.
type node struct {
	typ   int
	preds []int32
}

// Family is one DAG pattern family.
type Family struct {
	// Name is the family name used in spec strings ("forkjoin").
	Name string
	// Blurb is a one-line description for listings.
	Blurb string
	// typeNames returns the task-type names the family declares for the
	// given knobs; instance counts per type depend on the shape.
	typeNames func(k Knobs) []string
	// shape emits roughly n nodes in creation order. The rng is the
	// scenario's seeded stream; shapes that need no randomness ignore it.
	shape func(k Knobs, n int, rng *rand.Rand) []node
}

// Scenario is a fully parameterised generated workload: a family plus its
// knobs. Build it directly or via Parse.
type Scenario struct {
	Family *Family
	Knobs  Knobs
}

// --- materialisation -------------------------------------------------------

// Address-space layout of generated programs, disjoint from the registry
// generators' ranges: private per-instance blocks from genPrivateBase,
// per-type shared regions from genSharedBase.
const (
	genPrivateBase  = uint64(1) << 33
	genPrivateSpace = uint64(1) << 20
	genSharedBase   = uint64(3) << 44
	genSharedSpace  = uint64(1) << 30
	// genTokenBase keeps dependency tokens of generated programs in a
	// range of their own; node i's output token is genTokenBase+i.
	genTokenBase = uint64(7) << 40
)

// typeProfile is the drawn behaviour of one task type: the base memory/ILP
// character, an input-dependence response, and per-phase gains.
type typeProfile struct {
	mem, store, dep, fp float64
	pat                 trace.Pattern
	stride              int64
	foot                uint64
	shared              uint64 // shared region base; 0 = private per instance
	atomic              bool
	bins                uint64 // shared atomic-bin region when atomic

	sizeGain []float64 // per-phase size multiplier (phase 0 = 1)
	memShift []float64 // per-phase additive memory-ratio shift
}

// drawProfiles draws one behaviour profile per task type from the
// scenario's rng stream.
func drawProfiles(k Knobs, types int, rng *rand.Rand) []typeProfile {
	var nextShared uint64
	shared := func() uint64 {
		a := genSharedBase + nextShared*genSharedSpace
		nextShared++
		return a
	}
	out := make([]typeProfile, types)
	for t := range out {
		p := &out[t]
		p.mem = 0.05 + 0.25*rng.Float64()
		p.store = 0.5 * rng.Float64()
		p.dep = 2 + 6*rng.Float64()
		p.fp = 0.6 * rng.Float64()
		p.pat = trace.Pattern(rng.IntN(4))
		p.stride = []int64{8, 16, 64}[rng.IntN(3)]
		p.foot = uint64(4<<10) << rng.IntN(6) // 4 KiB .. 128 KiB
		if rng.Float64() < 0.3 {
			p.shared = shared()
		}
		if rng.Float64() < 0.1 {
			p.atomic = true
			p.bins = shared()
		}
		p.sizeGain = make([]float64, k.Phases)
		p.memShift = make([]float64, k.Phases)
		p.sizeGain[0] = 1
		for ph := 1; ph < k.Phases; ph++ {
			p.sizeGain[ph] = math.Exp(1.4*rng.Float64() - 0.7)
			p.memShift[ph] = 0.1*rng.Float64() - 0.05
		}
	}
	return out
}

// drawSize draws a task size from the knob-selected distribution.
func drawSize(k Knobs, rng *rand.Rand) float64 {
	m := float64(k.Mean)
	switch k.Size {
	case SizeFixed:
		return m
	case SizeBimodal:
		jit := 1 + 0.1*(2*rng.Float64()-1)
		if rng.Float64() < 0.8 {
			return m / 3 * jit
		}
		return 4 * m * jit
	case SizeHeavyTail:
		// Pareto(α=1.5) with x_m = Mean/3, clamped: a few instances
		// dominate total work, most are small.
		x := m / 3 / math.Pow(1-rng.Float64(), 1/1.5)
		return math.Min(x, 64*m)
	default: // SizeLogUniform
		lo, hi := m/8, m*8
		return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
}

func clampF(x, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, x)) }

// build materialises the scenario at roughly n instances. It is the
// bench.Spec build function: deterministic per (knobs, seed), independent
// of everything else.
func (sc *Scenario) build(n int, seed uint64) *trace.Program {
	k := sc.Knobs
	// Mix the canonical spec into the seed so every scenario of a corpus
	// is a decorrelated draw even when the campaign uses one seed.
	rng := rand.New(rand.NewPCG(seed^specHash(sc.Spec()), 0x9e3779b97f4a7c15))

	names := sc.Family.typeNames(k)
	prog := &trace.Program{Name: sc.Spec()}
	for _, nm := range names {
		prog.Types = append(prog.Types, trace.TypeInfo{Name: nm})
	}
	profiles := drawProfiles(k, len(names), rng)
	nodes := sc.Family.shape(k, n, rng)

	var nextPriv uint64
	private := func() uint64 {
		a := genPrivateBase + nextPriv*genPrivateSpace
		nextPriv++
		return a
	}
	for i, nd := range nodes {
		p := &profiles[nd.typ]
		phase := i * k.Phases / len(nodes)

		// Latent input: unobservable from the task type, it shifts
		// size, ILP and memory intensity together — per-type histories
		// cannot predict it.
		u := rng.Float64()
		size := drawSize(k, rng) * p.sizeGain[phase]
		size *= math.Exp(k.InputDep * (2*u - 1) * math.Log(3))
		size *= 1 + k.CV*(2*rng.Float64()-1)
		instr := int64(clampF(size, 32, 4<<20))

		dep := p.dep * (1 + 0.5*k.InputDep*(2*u-1)) * (1 + 0.5*k.CV*(2*rng.Float64()-1))
		mem := clampF(p.mem+p.memShift[phase]+0.6*k.InputDep*(u-0.5)*p.mem, 0, 0.95)
		fp := clampF(p.fp*(1+0.3*k.CV*(2*rng.Float64()-1)), 0, 1)

		base := p.shared
		if base == 0 {
			base = private()
		}
		segs := make([]trace.Segment, 0, 2)
		main := trace.Segment{
			N: instr, MemRatio: mem, StoreFrac: p.store,
			Pat: p.pat, Base: base, Footprint: p.foot,
			Stride: p.stride, DepDist: clampF(dep, 1, 16), FPFrac: fp,
		}
		if p.atomic && instr >= 160 {
			atom := instr / 5
			main.N = instr - atom
			segs = append(segs, main, trace.Segment{
				N: atom, MemRatio: 0.2, StoreFrac: 1,
				Pat: trace.PatRandom, Base: p.bins, Footprint: 16 << 10,
				Atomic: true, DepDist: 8,
			})
		} else {
			segs = append(segs, main)
		}

		in := make([]uint64, 0, len(nd.preds))
		for _, pr := range nd.preds {
			in = append(in, genTokenBase+uint64(pr))
		}
		prog.Instances = append(prog.Instances, trace.Instance{
			ID: int32(i), Type: trace.TypeID(nd.typ), Seed: rng.Uint64(),
			Segments: segs, In: in, Out: []uint64{genTokenBase + uint64(i)},
		})
	}
	return prog
}

// specHash is FNV-1a over the canonical spec string, mixed into the build
// seed so distinct scenarios decorrelate under a shared campaign seed.
func specHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
