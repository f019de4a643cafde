// Package sweep is the design-space sweep engine: it expands a declarative
// specification (benchmarks × architectures × thread counts × sampling
// policies × seeds) into a campaign of sampled-vs-detailed comparisons,
// shards the runs across a bounded worker pool of the unified experiment
// engine (each detailed baseline computed once per campaign), and streams
// one JSONL record per completed cell so campaigns can be interrupted,
// resumed and post-processed.
//
// The paper's own evaluation is such a campaign — 19 benchmarks × two
// Table II architectures × several thread counts × two resampling policies
// (Figures 6-10) — and §V-C explicitly advocates lazy sampling "for
// evaluations requiring a large number of simulations, e.g. during the
// early phase of design space exploration". This package turns that advice
// into infrastructure.
package sweep

import (
	"fmt"

	"taskpoint/internal/arch"
	"taskpoint/internal/bench"
	"taskpoint/internal/core"
	"taskpoint/internal/engine"
)

// Spec declares a design-space sweep. Every listed dimension is expanded
// into its full cartesian product; empty dimensions are rejected by
// Validate so a spec always states the space it covers. The zero values of
// the sampling parameters select the paper's defaults (W=2, H=4).
type Spec struct {
	// Name labels the campaign in reports.
	Name string `json:"name,omitempty"`
	// Scale is the benchmark scale (1.0 = Table I instance counts).
	Scale float64 `json:"scale"`
	// Benchmarks are Table I benchmark names.
	Benchmarks []string `json:"benchmarks"`
	// Archs are architecture names accepted by arch.Parse
	// ("high-performance"/"hp", "low-power"/"lp", "native").
	Archs []string `json:"archs"`
	// Threads are the simulated thread counts.
	Threads []int `json:"threads"`
	// Policies are resampling policy names accepted by core.ParsePolicy
	// ("lazy", "periodic(250)", "periodic:1000").
	Policies []string `json:"policies"`
	// Seeds drive workload generation; each seed is a fresh draw of every
	// benchmark's generative model. Empty defaults to the single seed 42.
	Seeds []uint64 `json:"seeds,omitempty"`
	// W and H override the paper's warm-up count and history size when
	// positive; zero keeps core.DefaultParams.
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
}

// DefaultSpec returns a small but representative campaign: four benchmarks
// of distinct classes (dense linear algebra, stencil, graph traversal,
// streaming), both Table II architectures, two thread counts and both
// §V-C policies at 1/32 of the paper's problem sizes.
func DefaultSpec() Spec {
	return Spec{
		Name:       "default",
		Scale:      1.0 / 32,
		Benchmarks: []string{"cholesky", "3d-stencil", "knn", "vector-operation"},
		Archs:      []string{string(arch.HighPerf), string(arch.LowPower)},
		Threads:    []int{2, 8},
		Policies:   []string{"lazy", "periodic(250)"},
		Seeds:      []uint64{42},
	}
}

// Params returns the sampling parameters the spec selects.
func (s *Spec) Params() core.Params {
	p := core.DefaultParams()
	if s.W > 0 {
		p.W = s.W
	}
	if s.H > 0 {
		p.H = s.H
	}
	return p
}

// Validate checks every dimension of the spec, resolving benchmark, policy
// and architecture names eagerly so a campaign fails before its first
// simulation rather than mid-run.
func (s *Spec) Validate() error {
	if s.Scale <= 0 || s.Scale > 4 {
		return fmt.Errorf("sweep: scale %v out of range (0, 4]", s.Scale)
	}
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("sweep: no benchmarks listed")
	}
	for _, b := range s.Benchmarks {
		if _, err := bench.ByName(b); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if len(s.Archs) == 0 {
		return fmt.Errorf("sweep: no architectures listed")
	}
	for _, a := range s.Archs {
		if _, err := arch.Parse(a); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if len(s.Threads) == 0 {
		return fmt.Errorf("sweep: no thread counts listed")
	}
	for _, t := range s.Threads {
		if t < 1 || t > 64 {
			return fmt.Errorf("sweep: thread count %d out of range [1,64]", t)
		}
	}
	if len(s.Policies) == 0 {
		return fmt.Errorf("sweep: no policies listed")
	}
	for _, p := range s.Policies {
		if _, err := core.ParsePolicy(p); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if s.W < 0 || s.H < 0 {
		return fmt.Errorf("sweep: W=%d, H=%d must be >= 0 (0 selects the paper default)", s.W, s.H)
	}
	params := s.Params()
	if err := params.Validate(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// Cell is one point of the design space: a single sampled-vs-detailed
// comparison.
type Cell struct {
	Bench   string
	Arch    arch.Arch
	Threads int
	// Policy is the canonical policy name (core.Policy.Name form).
	Policy string
	Seed   uint64
}

// Key is the cell's stable identity used for resume bookkeeping and JSONL
// records. It is independent of dimension ordering in the spec and is the
// unified engine's cell key (engine.CellKey), so sweep records, corpus
// records and engine requests all key one cell identically.
func (c Cell) Key() string {
	return engine.CellKey(c.Bench, string(c.Arch), c.Threads, c.Policy, c.Seed)
}

// Request is the engine request that computes the cell under spec's
// campaign configuration (scale and sampling parameters).
func (c Cell) Request(spec Spec) engine.Request {
	return engine.Request{
		Workload: c.Bench,
		Arch:     string(c.Arch),
		Threads:  c.Threads,
		Scale:    spec.Scale,
		Seed:     c.Seed,
		Policy:   c.Policy,
		Params:   spec.Params(),
	}
}

// Cells expands the spec into its cartesian product in deterministic
// seed-major, benchmark-, arch-, thread-, policy-minor order. The spec
// must have been validated; unknown names panic here.
func (s *Spec) Cells() []Cell {
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{42}
	}
	cells := make([]Cell, 0, len(seeds)*len(s.Benchmarks)*len(s.Archs)*len(s.Threads)*len(s.Policies))
	for _, seed := range seeds {
		for _, b := range s.Benchmarks {
			for _, a := range s.Archs {
				ar, err := arch.Parse(a)
				if err != nil {
					panic(err)
				}
				for _, t := range s.Threads {
					for _, p := range s.Policies {
						pol, err := core.ParsePolicy(p)
						if err != nil {
							panic(err)
						}
						cells = append(cells, Cell{
							Bench:   b,
							Arch:    ar,
							Threads: t,
							Policy:  pol.Name(),
							Seed:    seed,
						})
					}
				}
			}
		}
	}
	return cells
}
