// Package corpus draws accuracy-stress campaigns over the scenario
// generator: N scenarios across the family × knob grid, deterministically
// from a master seed. A corpus is a design-space sweep whose benchmark
// axis is drawn rather than listed, so SweepSpec is its whole interface
// to the rest of the stack: the sweep engine runs it, resumes it and
// summarises it per policy (cmd/sweep -corpus N).
package corpus

import (
	"fmt"
	"math/rand/v2"

	"taskpoint/internal/gen"
	"taskpoint/internal/results"
	"taskpoint/internal/sweep"
)

// Spec declares a corpus campaign. Zero values select the defaults noted
// per field; Draw and SweepSpec normalise them.
type Spec struct {
	// Name labels the campaign.
	Name string `json:"name,omitempty"`
	// Scenarios is N, the number of generated scenarios.
	Scenarios int `json:"scenarios"`
	// Families restricts the family pool (default: every gen family).
	// Scenarios round-robin over the pool so each family is covered.
	Families []string `json:"families,omitempty"`
	// Arch is the simulated architecture (default high-performance).
	Arch string `json:"arch,omitempty"`
	// Threads is the simulated thread count (default 4).
	Threads int `json:"threads,omitempty"`
	// Policies are the sampling policies under test (default lazy,
	// periodic(64) and stratified(256); the default period is sized so
	// periodic resampling actually fires at corpus task counts — the
	// paper's periodic(250) cannot trigger within ~50-160 fast
	// instances per thread and would duplicate lazy cell for cell).
	Policies []string `json:"policies,omitempty"`
	// Seed is the master seed: it drives both the knob draws and every
	// scenario's generative model (default 42).
	Seed uint64 `json:"seed,omitempty"`
	// MinTasks and MaxTasks bound the per-scenario instance count draw
	// (default 192..640).
	MinTasks int `json:"min_tasks,omitempty"`
	MaxTasks int `json:"max_tasks,omitempty"`
	// W and H override the paper's sampling parameters when positive.
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
}

// DefaultSpec returns a corpus campaign of n scenarios at the default
// grid: all seven families, high-performance architecture, 4 threads,
// lazy/periodic/stratified policies, master seed 42.
func DefaultSpec(n int) Spec { return Spec{Scenarios: n} }

// Normalized returns the spec with every defaulted field filled — what
// Draw and SweepSpec actually expand, and the single source of truth for
// reports that record the campaign configuration.
func (s Spec) Normalized() Spec {
	if s.Name == "" {
		s.Name = "corpus"
	}
	if len(s.Families) == 0 {
		s.Families = gen.FamilyNames()
	}
	if s.Arch == "" {
		s.Arch = string(results.HighPerf)
	}
	if s.Threads == 0 {
		s.Threads = 4
	}
	if len(s.Policies) == 0 {
		s.Policies = []string{"lazy", "periodic(64)", "stratified(256)"}
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.MinTasks == 0 {
		s.MinTasks = 192
	}
	if s.MaxTasks == 0 {
		s.MaxTasks = 640
	}
	return s
}

// Validate checks the campaign after normalisation: the draw dimensions
// directly, and the architecture/threads/policies/sampling parameters
// through the sweep spec the corpus expands into.
func (s Spec) Validate() error {
	if err := s.validateDraw(); err != nil {
		return err
	}
	sw, err := s.SweepSpec()
	if err != nil {
		return err
	}
	return sw.Validate()
}

// validateDraw checks the fields Draw consumes.
func (s Spec) validateDraw() error {
	n := s.Normalized()
	if n.Scenarios < 1 {
		return fmt.Errorf("corpus: scenario count %d must be >= 1", s.Scenarios)
	}
	for _, f := range n.Families {
		if _, err := gen.FamilyByName(f); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	if n.MinTasks < 8 || n.MaxTasks < n.MinTasks {
		return fmt.Errorf("corpus: task range [%d, %d] invalid (want 8 <= min <= max)", n.MinTasks, n.MaxTasks)
	}
	return nil
}

// Draw expands the campaign into its N scenarios. The draw is
// deterministic per master seed and — because each scenario derives its
// own PCG stream from (seed, index) — a prefix of a larger corpus is
// identical to a smaller one, so fixed-seed gate corpora stay stable as
// campaigns grow. Duplicate knob draws are nudged until every canonical
// spec is unique (specs are cache and resume keys downstream).
func (s Spec) Draw() ([]*gen.Scenario, error) {
	n := s.Normalized()
	if err := n.validateDraw(); err != nil {
		return nil, err
	}
	fams := make([]*gen.Family, len(n.Families))
	for i, name := range n.Families {
		fams[i], _ = gen.FamilyByName(name)
	}
	widths := []int{4, 8, 16, 32}
	seen := make(map[string]bool, n.Scenarios)
	out := make([]*gen.Scenario, 0, n.Scenarios)
	for i := 0; i < n.Scenarios; i++ {
		rng := rand.New(rand.NewPCG(n.Seed, 0xC0FFEE^uint64(i)))
		k := gen.DefaultKnobs()
		k.Tasks = n.MinTasks + rng.IntN(n.MaxTasks-n.MinTasks+1)
		k.Width = widths[rng.IntN(len(widths))]
		k.Depth = 2 + rng.IntN(9)
		k.Types = 2 + rng.IntN(5)
		k.Size = gen.SizeDist(rng.IntN(4))
		k.Mean = 2000 + int64(rng.IntN(1601))
		k.CV = float64(rng.IntN(51)) / 100
		k.Phases = 1 + rng.IntN(3)
		k.InputDep = float64(rng.IntN(101)) / 100
		sc := &gen.Scenario{Family: fams[i%len(fams)], Knobs: k}
		for seen[sc.Spec()] {
			sc.Knobs.Tasks++
		}
		seen[sc.Spec()] = true
		out = append(out, sc)
	}
	return out, nil
}

// SweepSpec expands the corpus into the design-space sweep it is: the N
// scenario specs as the benchmark dimension, one architecture, one thread
// count, the policies under test, the master seed.
func (s Spec) SweepSpec() (sweep.Spec, error) {
	n := s.Normalized()
	scs, err := n.Draw()
	if err != nil {
		return sweep.Spec{}, err
	}
	benchNames := make([]string, len(scs))
	for i, sc := range scs {
		benchNames[i] = sc.Spec()
	}
	return sweep.Spec{
		Name:       n.Name,
		Scale:      1,
		Benchmarks: benchNames,
		Archs:      []string{n.Arch},
		Threads:    []int{n.Threads},
		Policies:   n.Policies,
		Seeds:      []uint64{n.Seed},
		W:          n.W,
		H:          n.H,
	}, nil
}
