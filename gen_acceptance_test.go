// Acceptance tests for the generative scenario engine (internal/gen +
// internal/gen/corpus): the property-driven generator must feed the whole
// stack through the public facade, and on a fixed-seed 50-scenario
// accuracy-stress corpus the stratified policy's confidence interval must
// cover the detailed reference on at least 90% of the scenarios while
// every policy reports error and speedup for every cell.
package taskpoint_test

import (
	"strings"
	"testing"

	"taskpoint"
)

// TestScenarioThroughFacade: a parsed scenario simulates end to end like
// any Table I benchmark.
func TestScenarioThroughFacade(t *testing.T) {
	sc, err := taskpoint.ParseScenario("gen:forkjoin(tasks=128,width=8,size=bimodal,inputdep=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskpoint.LookupBenchmark(sc.Spec(), 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := taskpoint.HighPerf(4)
	det, err := taskpoint.SimulateDetailed(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := taskpoint.SimulateSampled(cfg, prog, taskpoint.DefaultParams(), taskpoint.LazyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if st.DetailedStarted == 0 || res.Cycles <= 0 || det.Cycles <= 0 {
		t.Fatalf("degenerate simulation: %+v, cycles %v/%v", st, res.Cycles, det.Cycles)
	}
	if len(taskpoint.ScenarioFamilies()) < 6 {
		t.Fatalf("only %d scenario families, want >= 6", len(taskpoint.ScenarioFamilies()))
	}
}

// TestCorpusStratifiedCoverage: the paper-level acceptance bar — a
// fixed-seed 50-scenario corpus across the full family × knob grid, run
// in parallel, with stratified sampling's confidence interval covering
// the detailed reference's total task cycles on >= 90% of scenarios.
func TestCorpusStratifiedCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("50-scenario corpus in -short mode")
	}
	spec, err := taskpoint.DefaultCorpus(50).SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := taskpoint.NewSweep(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := eng.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 150 {
		t.Fatalf("%d records, want 50 scenarios x 3 policies", len(recs))
	}
	families := map[string]bool{}
	for _, r := range recs {
		fam, _, _ := strings.Cut(strings.TrimPrefix(r.Bench, "gen:"), "(")
		families[fam] = true
		if r.DetailedCycles <= 0 || r.SampledCycles <= 0 || r.SpeedupDetail < 1 {
			t.Fatalf("cell %s has degenerate metrics: %+v", r.Key, r)
		}
	}
	if len(families) < 6 {
		t.Errorf("corpus exercised %d families, want >= 6", len(families))
	}
	for _, s := range taskpoint.SummarizeSweep(recs) {
		if s.Cells != 50 {
			t.Errorf("%s ran %d scenarios, want 50", s.Policy, s.Cells)
		}
		if s.GeoSpeedupDetail <= 1 {
			t.Errorf("%s has no sampling speedup: %+v", s.Policy, s)
		}
		if s.CICells > 0 {
			if s.CICells != 50 {
				t.Errorf("%s reported CIs on %d/50 scenarios", s.Policy, s.CICells)
			}
			if 10*s.CICovered < 9*s.CICells {
				t.Errorf("%s CI coverage %d/%d below the 90%% acceptance bar",
					s.Policy, s.CICovered, s.CICells)
			}
		}
	}
}
