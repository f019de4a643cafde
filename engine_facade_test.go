package taskpoint_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"taskpoint"
)

// TestNewStratifiedPolicy: the constructor mirrors ParsePolicy's error
// path for invalid budgets.
func TestNewStratifiedPolicy(t *testing.T) {
	pol, err := taskpoint.NewStratifiedPolicy(200)
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil || pol.Name() != "stratified(200)" {
		t.Errorf("policy %v, want stratified(200)", pol)
	}
	for _, b := range []int{0, -5} {
		pol, err := taskpoint.NewStratifiedPolicy(b)
		if err == nil {
			t.Errorf("budget %d accepted", b)
		}
		if pol != nil {
			t.Errorf("budget %d returned a non-nil policy alongside the error", b)
		}
	}
}

// TestErrUnknownArch: unknown architectures are distinguishable from
// every other request failure, so front ends can print the valid list
// exactly when it helps.
func TestErrUnknownArch(t *testing.T) {
	req := taskpoint.Request{Workload: "cholesky", Arch: "tpu"}
	err := req.Validate()
	if !errors.Is(err, taskpoint.ErrUnknownArch) {
		t.Errorf("unknown arch error %v, want ErrUnknownArch", err)
	}
	if errors.Is(err, taskpoint.ErrUnknownName) {
		t.Error("unknown arch error also matches ErrUnknownName")
	}
	// A known arch in any accepted spelling is not the listing's business.
	for _, a := range append(taskpoint.Arches(), "hp", "lp") {
		req := taskpoint.Request{Workload: "cholesky", Arch: a}
		if err := req.Validate(); err != nil {
			t.Errorf("arch %q rejected: %v", a, err)
		}
	}
	if len(taskpoint.Arches()) != 3 {
		t.Errorf("Arches() = %v, want the three evaluated architectures", taskpoint.Arches())
	}
}

// TestEngineFacade: the unified engine is drivable entirely through the
// facade — request in, report out, cancellation honoured — and agrees
// with the compatibility wrappers it replaced.
func TestEngineFacade(t *testing.T) {
	cache := taskpoint.NewBaselineCache()
	eng := taskpoint.NewEngine(taskpoint.WithWorkers(2), taskpoint.WithBaselineCache(cache))
	req := taskpoint.Request{
		Workload: "cholesky",
		Arch:     "hp",
		Threads:  4,
		Scale:    1.0 / 64,
		Seed:     42,
		Policy:   "lazy",
	}
	rep, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep.Request.Key(), "cholesky|high-performance|4|lazy|42") {
		t.Errorf("report key %q", rep.Request.Key())
	}

	// The wrapper facade reproduces the engine's numbers: same workload,
	// same seed, same policy → same simulated cycles.
	prog := taskpoint.Benchmark("cholesky", 1.0/64, 42)
	cfg := taskpoint.HighPerf(4)
	det, err := taskpoint.SimulateDetailed(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if det.Cycles != rep.Detailed.Cycles {
		t.Errorf("facade wrapper detailed cycles %v, engine %v", det.Cycles, rep.Detailed.Cycles)
	}
	samp, _, err := taskpoint.SimulateSampled(cfg, prog, taskpoint.DefaultParams(), taskpoint.LazyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if samp.Cycles != rep.Sampled.Cycles {
		t.Errorf("facade wrapper sampled cycles %v, engine %v", samp.Cycles, rep.Sampled.Cycles)
	}

	// Cancellation is honoured at the facade too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, req); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled facade run returned %v", err)
	}
}
