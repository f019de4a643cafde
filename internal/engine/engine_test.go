package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"taskpoint/internal/arch"
	"taskpoint/internal/bench"
	"taskpoint/internal/core"
)

// testScale keeps unit-test simulations fast.
const testScale = 1.0 / 64

func testRequest(workload, policy string, threads int) Request {
	return Request{
		Workload: workload,
		Arch:     "hp",
		Threads:  threads,
		Scale:    testScale,
		Seed:     7,
		Policy:   policy,
	}
}

func TestRequestDefaultsAndKey(t *testing.T) {
	r := Request{Workload: "cholesky"}
	n := r.normalized()
	if n.Arch != string(arch.HighPerf) || n.Threads != 1 || n.Scale != 1 || n.Policy != "lazy" {
		t.Errorf("defaults not applied: %+v", n)
	}
	if n.Params != core.DefaultParams() {
		t.Errorf("zero params did not default: %+v", n.Params)
	}
	// Key canonicalises short arch names and policy spellings, and
	// matches CellKey exactly — the resume identity of sweep records.
	r = Request{Workload: "dedup", Arch: "lp", Threads: 4, Seed: 9, Policy: "periodic:250"}
	want := CellKey("dedup", string(arch.LowPower), 4, "periodic(250)", 9)
	if got := r.Key(); got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

func TestRequestValidate(t *testing.T) {
	if err := testRequest("cholesky", "lazy", 2).Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if err := (Request{}).Validate(); err == nil {
		t.Error("empty request accepted")
	}
	err := testRequest("no-such-bench", "lazy", 2).Validate()
	if !errors.Is(err, bench.ErrUnknownName) {
		t.Errorf("unknown workload error %v, want bench.ErrUnknownName", err)
	}
	req := testRequest("cholesky", "lazy", 2)
	req.Arch = "tpu"
	if err := req.Validate(); !errors.Is(err, arch.ErrUnknown) {
		t.Errorf("unknown arch error %v, want arch.ErrUnknown", err)
	}
	if err := testRequest("cholesky", "eager", 2).Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	req = testRequest("cholesky", "lazy", 2)
	req.Params = core.Params{W: -1, H: 4, RareCutoff: 5, ResampleWarmup: 1, ConcurrencyTolerance: 0.25, ConcurrencyPatience: 2}
	if err := req.Validate(); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestRunReportShape(t *testing.T) {
	e := New(WithWorkers(2))
	rep, err := e.Run(context.Background(), testRequest("cholesky", "lazy", 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Request.Arch != string(arch.HighPerf) || rep.Request.Policy != "lazy" {
		t.Errorf("report request not canonical: %+v", rep.Request)
	}
	if rep.Program == nil || rep.Sampled == nil || rep.Detailed == nil {
		t.Fatal("report missing program or results")
	}
	if rep.Sampled.Cycles <= 0 || rep.Detailed.Cycles <= 0 {
		t.Errorf("nonpositive cycles: %v / %v", rep.Sampled.Cycles, rep.Detailed.Cycles)
	}
	if rep.SpeedupDetail < 1 || rep.DetailFraction <= 0 || rep.DetailFraction >= 1 {
		t.Errorf("speedup %v, detail fraction %v out of range", rep.SpeedupDetail, rep.DetailFraction)
	}
	if rep.Confidence != nil {
		t.Error("lazy run carries a confidence interval")
	}
	if rep.DetailedTaskCycles <= 0 {
		t.Error("missing detailed task-cycle reference")
	}

	// The detailed baseline is shared: a second policy over the same
	// cell reuses the identical result value.
	rep2, err := e.Run(context.Background(), testRequest("cholesky", "periodic(100)", 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Detailed != rep.Detailed {
		t.Error("detailed baseline not shared across policies of one cell")
	}

	// Stratified cells report their interval.
	rep3, err := e.Run(context.Background(), testRequest("cholesky", "stratified(120)", 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Confidence == nil || rep3.Confidence.Strata == 0 {
		t.Errorf("stratified run lacks a confidence interval: %+v", rep3.Confidence)
	}
}

func TestBaselineCacheSharedAcrossEngines(t *testing.T) {
	cache := NewBaselineCache()
	e1 := New(WithWorkers(1), WithBaselineCache(cache))
	e2 := New(WithWorkers(1), WithBaselineCache(cache))
	a, err := e1.Baseline(context.Background(), testRequest("swaptions", "lazy", 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.Baseline(context.Background(), testRequest("swaptions", "lazy", 2))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("engines sharing a cache recomputed the baseline")
	}
	c, err := e2.Baseline(context.Background(), testRequest("swaptions", "lazy", 4))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("distinct thread counts shared one baseline")
	}
}

func testGrid() []Request {
	var reqs []Request
	for _, wl := range []string{"cholesky", "vector-operation"} {
		for _, pol := range []string{"lazy", "periodic(150)", "stratified(100)"} {
			reqs = append(reqs, testRequest(wl, pol, 4))
		}
	}
	return reqs
}

// TestRunAllContinuesPastFailures: one bad cell yields its error in
// position; the rest of the campaign still runs.
func TestRunAllContinuesPastFailures(t *testing.T) {
	reqs := []Request{
		testRequest("cholesky", "lazy", 2),
		testRequest("no-such-bench", "lazy", 2),
		testRequest("vector-operation", "lazy", 2),
	}
	var errs []error
	var keys []string
	for rep, err := range New(WithWorkers(2)).RunAll(context.Background(), reqs) {
		errs = append(errs, err)
		if err == nil {
			keys = append(keys, rep.Request.Key())
		}
	}
	if len(errs) != 3 || errs[0] != nil || errs[2] != nil {
		t.Fatalf("unexpected error layout: %v", errs)
	}
	if !errors.Is(errs[1], bench.ErrUnknownName) {
		t.Errorf("bad cell error %v, want bench.ErrUnknownName", errs[1])
	}
	if len(keys) != 2 {
		t.Errorf("campaign did not continue past the failure: %v", keys)
	}
}

// TestRunAllPreCancelled: a context cancelled before iteration fails
// every request with the cancellation error without simulating anything.
func TestRunAllPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	n := 0
	for _, err := range New(WithWorkers(2)).RunAll(ctx, testGrid()) {
		n++
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("request error %v, want context.Canceled", err)
		}
	}
	if n != len(testGrid()) {
		t.Errorf("yielded %d outcomes, want %d", n, len(testGrid()))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled RunAll took %v", elapsed)
	}
}

// TestRunCancelledMidSimulation: cancelling the context while the
// simulator is deep in its scheduler loop abandons the run promptly —
// well before the full simulation would have finished. The test first
// measures the uncancelled cell to calibrate "promptly" against the host.
func TestRunCancelledMidSimulation(t *testing.T) {
	// A deliberately heavy cell: ~1s of detailed simulation on the
	// calibration run.
	req := Request{Workload: "cholesky", Arch: "hp", Threads: 8, Scale: 0.25, Seed: 42, Policy: "lazy"}

	full := New(WithWorkers(1))
	start := time.Now()
	if _, err := full.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(start)

	// Fresh engine (empty cache) so the detailed baseline really
	// re-simulates; cancel a tenth of the way in.
	eng := New(WithWorkers(1))
	ctx, cancel := context.WithTimeout(context.Background(), fullDur/10)
	defer cancel()
	start = time.Now()
	_, err := eng.Run(ctx, req)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > fullDur/2 {
		t.Errorf("cancelled run took %v of an uncancelled %v — not prompt", elapsed, fullDur)
	}
}

// TestRunAllCancelMidCampaign: cancelling after the first yielded report
// stops the campaign promptly and surfaces the cancellation on the
// remaining cells.
func TestRunAllCancelMidCampaign(t *testing.T) {
	reqs := make([]Request, 6)
	for i := range reqs {
		// Distinct seeds defeat the baseline cache, so every cell pays
		// a full simulation — the campaign would be slow uncancelled.
		reqs[i] = Request{Workload: "cholesky", Arch: "hp", Threads: 8, Scale: 0.25, Seed: uint64(i + 1), Policy: "lazy"}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ok, cancelled := 0, 0
	for _, err := range New(WithWorkers(1)).RunAll(ctx, reqs) {
		switch {
		case err == nil:
			ok++
			cancel()
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok == 0 || cancelled == 0 || ok+cancelled != len(reqs) {
		t.Errorf("got %d completed + %d cancelled of %d cells", ok, cancelled, len(reqs))
	}
}
