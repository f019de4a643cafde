package taskpoint_test

import (
	"bytes"
	"context"
	"fmt"

	"taskpoint"
)

// Generate one of the paper's Table I benchmarks. Generation is
// deterministic in (name, scale, seed), so campaigns are reproducible.
func ExampleBenchmark() {
	prog := taskpoint.Benchmark("cholesky", 1.0/16, 42)

	fmt.Println("benchmark:", prog.Name)
	fmt.Println("task types:", prog.NumTypes())
	fmt.Println("deterministic:", prog.NumTasks() == taskpoint.Benchmark("cholesky", 1.0/16, 42).NumTasks())
	// Output:
	// benchmark: cholesky
	// task types: 4
	// deterministic: true
}

// Run the cycle-level detailed simulation — the reference against which
// sampling error is measured.
func ExampleSimulateDetailed() {
	prog := taskpoint.Benchmark("cholesky", 1.0/32, 42)
	cfg := taskpoint.HighPerf(4)

	res, err := taskpoint.SimulateDetailed(cfg, prog)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("finished:", res.Cycles > 0)
	fmt.Println("all instructions in detail:", res.DetailFraction() == 1)
	fmt.Println("tasks fast-forwarded:", res.FastTasks)
	// Output:
	// finished: true
	// all instructions in detail: true
	// tasks fast-forwarded: 0
}

// Run TaskPoint's sampled simulation and compare it against the detailed
// reference: a small execution-time error at a fraction of the detailed
// instructions.
func ExampleSimulateSampled() {
	cfg := taskpoint.HighPerf(4)
	detailed, err := taskpoint.SimulateDetailed(cfg, taskpoint.Benchmark("cholesky", 1.0/32, 42))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sampled, stats, err := taskpoint.SimulateSampled(cfg, taskpoint.Benchmark("cholesky", 1.0/32, 42),
		taskpoint.DefaultParams(), taskpoint.LazyPolicy())
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Println("error below 5%:", taskpoint.ErrorPct(sampled, detailed) < 5)
	fmt.Println("detail fraction below 50%:", sampled.DetailFraction() < 0.5)
	fmt.Println("sampled some tasks in detail:", stats.DetailedStarted > 0)
	fmt.Println("fast-forwarded the rest:", stats.FastStarted > 0)
	// Output:
	// error below 5%: true
	// detail fraction below 50%: true
	// sampled some tasks in detail: true
	// fast-forwarded the rest: true
}

// Run two-phase stratified sampling with a detailed budget and read the
// confidence interval of the cycle estimate. The detailed reference's
// true total task cycles falls inside the reported 95% interval.
func ExampleSimulateStratified() {
	prog := taskpoint.Benchmark("dedup", 1.0/32, 42)
	cfg := taskpoint.HighPerf(8)

	detailed, err := taskpoint.SimulateDetailed(cfg, prog)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	_, stats, conf, err := taskpoint.SimulateStratified(cfg, prog, taskpoint.DefaultParams(), 150)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Println("strata observed:", conf.Strata > 1)
	fmt.Println("every instance accounted:", conf.Population == prog.NumTasks())
	fmt.Println("directed samples taken:", stats.DirectedStarted > 0)
	fmt.Println("interval is meaningful:", conf.RelWidth() > 0 && conf.RelWidth() < 0.5)
	fmt.Println("true total inside 95% CI:", conf.Covers(detailed.TotalTaskCycles()))
	// Output:
	// strata observed: true
	// every instance accounted: true
	// directed samples taken: true
	// interval is meaningful: true
	// true total inside 95% CI: true
}

// Drive the unified experiment engine directly: declare a grid of
// requests (workload × architecture × threads × policy) and iterate the
// reports. RunAll shards the grid across the worker pool but yields in
// request order, and the context cancels in-flight simulations — the one
// code path behind the Runner and the sweep engine.
func ExampleEngine_RunAll() {
	eng := taskpoint.NewEngine(taskpoint.WithWorkers(4))

	var reqs []taskpoint.Request
	for _, workload := range []string{"cholesky", "vector-operation"} {
		for _, policy := range []string{"lazy", "periodic(250)"} {
			reqs = append(reqs, taskpoint.Request{
				Workload: workload,
				Arch:     "hp", // canonicalised to "high-performance"
				Threads:  2,
				Scale:    1.0 / 64,
				Seed:     42,
				Policy:   policy,
			})
		}
	}

	for rep, err := range eng.RunAll(context.Background(), reqs) {
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s: error below 10%%: %v\n", rep.Request.Key(), rep.ErrPct < 10)
	}
	// Output:
	// cholesky|high-performance|2|lazy|42: error below 10%: true
	// cholesky|high-performance|2|periodic(250)|42: error below 10%: true
	// vector-operation|high-performance|2|lazy|42: error below 10%: true
	// vector-operation|high-performance|2|periodic(250)|42: error below 10%: true
}

// Declare and run a small design-space campaign with the sweep engine.
func ExampleNewSweep() {
	spec := taskpoint.SweepSpec{
		Name:       "example",
		Scale:      1.0 / 64,
		Benchmarks: []string{"vector-operation"},
		Archs:      []string{"hp", "lp"},
		Threads:    []int{2},
		Policies:   []string{"lazy", "periodic:250"},
	}
	eng, err := taskpoint.NewSweep(spec, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	recs, err := eng.Run(nil, nil) // nil writer: no JSONL stream needed here
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Println("cells:", len(recs))
	for _, s := range taskpoint.SummarizeSweep(recs) {
		fmt.Printf("%s/%s: error below 10%%: %v\n", s.Arch, s.Policy, s.MaxErrPct < 10)
	}
	// Output:
	// cells: 4
	// high-performance/lazy: error below 10%: true
	// high-performance/periodic(250): error below 10%: true
	// low-power/lazy: error below 10%: true
	// low-power/periodic(250): error below 10%: true
}

// Generate a synthetic scenario from the property-driven generator: a
// DAG pattern family plus orthogonal knobs (size distribution, phases,
// input dependence), named by a spec string that works everywhere a
// benchmark name does.
func ExampleParseScenario() {
	sc, err := taskpoint.ParseScenario("gen:pipeline(tasks=128,depth=4,size=heavytail,inputdep=0.8)")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	prog, err := taskpoint.LookupBenchmark(sc.Spec(), 1, 42)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	again, _ := taskpoint.LookupBenchmark(sc.Spec(), 1, 42)

	fmt.Println("spec:", sc.Spec())
	fmt.Println("task types:", prog.NumTypes())
	fmt.Println("instances:", prog.NumTasks())
	fmt.Println("deterministic:", prog.TotalInstructions() == again.TotalInstructions())
	// Output:
	// spec: gen:pipeline(tasks=128,depth=4,size=heavytail,inputdep=0.8)
	// task types: 4
	// instances: 128
	// deterministic: true
}

// Record a campaign through the flight recorder and read the structured
// span tree back: every engine run leaves paired span.begin/span.end
// lines (campaign → cell → baseline/sampled), and ReadSpans rebuilds the
// hierarchy from the JSONL bytes.
func ExampleReadSpans() {
	var buf bytes.Buffer
	rec := taskpoint.NewRecorder(&buf)
	eng := taskpoint.NewEngine(taskpoint.WithWorkers(1), taskpoint.WithRecorder(rec))

	_, err := eng.Run(context.Background(), taskpoint.Request{
		Workload: "cholesky", Arch: "hp", Threads: 2, Scale: 1.0 / 64, Seed: 42, Policy: "lazy",
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rec.Close()

	tr, err := taskpoint.ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cell := tr.Roots[0]
	fmt.Println("clean trace:", tr.Clean)
	fmt.Println("root span:", cell.Name)
	for _, child := range cell.Children {
		fmt.Println("  phase:", child.Name)
	}
	// Output:
	// clean trace: true
	// root span: cell
	//   phase: baseline
	//   phase: sampled
}

// Analyze a recorded trace into the campaign cost report — the same
// attribution cmd/obsq prints: wall-clock by phase and cell, the critical
// path through the worker pool, and baseline-cache economics.
func ExampleObsqReport() {
	rep, err := taskpoint.AnalyzeTraceFile("internal/obs/query/testdata/golden_trace.jsonl")
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Println("cells:", len(rep.Cells))
	fmt.Println("cache hits:", rep.Cache.Hits)
	fmt.Printf("critical path: %d cells, %.1f%% of the campaign\n",
		len(rep.CriticalPath.Steps), rep.CriticalPath.CoveragePct)
	for _, s := range rep.Stragglers {
		fmt.Printf("straggler: %s at %.2fx the group median\n", s.Workload, s.Ratio)
	}
	// Output:
	// cells: 5
	// cache hits: 3
	// critical path: 3 cells, 99.2% of the campaign
	// straggler: cholesky at 2.03x the group median
}

// Run a small generated accuracy-stress corpus: scenarios drawn across
// the family x knob grid, every policy vs the detailed reference. A
// corpus is a sweep whose benchmark axis is drawn, so the sweep engine
// runs it and its summary gives the per-policy error and CI coverage.
func ExampleDefaultCorpus() {
	spec, err := taskpoint.DefaultCorpus(3).SweepSpec()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	eng, err := taskpoint.NewSweep(spec, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	recs, err := eng.Run(nil, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("records:", len(recs))
	for _, s := range taskpoint.SummarizeSweep(recs) {
		fmt.Printf("%s: %d scenarios, ci cells %d\n", s.Policy, s.Cells, s.CICells)
	}
	// Output:
	// records: 9
	// lazy: 3 scenarios, ci cells 0
	// periodic(64): 3 scenarios, ci cells 0
	// stratified(256): 3 scenarios, ci cells 3
}

// Content-address an experiment cell: the SHA-256 of its request's
// canonical form. Every accepted spelling of one cell — short
// architecture names, whitespace in the policy spec, the colon form —
// yields the same address, so the campaign store (cmd/taskpointd) never
// computes one cell twice.
func ExampleContentAddress() {
	addr, err := taskpoint.ContentAddress(taskpoint.Request{
		Workload: "cholesky", Arch: "lp", Threads: 8,
		Scale: 0.25, Seed: 42, Policy: "periodic(250)",
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// A different spelling of the same cell.
	same, _ := taskpoint.ContentAddress(taskpoint.Request{
		Workload: "cholesky", Arch: "low-power", Threads: 8,
		Scale: 0.25, Seed: 42, Policy: "periodic: 250",
	})
	// A different cell (another seed).
	other, _ := taskpoint.ContentAddress(taskpoint.Request{
		Workload: "cholesky", Arch: "lp", Threads: 8,
		Scale: 0.25, Seed: 43, Policy: "periodic(250)",
	})

	fmt.Println("address:", addr)
	fmt.Println("same cell, same address:", same == addr)
	fmt.Println("other cell, other address:", other != addr)
	// Output:
	// address: 71aefffe93bbd2fbd278cb4e955ffb21d9fb6168af5487007907d519d380d6a7
	// same cell, same address: true
	// other cell, other address: true
}
