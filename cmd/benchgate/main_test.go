package main

import (
	"io"
	"testing"
)

const sampleOut = `
goos: linux
BenchmarkKernelDetailedHP8 	       6	  93536693 ns/op	  10947575 instr/s	10682696 B/op	     277 allocs/op
BenchmarkKernelDetailedHP8 	       6	  91283054 ns/op	  11217854 instr/s	10682696 B/op	     279 allocs/op
BenchmarkKernelDetailedHP8 	       6	  97837947 ns/op	  10466287 instr/s	10682696 B/op	     275 allocs/op
BenchmarkKernelExec-8 	    2496	    213479 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseTextAggregatesRuns(t *testing.T) {
	s := parseText(sampleOut)
	hp := s["KernelDetailedHP8"]
	if hp == nil {
		t.Fatal("KernelDetailedHP8 not parsed")
	}
	if n := len(hp.values["ns/op"]); n != 3 {
		t.Fatalf("ns/op runs = %d, want 3", n)
	}
	if med, ok := hp.median("ns/op"); !ok || med != 93536693 {
		t.Fatalf("ns/op median = %v (%v), want 93536693", med, ok)
	}
	if med, _ := hp.median("allocs/op"); med != 277 {
		t.Fatalf("allocs/op median = %v, want 277", med)
	}
	// The -procs suffix is stripped.
	if s["KernelExec"] == nil {
		t.Fatal("KernelExec (procs suffix) not parsed")
	}
}

func TestParseJSONBaselineShapes(t *testing.T) {
	bare := []byte(`[{"name":"KernelExec","metrics":{"ns/op":213479,"allocs/op":0}}]`)
	s, err := parseJSON(bare)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s["KernelExec"].median("ns/op"); v != 213479 {
		t.Fatalf("bare array median = %v", v)
	}
	report := []byte(`{"kernel":[{"name":"KernelDetailedHP8","metrics":{"allocs/op":277}}],
		"benchmarks":[{"name":"Fig9LazyHighPerf","metrics":{"err_pct":1.5}}]}`)
	s, err = parseJSON(report)
	if err != nil {
		t.Fatal(err)
	}
	if s["KernelDetailedHP8"] == nil || s["Fig9LazyHighPerf"] == nil {
		t.Fatal("bench-report sections not merged")
	}
}

func TestMedianEven(t *testing.T) {
	s := &sample{values: map[string][]float64{"ns/op": {4, 1, 3, 2}}}
	if med, _ := s.median("ns/op"); med != 2.5 {
		t.Fatalf("median = %v, want 2.5", med)
	}
}

// TestGateBytesPerOp pins the B/op gate: a rise within the 5% slack
// passes, a larger one fails even when allocs/op and ns/op are unchanged
// and only the memory gates run (the committed-baseline mode), and a
// zero-byte benchmark tolerates no more than the absolute slack.
func TestGateBytesPerOp(t *testing.T) {
	run := func(name string, bytes, allocs float64) map[string]*sample {
		return map[string]*sample{name: {name: name, values: map[string][]float64{
			"ns/op": {1000}, "allocs/op": {allocs}, "B/op": {bytes}}}}
	}
	base := run("KernelDetailedHP8", 5888832, 263)
	cases := []struct {
		name string
		new  map[string]*sample
		fail bool
	}{
		{"unchanged", run("KernelDetailedHP8", 5888832, 263), false},
		{"within slack", run("KernelDetailedHP8", 5888832*1.04, 263), false},
		// Reintroducing the 4 MiB directory presize, allocations unchanged.
		{"presize back", run("KernelDetailedHP8", 5888832+4<<20, 263), true},
		{"allocs rise", run("KernelDetailedHP8", 5888832, 263*1.1), true},
	}
	for _, c := range cases {
		got := gate(io.Discard, base, c.new, 10, 5, true)
		if (len(got) > 0) != c.fail {
			t.Errorf("%s: failures %q, want failing=%v", c.name, got, c.fail)
		}
	}
	zero := run("KernelAccessRead", 0, 0)
	if got := gate(io.Discard, zero, run("KernelAccessRead", 48, 0), 10, 5, true); len(got) != 0 {
		t.Errorf("48 B/op over a zero baseline failed: %q", got)
	}
	if got := gate(io.Discard, zero, run("KernelAccessRead", 4096, 0), 10, 5, true); len(got) != 1 {
		t.Errorf("4096 B/op over a zero baseline: failures %q, want one", got)
	}
}
