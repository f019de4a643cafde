package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

const kernelOut = `
goos: linux
BenchmarkKernelDetailedHP8 	       6	  93536693 ns/op	  10947575 instr/s	10682696 B/op	     277 allocs/op
BenchmarkKernelDetailedHP8 	       6	  91283054 ns/op	  11217854 instr/s	10682696 B/op	     279 allocs/op
BenchmarkKernelDetailedHP8 	       6	  97837947 ns/op	  10466287 instr/s	10682696 B/op	     275 allocs/op
BenchmarkKernelExec-8 	    2496	    213479 ns/op	       0 B/op	       0 allocs/op
PASS
`

// writeFile writes content to name in a fresh test directory and
// returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseTextAggregatesRuns(t *testing.T) {
	runs, err := loadRuns(writeFile(t, "head.txt", kernelOut))
	if err != nil {
		t.Fatal(err)
	}
	hp := runs["KernelDetailedHP8"]
	if hp == nil {
		t.Fatal("KernelDetailedHP8 not parsed")
	}
	if n := len(hp["ns/op"]); n != 3 {
		t.Fatalf("ns/op runs = %d, want 3", n)
	}
	if med, ok := hp.median("ns/op"); !ok || med != 93536693 {
		t.Fatalf("ns/op median = %v (%v), want 93536693", med, ok)
	}
	if med, _ := hp.median("allocs/op"); med != 277 {
		t.Fatalf("allocs/op median = %v, want 277", med)
	}
	// The -procs suffix is stripped.
	if runs["KernelExec"] == nil {
		t.Fatal("KernelExec (procs suffix) not parsed")
	}
}

func TestParseJSONBaselineShapes(t *testing.T) {
	report := `{"kernel":[{"name":"KernelDetailedHP8","metrics":{"allocs/op":277}}],
		"benchmarks":[{"name":"Fig9LazyHighPerf","metrics":{"err_pct":1.5}}]}`
	runs, err := loadRuns(writeFile(t, "report.json", report))
	if err != nil {
		t.Fatal(err)
	}
	if runs["KernelDetailedHP8"] == nil || runs["Fig9LazyHighPerf"] == nil {
		t.Fatal("bench-report sections not merged")
	}
	if _, err := loadRuns(writeFile(t, "empty.txt", "PASS\n")); err == nil {
		t.Error("an input without benchmark results was accepted")
	}
}

func TestMedianEven(t *testing.T) {
	m := metrics{"ns/op": {4, 1, 3, 2}}
	if med, _ := m.median("ns/op"); med != 2.5 {
		t.Fatalf("median = %v, want 2.5", med)
	}
}

// run is one gate input holding a single run of benchmark name.
func run(name string, ns, bop, allocs float64) map[string]metrics {
	return map[string]metrics{name: {"ns/op": {ns}, "allocs/op": {allocs}, "B/op": {bop}}}
}

// TestGateBytesPerOp pins the B/op gate: a rise within the 5% slack
// passes, a larger one fails even when allocs/op and ns/op are unchanged
// and only the memory gates run (the committed-baseline mode), and a
// zero-byte benchmark tolerates no more than the absolute slack.
func TestGateBytesPerOp(t *testing.T) {
	base := run("KernelDetailedHP8", 1000, 5888832, 263)
	cases := []struct {
		name string
		new  map[string]metrics
		fail bool
	}{
		{"unchanged", run("KernelDetailedHP8", 1000, 5888832, 263), false},
		{"within slack", run("KernelDetailedHP8", 1000, 5888832*1.04, 263), false},
		// Reintroducing the 4 MiB directory presize, allocations unchanged.
		{"presize back", run("KernelDetailedHP8", 1000, 5888832+4<<20, 263), true},
		{"allocs rise", run("KernelDetailedHP8", 1000, 5888832, 263*1.1), true},
	}
	for _, c := range cases {
		got := gate(io.Discard, base, c.new, true)
		if (len(got) > 0) != c.fail {
			t.Errorf("%s: failures %q, want failing=%v", c.name, got, c.fail)
		}
	}
	zero := run("KernelAccessRead", 1000, 0, 0)
	if got := gate(io.Discard, zero, run("KernelAccessRead", 1000, 48, 0), true); len(got) != 0 {
		t.Errorf("48 B/op over a zero baseline failed: %q", got)
	}
	if got := gate(io.Discard, zero, run("KernelAccessRead", 1000, 4096, 0), true); len(got) != 1 {
		t.Errorf("4096 B/op over a zero baseline: failures %q, want one", got)
	}
}

// TestGateTimeAndMissing pins the ns/op gate, which -allocs-only skips,
// and the failure of a baseline benchmark missing from the new run,
// which it does not.
func TestGateTimeAndMissing(t *testing.T) {
	base := run("KernelMixed", 1000, 64, 2)
	cases := []struct {
		name       string
		new        map[string]metrics
		allocsOnly bool
		fail       bool
	}{
		{"ns/op +9%", run("KernelMixed", 1090, 64, 2), false, false},
		{"ns/op +11%", run("KernelMixed", 1110, 64, 2), false, true},
		{"ns/op +11%, allocs only", run("KernelMixed", 1110, 64, 2), true, false},
		{"missing", run("KernelExec", 1000, 64, 2), false, true},
		{"missing, allocs only", run("KernelExec", 1000, 64, 2), true, true},
	}
	for _, c := range cases {
		got := gate(io.Discard, base, c.new, c.allocsOnly)
		if (len(got) > 0) != c.fail {
			t.Errorf("%s: failures %q, want failing=%v", c.name, got, c.fail)
		}
	}
}

// TestGateTextJSONParity: a go test -bench run gates identically as raw
// text and as the JSON that -in writes from it — same medians, same
// table, same verdicts.
func TestGateTextJSONParity(t *testing.T) {
	textRuns, err := loadRuns(writeFile(t, "base.txt", kernelOut))
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "base.json")
	if err := writeReport(jsonPath, Report{Benchmarks: ParseBenchOutput(kernelOut)}); err != nil {
		t.Fatal(err)
	}
	jsonRuns, err := loadRuns(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range textRuns {
		for unit := range m {
			tm, _ := m.median(unit)
			jm, ok := jsonRuns[name].median(unit)
			if !ok || tm != jm {
				t.Errorf("%s %s: text median %v, JSON median %v (%v)", name, unit, tm, jm, ok)
			}
		}
	}
	if got := gate(io.Discard, textRuns, jsonRuns, false); len(got) != 0 {
		t.Errorf("text against its own JSON failed: %q", got)
	}
	heads := []map[string]metrics{
		textRuns,
		run("KernelDetailedHP8", 93536693*1.2, 10682696, 277),     // ns/op +20%, KernelExec missing
		run("KernelExec", 213479, 0, 3),                           // allocs beyond slack, HP8 missing
		run("KernelDetailedHP8", 93536693, 10682696*1.1, 277*1.1), // B/op and allocs
	}
	for i, head := range heads {
		for _, allocsOnly := range []bool{false, true} {
			var textOut, jsonOut bytes.Buffer
			tf := gate(&textOut, textRuns, head, allocsOnly)
			jf := gate(&jsonOut, jsonRuns, head, allocsOnly)
			if !reflect.DeepEqual(tf, jf) || textOut.String() != jsonOut.String() {
				t.Errorf("head %d allocsOnly=%v: text gate %q\n%s\nJSON gate %q\n%s",
					i, allocsOnly, tf, textOut.String(), jf, jsonOut.String())
			}
			if i > 0 && len(tf) == 0 {
				t.Errorf("head %d allocsOnly=%v: regression passed the gate", i, allocsOnly)
			}
		}
	}
}

// TestGateKernelBaselineSelf: the committed kernel baseline passes the
// memory gate against itself, as CI's baseline step reads it.
func TestGateKernelBaselineSelf(t *testing.T) {
	runs, err := loadRuns(filepath.Join("..", "..", "bench", "KERNEL_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	if runs["KernelDetailedHP8"] == nil {
		t.Fatal("KernelDetailedHP8 missing from the committed baseline")
	}
	if got := gate(io.Discard, runs, runs, true); len(got) != 0 {
		t.Errorf("baseline against itself failed: %q", got)
	}
}
