package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"taskpoint/internal/arch"
	"taskpoint/internal/obs"
)

// testSpec is a tiny two-benchmark space that still spans every dimension.
func testSpec() Spec {
	return Spec{
		Name:       "test",
		Scale:      1.0 / 64,
		Benchmarks: []string{"cholesky", "vector-operation"},
		Archs:      []string{"hp", "low-power"},
		Threads:    []int{2, 4},
		Policies:   []string{"lazy", "periodic:200"},
		Seeds:      []uint64{7},
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"bad scale", func(s *Spec) { s.Scale = 0 }},
		{"no benchmarks", func(s *Spec) { s.Benchmarks = nil }},
		{"unknown benchmark", func(s *Spec) { s.Benchmarks = []string{"no-such-bench"} }},
		{"no archs", func(s *Spec) { s.Archs = nil }},
		{"unknown arch", func(s *Spec) { s.Archs = []string{"tpu"} }},
		{"no threads", func(s *Spec) { s.Threads = nil }},
		{"bad threads", func(s *Spec) { s.Threads = []int{0} }},
		{"no policies", func(s *Spec) { s.Policies = nil }},
		{"unknown policy", func(s *Spec) { s.Policies = []string{"eager"} }},
		{"bad history", func(s *Spec) { s.H = -1; s.W = 1 }},
	}
	for _, tc := range cases {
		s := testSpec()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestSpecCells(t *testing.T) {
	s := testSpec()
	cells := s.Cells()
	want := 2 * 2 * 2 * 2 // benchmarks × archs × threads × policies, one seed
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate cell key %q", c.Key())
		}
		seen[c.Key()] = true
	}
	// Short arch names canonicalise: "hp" must expand to the full name.
	if cells[0].Arch != arch.HighPerf {
		t.Errorf("arch not canonicalised: %v", cells[0].Arch)
	}
	// Policies canonicalise to Policy.Name form.
	if cells[0].Policy != "lazy" || cells[1].Policy != "periodic(200)" {
		t.Errorf("policies not canonicalised: %q, %q", cells[0].Policy, cells[1].Policy)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := testSpec()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells()) != len(s.Cells()) {
		t.Fatalf("round trip changed the design space: %d vs %d cells",
			len(back.Cells()), len(s.Cells()))
	}
}

func TestEngineRunStreamsAndResumes(t *testing.T) {
	spec := testSpec()
	// Shrink to keep the test fast: 1 bench × 2 arch × 1 thread × 2 policies.
	spec.Benchmarks = []string{"vector-operation"}
	spec.Threads = []int{2}

	eng, err := New(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	recs, err := eng.Run(&out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.DetailedCycles <= 0 || r.SampledCycles <= 0 {
			t.Errorf("cell %s: nonpositive cycles", r.Key)
		}
		if r.SpeedupDetail < 1 {
			t.Errorf("cell %s: detail speedup %v < 1", r.Key, r.SpeedupDetail)
		}
	}

	// Every streamed line is a valid record.
	completed, err := LoadCompleted(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 4 {
		t.Fatalf("loaded %d records, want 4", len(completed))
	}

	// Resuming against the full set runs nothing and streams nothing.
	var ran atomic.Int32
	eng2, err := New(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng2.OnRecord = func(_, _ int, _ Record) { ran.Add(1) }
	var out2 bytes.Buffer
	recs2, err := eng2.Run(&out2, completed)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Errorf("resume re-ran %d completed cells", ran.Load())
	}
	if out2.Len() != 0 {
		t.Errorf("resume streamed %d bytes for completed cells", out2.Len())
	}
	if len(recs2) != 4 {
		t.Fatalf("resume returned %d records, want 4", len(recs2))
	}

	// Partial resume: drop one record, exactly one cell runs again.
	for k := range completed {
		delete(completed, k)
		break
	}
	eng3, err := New(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	ran.Store(0)
	eng3.OnRecord = func(_, _ int, _ Record) { ran.Add(1) }
	recs3, err := eng3.Run(nil, completed)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Errorf("partial resume ran %d cells, want 1", ran.Load())
	}
	if len(recs3) != 4 {
		t.Fatalf("partial resume returned %d records, want 4", len(recs3))
	}
}

func TestLoadCompletedTruncatedTail(t *testing.T) {
	rec := Record{Key: "a|hp|2|lazy|7", Bench: "a"}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	// A campaign killed mid-write leaves a truncated final line; it must
	// be dropped, not fail the resume.
	input := string(line) + "\n" + string(line[:len(line)/2])
	got, err := LoadCompleted(strings.NewReader(input))
	if err != nil {
		t.Fatalf("truncated tail rejected: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}

	// A malformed line in the middle is corruption, not interruption.
	input = "{broken\n" + string(line) + "\n"
	if _, err := LoadCompleted(strings.NewReader(input)); err == nil {
		t.Error("mid-stream corruption not reported")
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Arch: "hp", Policy: "lazy", Threads: 2, Bench: "a", ErrPct: 1, SpeedupDetail: 4, DetailFraction: 0.25, SpeedupWall: 2},
		{Arch: "hp", Policy: "lazy", Threads: 2, Bench: "b", ErrPct: 3, SpeedupDetail: 16, DetailFraction: 0.05, SpeedupWall: 4},
		{Arch: "hp", Policy: "periodic(200)", Threads: 2, Bench: "a", ErrPct: 0.5, SpeedupDetail: 2, DetailFraction: 0.5, SpeedupWall: 1.5},
	}
	sums := Summarize(recs)
	if len(sums) != 2 {
		t.Fatalf("got %d groups, want 2", len(sums))
	}
	lazy := sums[0]
	if lazy.Policy != "lazy" || lazy.Cells != 2 {
		t.Fatalf("unexpected first group: %+v", lazy)
	}
	if lazy.MeanErrPct != 2 || lazy.MaxErrPct != 3 {
		t.Errorf("error aggregation wrong: mean %v max %v", lazy.MeanErrPct, lazy.MaxErrPct)
	}
	if math.Abs(lazy.GeoSpeedupDetail-8) > 1e-9 { // geomean(4, 16)
		t.Errorf("geomean wrong: %v", lazy.GeoSpeedupDetail)
	}
	table := RenderSummary("t", sums)
	if !strings.Contains(table, "lazy") || !strings.Contains(table, "periodic(200)") {
		t.Errorf("summary table missing groups:\n%s", table)
	}
}

// TestSummarizeCoverageAccounting: per-policy summaries of a generated
// corpus (one architecture, one thread count) fold CI cells and the worst
// case correctly, and the rendered table names the worst cell.
func TestSummarizeCoverageAccounting(t *testing.T) {
	recs := []Record{
		{Arch: "hp", Threads: 4, Policy: "lazy", Bench: "a", ErrPct: 2, SpeedupDetail: 4, DetailFraction: 0.2},
		{Arch: "hp", Threads: 4, Policy: "lazy", Bench: "b", ErrPct: 6, SpeedupDetail: 1, DetailFraction: 0.4},
		{Arch: "hp", Threads: 4, Policy: "stratified(96)", Bench: "a", ErrPct: 1, SpeedupDetail: 2, DetailFraction: 0.5,
			CIStrata: 3, CIRelWidth: 0.04, CICovered: true},
		{Arch: "hp", Threads: 4, Policy: "stratified(96)", Bench: "b", ErrPct: 3, SpeedupDetail: 2, DetailFraction: 0.5,
			CIStrata: 4, CIRelWidth: 0.08, CICovered: false},
	}
	sums := Summarize(recs)
	if len(sums) != 2 {
		t.Fatalf("%d summaries, want 2", len(sums))
	}
	lazy, strat := sums[0], sums[1]
	if lazy.Policy != "lazy" || strat.Policy != "stratified(96)" {
		t.Fatalf("summary order %q, %q", lazy.Policy, strat.Policy)
	}
	if lazy.MaxErrPct != 6 || lazy.MaxErrBench != "b" || lazy.MeanErrPct != 4 {
		t.Errorf("lazy summary %+v", lazy)
	}
	if lazy.CICells != 0 || lazy.CICovered != 0 {
		t.Errorf("lazy has CI cells: %+v", lazy)
	}
	if strat.CICells != 2 || strat.CICovered != 1 || strat.MaxErrBench != "b" {
		t.Errorf("stratified CI accounting %+v", strat)
	}
	if math.Abs(strat.MeanCIRelWidth-0.06) > 1e-12 {
		t.Errorf("mean CI width %v, want 0.06", strat.MeanCIRelWidth)
	}
	out := RenderSummary("t", sums)
	if !strings.Contains(out, "worst cell: lazy at 6.00% (b, hp, 4 threads)") {
		t.Errorf("rendered summary missing worst cell:\n%s", out)
	}
	// Exact cells name no worst bench, and then no worst line renders.
	exact := Summarize([]Record{{Arch: "hp", Threads: 4, Policy: "lazy", Bench: "a", SpeedupDetail: 1}})
	if exact[0].MaxErrBench != "" || strings.Contains(RenderSummary("t", exact), "worst cell") {
		t.Errorf("exact campaign reports a worst cell: %+v", exact[0])
	}
}

func TestWriteCSV(t *testing.T) {
	recs := []Record{{
		Key: "a|hp|2|lazy|7", Bench: "a", Arch: "hp", Threads: 2,
		Policy: "lazy", Seed: 7, Scale: 0.03125, W: 2, H: 4,
		ErrPct: 1.25, SpeedupDetail: 8,
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d csv lines, want header + 1 row", len(lines))
	}
	if got, want := len(strings.Split(lines[0], ",")), len(strings.Split(lines[1], ",")); got != want {
		t.Fatalf("header has %d columns, row has %d", got, want)
	}
	if !strings.HasPrefix(lines[1], "a|hp|2|lazy|7,a,hp,2,lazy,7,0.03125,2,4,1.25,") {
		t.Errorf("unexpected csv row: %s", lines[1])
	}
}

func TestResumeIgnoresStaleConfig(t *testing.T) {
	spec := testSpec()
	spec.Benchmarks = []string{"vector-operation"}
	spec.Archs = []string{"hp"}
	spec.Threads = []int{2}
	spec.Policies = []string{"lazy"}

	eng, err := New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := eng.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	completed := map[string]Record{recs[0].Key: recs[0]}
	if skip, total := eng.Resumable(completed); skip != 1 || total != 1 {
		t.Fatalf("matching config: skip=%d total=%d, want 1/1", skip, total)
	}

	// The same cell key recorded at a different scale must not satisfy
	// the cell: a changed campaign configuration re-runs the space.
	stale := recs[0]
	stale.Scale = stale.Scale / 2
	completed[stale.Key] = stale
	if skip, _ := eng.Resumable(completed); skip != 0 {
		t.Fatalf("stale scale still skipped %d cells", skip)
	}
	var ran atomic.Int32
	eng.OnRecord = func(_, _ int, _ Record) { ran.Add(1) }
	recs2, err := eng.Run(nil, completed)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Errorf("stale-config resume ran %d cells, want 1 (re-run)", ran.Load())
	}
	if recs2[0].Scale != spec.Scale {
		t.Errorf("re-run record kept stale scale %v", recs2[0].Scale)
	}
}

// TestSweepStratifiedCells runs a campaign whose policy dimension
// includes stratified sampling and checks the confidence columns land in
// the records and the summary.
func TestSweepStratifiedCells(t *testing.T) {
	spec := Spec{
		Name:       "strat",
		Scale:      1.0 / 64,
		Benchmarks: []string{"cholesky"},
		Archs:      []string{"hp"},
		Threads:    []int{4},
		Policies:   []string{"lazy", "stratified(120)"},
		Seeds:      []uint64{7},
	}
	eng, err := New(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	recs, err := eng.Run(&out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	var lazy, strat *Record
	for i := range recs {
		switch recs[i].Policy {
		case "lazy":
			lazy = &recs[i]
		case "stratified(120)":
			strat = &recs[i]
		}
	}
	if lazy == nil || strat == nil {
		t.Fatalf("policies missing from records: %+v", recs)
	}
	if strat.CIStrata == 0 || strat.CIHi <= strat.CILo || strat.EstTotalCycles <= 0 {
		t.Errorf("stratified record lacks CI fields: %+v", strat)
	}
	if strat.DetailedTaskCycles <= 0 {
		t.Errorf("stratified record lacks the detailed task-cycle reference: %+v", strat)
	}
	if lazy.CIStrata != 0 || lazy.EstTotalCycles != 0 {
		t.Errorf("lazy record unexpectedly carries CI fields: %+v", lazy)
	}
	sums := Summarize(recs)
	var found bool
	for _, s := range sums {
		if s.Policy == "stratified(120)" {
			found = true
			if s.CICells != 1 || s.MeanCIRelWidth <= 0 {
				t.Errorf("stratified summary lacks CI aggregates: %+v", s)
			}
		} else if s.CICells != 0 {
			t.Errorf("non-stratified summary carries CI aggregates: %+v", s)
		}
	}
	if !found {
		t.Error("no stratified summary group")
	}
	// The JSONL stream must resume stratified cells like any other.
	completed, err := LoadCompleted(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	skip, total := eng.Resumable(completed)
	if skip != total {
		t.Errorf("resume skips %d of %d cells", skip, total)
	}
}

// TestDropPartialTail: a file killed mid-write is truncated back to its
// last complete line, so appended records never glue onto a partial one.
func TestDropPartialTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	full := "{\"key\":\"a\"}\n{\"key\":\"b\"}\n"
	if err := os.WriteFile(path, []byte(full+"{\"key\":\"c"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := obs.DropPartialTail(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != full {
		t.Errorf("truncated file %q, want %q", got, full)
	}
	// Clean files and missing files are no-ops.
	if err := obs.DropPartialTail(path); err != nil {
		t.Fatal(err)
	}
	if got2, _ := os.ReadFile(path); string(got2) != full {
		t.Errorf("clean file changed: %q", got2)
	}
	if err := obs.DropPartialTail(filepath.Join(t.TempDir(), "missing.jsonl")); err != nil {
		t.Fatal(err)
	}
	// A single partial line truncates to empty.
	if err := os.WriteFile(path, []byte("{\"key"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := obs.DropPartialTail(path); err != nil {
		t.Fatal(err)
	}
	if got3, _ := os.ReadFile(path); len(got3) != 0 {
		t.Errorf("single partial line left %q", got3)
	}
}
