package results

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"taskpoint/internal/sweep"
)

// Tests run at a tiny scale (instance floor of 64) so the full grid stays
// fast; determinism makes the assertions stable.

const testScale = 1.0 / 256

func TestProgramCaching(t *testing.T) {
	r := NewRunner(testScale, 1, 1)
	a, err := r.Program("cholesky")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Program("cholesky")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Program not cached (different pointers)")
	}
	if _, err := r.Program("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestDetailedCaching(t *testing.T) {
	r := NewRunner(testScale, 1, 1)
	a, err := r.Detailed("swaptions", HighPerf, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Detailed("swaptions", HighPerf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Detailed result not cached")
	}
	c, err := r.Detailed("swaptions", HighPerf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different thread counts shared one cache entry")
	}
}

func TestFigureGridAndAverages(t *testing.T) {
	r := NewRunner(testScale, 1, 2)
	recs, err := r.Figure(HighPerf, []int{2, 4}, "lazy", []string{"swaptions", "histogram"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("grid has %d records, want 4", len(recs))
	}
	sums := sweep.Summarize(recs)
	if len(sums) != 2 {
		t.Fatalf("summaries for %d thread counts, want 2", len(sums))
	}
	for _, s := range sums {
		if s.MaxErrPct < s.MeanErrPct {
			t.Errorf("max error %v below mean %v", s.MaxErrPct, s.MeanErrPct)
		}
	}
}

// TestFigureMatchesSweep: a figure's grid is a sweep. Runner.Figure over
// the runner's shared engine must yield the records a fresh sweep engine
// computes for the same spec, byte for byte once the host wall-clock
// fields are removed.
func TestFigureMatchesSweep(t *testing.T) {
	threads := []int{2, 4}
	names := []string{"swaptions", "histogram"}
	r := NewRunner(testScale, 1, 2)
	got, err := r.Figure(HighPerf, threads, "periodic(250)", names)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Scale:      testScale,
		Benchmarks: names,
		Archs:      []string{string(HighPerf)},
		Threads:    threads,
		Policies:   []string{"periodic(250)"},
		Seeds:      []uint64{1},
	}
	eng, err := sweep.New(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RunContext(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("figure has %d records, sweep %d", len(got), len(want))
	}
	for i := range got {
		g, w := deterministicJSON(t, got[i]), deterministicJSON(t, want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("record %d differs:\nfigure %s\nsweep  %s", i, g, w)
		}
	}
}

// deterministicJSON encodes a record without its host wall-clock fields
// (sampled_wall_ms, detailed_wall_ms and speedup_wall).
func deterministicJSON(t *testing.T, rec sweep.Record) []byte {
	t.Helper()
	rec.SampledWallMS, rec.DetailedWallMS, rec.SpeedupWall = 0, 0, 0
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAveragesFollowThreadColumns: records given at 64 and then 8 threads
// summarise in ascending thread order, so RenderSampled's average row sits
// under the columns of its own thread count.
func TestAveragesFollowThreadColumns(t *testing.T) {
	recs := []sweep.Record{
		{Bench: "a", Threads: 64, ErrPct: 10, SpeedupWall: 20},
		{Bench: "a", Threads: 8, ErrPct: 1, SpeedupWall: 2},
	}
	sums := sweep.Summarize(recs)
	if len(sums) != 2 || sums[0].Threads != 8 || sums[1].Threads != 64 {
		t.Fatalf("summaries by threads %+v, want 8 then 64", sums)
	}
	out := RenderSampled("t", recs)
	for _, want := range []string{
		"| Benchmark | err%@8T | spd@8T | err%@64T | spd@64T |",
		"| a | 1.0 | 2.0 | 10.0 | 20.0 |",
		"| **average** | 1.0 | 2.0 | 10.0 | 20.0 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table lacks %q:\n%s", want, out)
		}
	}
}

func TestVariationRows(t *testing.T) {
	r := NewRunner(testScale, 1, 2)
	rows, err := r.Variation(HighPerf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("variation rows = %d, want 19", len(rows))
	}
	for _, row := range rows {
		b := row.Box
		if !(b.P5 <= b.Median && b.Median <= b.P95) {
			t.Errorf("%s: box disordered %+v", row.Bench, b)
		}
		if row.Within5 != (b.WhiskerSpread() <= 5) {
			t.Errorf("%s: Within5 inconsistent with whiskers", row.Bench)
		}
	}
}

func TestClassificationAgreement(t *testing.T) {
	a := []VariationRow{{Bench: "x", Within5: true}, {Bench: "y", Within5: false}}
	b := []VariationRow{{Bench: "x", Within5: true}, {Bench: "y", Within5: true}, {Bench: "z", Within5: true}}
	agree, total := ClassificationAgreement(a, b)
	if agree != 1 || total != 2 {
		t.Errorf("agreement = %d/%d, want 1/2", agree, total)
	}
}

func TestSweepShapes(t *testing.T) {
	r := NewRunner(testScale, 1, 2)
	pts, err := r.SweepH([]int{1, 4}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Value != 1 || pts[1].Value != 4 {
		t.Errorf("sweep points wrong: %+v", pts)
	}
	for _, p := range pts {
		if p.AvgErrPct < 0 || p.AvgSpeedup <= 0 {
			t.Errorf("bad sweep point %+v", p)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 runs 64-thread baselines")
	}
	r := NewRunner(testScale, 1, 2)
	rows, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("Table I rows = %d, want 19", len(rows))
	}
	for _, row := range rows {
		if row.Instances <= 0 || row.Types <= 0 || row.Instructions <= 0 {
			t.Errorf("row %s incomplete: %+v", row.Bench, row)
		}
	}
}

func TestRenderers(t *testing.T) {
	vr := []VariationRow{{Bench: "cholesky", Within5: true}}
	if s := RenderVariation("Fig X", vr); !strings.Contains(s, "cholesky") || !strings.Contains(s, "Fig X") {
		t.Error("variation render missing content")
	}
	sr := []sweep.Record{{Bench: "dedup", Threads: 8, ErrPct: 3.25, SpeedupWall: 12}}
	out := RenderSampled("Fig Y", sr)
	if !strings.Contains(out, "dedup") || !strings.Contains(out, "3.2") || !strings.Contains(out, "average") {
		t.Errorf("sampled render missing content:\n%s", out)
	}
	sw := []SweepPoint{{Value: 4, AvgErrPct: 1.5, AvgSpeedup: 20}}
	if s := RenderSweep("Fig Z", "H", sw); !strings.Contains(s, "| 4 |") {
		t.Error("sweep render missing row")
	}
	t1 := []Table1Row{{Bench: "knn", Types: 2, Instances: 100, Instructions: 5e6}}
	if s := RenderTable1(t1, 0.125); !strings.Contains(s, "knn") {
		t.Error("table1 render missing row")
	}
	if s := RenderSummary(sr); !strings.Contains(s, "Paper") {
		t.Error("summary render missing paper reference")
	}
}
