package results

import (
	"strings"
	"testing"

	"taskpoint/internal/core"
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

func TestSampledRowConsistency(t *testing.T) {
	r := NewRunner(testScale, 1, 2)
	row, err := r.Sampled("blackscholes", HighPerf, 4, core.DefaultParams(), core.Lazy{})
	if err != nil {
		t.Fatal(err)
	}
	if row.Bench != "blackscholes" || row.Threads != 4 || row.Arch != HighPerf {
		t.Errorf("row identity wrong: %+v", row)
	}
	if row.ErrPct < 0 {
		t.Errorf("negative error %v", row.ErrPct)
	}
	if row.DetailFraction <= 0 || row.DetailFraction > 1 {
		t.Errorf("detail fraction %v out of (0,1]", row.DetailFraction)
	}
	if row.SpeedupDetail < 1 {
		t.Errorf("detail speedup %v < 1", row.SpeedupDetail)
	}
	if row.SampledCycles <= 0 || row.DetailedCycles <= 0 {
		t.Error("cycles not recorded")
	}
}

func TestFigureGridAndAverages(t *testing.T) {
	r := NewRunner(testScale, 1, 2)
	rows, err := r.Figure(HighPerf, []int{2, 4}, core.DefaultParams(), core.Lazy{},
		[]string{"swaptions", "histogram"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("grid has %d rows, want 4", len(rows))
	}
	avgs := AverageByThreads(rows)
	if len(avgs) != 2 {
		t.Fatalf("averages for %d thread counts, want 2", len(avgs))
	}
	for _, a := range avgs {
		if a.MaxErrPct < a.MeanErrPct {
			t.Errorf("max error %v below mean %v", a.MaxErrPct, a.MeanErrPct)
		}
	}
}

// impostorLazy spells its name like the parseable lazy policy but
// behaves differently: it resamples on every fast-retired instance.
type impostorLazy struct{}

func (impostorLazy) Name() string                    { return "lazy" }
func (impostorLazy) ShouldResample(_, fast int) bool { return fast >= 1 }

// TestFigurePreservesNonRoundTrippablePolicies: a policy whose textual
// name does not reconstruct it (here: a custom type colliding with the
// "lazy" spelling) must run as the caller's value, not be silently
// replaced by the default build of its name.
func TestFigurePreservesNonRoundTrippablePolicies(t *testing.T) {
	r := NewRunner(testScale, 1, 2)
	rows, err := r.Figure(HighPerf, []int{2}, core.DefaultParams(), impostorLazy{}, []string{"blackscholes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	// The impostor resamples aggressively; the real lazy policy never
	// does. If Figure had substituted ParsePolicy("lazy")'s build, the
	// periodic-resample count would be zero.
	if rows[0].Sampler.ResamplesPeriodic == 0 {
		t.Error("custom policy was replaced by the default build of its name")
	}
	lazyRows, err := r.Figure(HighPerf, []int{2}, core.DefaultParams(), core.Lazy{}, []string{"blackscholes"})
	if err != nil {
		t.Fatal(err)
	}
	if lazyRows[0].Sampler.ResamplesPeriodic != 0 {
		t.Error("real lazy policy reported periodic resamples")
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
	sr := []SampledRow{{Bench: "dedup", Threads: 8, ErrPct: 3.25, SpeedupWall: 12}}
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
