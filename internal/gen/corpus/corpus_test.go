package corpus

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"reflect"
	"strconv"
	"testing"

	"taskpoint/internal/sweep"
)

// smallSpec is a corpus small enough for unit tests: 6 scenarios covering
// 6 families at reduced task counts.
func smallSpec() Spec {
	return Spec{Scenarios: 6, MinTasks: 96, MaxTasks: 160, Threads: 2,
		Policies: []string{"lazy", "stratified(96)"}}
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec(10).Validate(); err != nil {
		t.Errorf("default spec invalid: %v", err)
	}
	bad := []Spec{
		{Scenarios: 0},
		{Scenarios: 5, Families: []string{"nope"}},
		{Scenarios: 5, MinTasks: 4, MaxTasks: 2},
		{Scenarios: 5, Policies: []string{"bogus(1)"}},
		{Scenarios: 5, Arch: "quantum"},
		{Scenarios: 5, Threads: -2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
}

// TestDrawDeterministicPrefix: the draw is deterministic per seed, unique
// per scenario, and a smaller corpus is a prefix of a larger one at the
// same seed — the property that keeps fixed-seed gate corpora stable.
func TestDrawDeterministicPrefix(t *testing.T) {
	small, err := DefaultSpec(10).Draw()
	if err != nil {
		t.Fatal(err)
	}
	large, err := DefaultSpec(50).Draw()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, sc := range large {
		if seen[sc.Spec()] {
			t.Fatalf("duplicate scenario %q", sc.Spec())
		}
		seen[sc.Spec()] = true
		if i < len(small) && small[i].Spec() != sc.Spec() {
			t.Fatalf("scenario %d differs between corpus sizes: %q vs %q", i, small[i].Spec(), sc.Spec())
		}
	}
	again, err := DefaultSpec(10).Draw()
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		if small[i].Spec() != again[i].Spec() {
			t.Fatalf("draw not deterministic at %d", i)
		}
	}
	// Every family of the pool appears in a 10-scenario corpus.
	fams := map[string]bool{}
	for _, sc := range small {
		fams[sc.Family.Name] = true
	}
	if len(fams) != 7 {
		t.Errorf("10-scenario corpus covers %d families, want all 7", len(fams))
	}
}

// run executes a corpus as the sweep it expands into, streaming records to
// out (nil discards) and skipping cells already in completed.
func run(t *testing.T, s Spec, workers int, out io.Writer, completed map[string]sweep.Record) []sweep.Record {
	t.Helper()
	sw, err := s.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sweep.New(sw, workers)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := eng.Run(out, completed)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// normalizeWall clears host wall-clock dependent fields, the only
// non-deterministic part of a record.
func normalizeWall(recs []sweep.Record) []sweep.Record {
	out := make([]sweep.Record, len(recs))
	for i, r := range recs {
		r.SampledWallMS, r.DetailedWallMS, r.SpeedupWall = 0, 0, 0
		out[i] = r
	}
	return out
}

// TestRunParallelDeterminism: the same corpus seed must yield identical
// simulated records (modulo wall clocks) regardless of worker count —
// run under -race in CI, this also exercises the worker pool for data
// races.
func TestRunParallelDeterminism(t *testing.T) {
	one := run(t, smallSpec(), 1, nil, nil)
	four := run(t, smallSpec(), 4, nil, nil)
	a, b := normalizeWall(one), normalizeWall(four)
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("record %d differs between 1 and 4 workers:\n%+v\nvs\n%+v", i, a[i], b[i])
			}
		}
		t.Fatal("records differ between 1 and 4 workers")
	}
}

// TestJSONLRoundTripAndResume: records stream as JSONL that loads back
// bit-identically, and a resumed run returns the loaded records without
// re-simulating different values.
func TestJSONLRoundTripAndResume(t *testing.T) {
	var buf bytes.Buffer
	recs := run(t, smallSpec(), 2, &buf, nil)
	loaded, err := sweep.LoadCompleted(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(recs) {
		t.Fatalf("loaded %d records, wrote %d", len(loaded), len(recs))
	}
	for _, r := range recs {
		got, ok := loaded[r.Key]
		if !ok {
			t.Fatalf("record %q missing after round trip", r.Key)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("record %q changed in JSONL round trip:\n%+v\nvs\n%+v", r.Key, got, r)
		}
	}
	// Resume: every cell completed, so no new simulation runs and the
	// records come back as loaded.
	resumed := run(t, smallSpec(), 2, nil, loaded)
	if !reflect.DeepEqual(resumed, recs) {
		t.Fatal("resumed corpus differs from original records")
	}
}

// TestCSVExportRoundTrip: the CSV export carries one row per record with
// the numeric columns surviving to reasonable precision.
func TestCSVExportRoundTrip(t *testing.T) {
	recs := run(t, smallSpec(), 2, nil, nil)
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(recs)+1 {
		t.Fatalf("%d CSV rows for %d records", len(rows)-1, len(recs))
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for i, r := range recs {
		row := rows[i+1]
		if row[col["key"]] != r.Key {
			t.Fatalf("row %d key %q, want %q", i, row[col["key"]], r.Key)
		}
		for name, want := range map[string]float64{
			"err_pct":        r.ErrPct,
			"sampled_cycles": r.SampledCycles,
			"ci_lo":          r.CILo,
			"ci_hi":          r.CIHi,
		} {
			got, err := strconv.ParseFloat(row[col[name]], 64)
			if err != nil {
				t.Fatalf("row %d %s: %v", i, name, err)
			}
			if diff := math.Abs(got - want); diff > 1e-6*math.Max(1, math.Abs(want)) {
				t.Fatalf("row %d %s = %v, want %v", i, name, got, want)
			}
		}
		covered := row[col["ci_covered"]] == "true"
		if covered != r.CICovered {
			t.Fatalf("row %d ci_covered %v, want %v", i, covered, r.CICovered)
		}
	}
}

// TestCorpusAccuracyGate is the CI accuracy gate: a fixed-seed
// 10-scenario corpus whose per-policy mean error must stay under
// checked-in thresholds, and whose stratified confidence intervals must
// keep covering the detailed reference. A regression in the sampler, the
// stratified estimator or the generator moves these numbers.
func TestCorpusAccuracyGate(t *testing.T) {
	recs := run(t, DefaultSpec(10), 4, nil, nil)
	thresholds := map[string]float64{
		"lazy":            45,
		"periodic(64)":    45,
		"stratified(256)": 8,
	}
	sums := sweep.Summarize(recs)
	if len(sums) != len(thresholds) {
		t.Fatalf("%d policies in gate corpus, want %d", len(sums), len(thresholds))
	}
	for _, s := range sums {
		limit, ok := thresholds[s.Policy]
		if !ok {
			t.Errorf("unexpected policy %q in gate corpus", s.Policy)
			continue
		}
		if s.Cells != 10 {
			t.Errorf("%s ran %d scenarios, want 10", s.Policy, s.Cells)
		}
		if s.MeanErrPct > limit {
			t.Errorf("%s mean error %.2f%% exceeds gate threshold %.0f%%", s.Policy, s.MeanErrPct, limit)
		}
		if s.CICells > 0 && 10*s.CICovered < 9*s.CICells {
			t.Errorf("%s CI coverage %d/%d below 90%% gate", s.Policy, s.CICovered, s.CICells)
		}
	}
}
