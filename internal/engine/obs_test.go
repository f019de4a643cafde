package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"

	"taskpoint/internal/obs"
)

// TestBaselineCacheStats: the per-cache counters tell the campaign-cost
// story — one miss on first compute, hits on reuse, evictions on drop.
func TestBaselineCacheStats(t *testing.T) {
	cache := NewBaselineCache()
	e := New(WithWorkers(1), WithBaselineCache(cache))
	req := testRequest("swaptions", "lazy", 2)

	if _, err := e.Baseline(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Errorf("after first compute: %+v, want 1 miss, 0 hits", st)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}

	if _, err := e.Baseline(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("after reuse: %+v, want 1 miss, 1 hit", st)
	}

	cache.DropWorkload(req.Workload)
	st = cache.Stats()
	if st.Evictions != 1 {
		t.Errorf("after DropWorkload: %+v, want 1 eviction", st)
	}
	if st.Entries != 0 {
		t.Errorf("entries = %d after drop, want 0", st.Entries)
	}
}

// TestRunEmitsFlightRecorderEvents: a traced cell leaves the structured
// span tree the flight recorder promises — a cell span nesting baseline
// and sampled phase spans, plus a cache outcome event — all as whole JSON
// lines with matched begin/end pairs.
func TestRunEmitsFlightRecorderEvents(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	e := New(WithWorkers(1), WithRecorder(rec), WithBaselineCache(NewBaselineCache()))

	if _, err := e.Run(context.Background(), testRequest("cholesky", "lazy", 2)); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	begins := map[string]float64{} // span name → id
	parents := map[string]float64{}
	var endIDs []float64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m struct {
			Kind   string  `json:"kind"`
			Name   string  `json:"name"`
			Span   float64 `json:"span"`
			Parent float64 `json:"parent"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("torn trace line %q: %v", sc.Text(), err)
		}
		kinds[m.Kind]++
		switch m.Kind {
		case "span.begin":
			begins[m.Name] = m.Span
			parents[m.Name] = m.Parent
		case "span.end":
			endIDs = append(endIDs, m.Span)
		}
	}
	for _, name := range []string{"cell", "baseline", "sampled"} {
		if _, ok := begins[name]; !ok {
			t.Errorf("no %s span in trace (begins: %v)", name, begins)
		}
	}
	if parents["baseline"] != begins["cell"] || parents["sampled"] != begins["cell"] {
		t.Errorf("baseline/sampled spans not parented under the cell span: begins %v parents %v", begins, parents)
	}
	if kinds["span.begin"] != kinds["span.end"] {
		t.Errorf("unbalanced spans: %d begins vs %d ends", kinds["span.begin"], kinds["span.end"])
	}
	ended := map[float64]bool{}
	for _, id := range endIDs {
		ended[id] = true
	}
	for name, id := range begins {
		if !ended[id] {
			t.Errorf("span %s (id %v) never ended", name, id)
		}
	}
	if kinds["cache.miss"] == 0 {
		t.Errorf("fresh cache produced no cache.miss event (kinds: %v)", kinds)
	}
}

// TestCellBodyRunsUnderPprofLabel: a cell's body, through Run and through
// RunAll, runs under the pprof label cell=<Request.Key()>, so a profile
// taken while it runs attributes its samples to that cell. The fault hook
// fires inside the body; it takes a goroutine profile there and fails
// the cell with errLabelled when the profile carries the cell's label,
// so no simulation runs.
func TestCellBodyRunsUnderPprofLabel(t *testing.T) {
	reqs := []Request{
		{Workload: "gen:forkjoin(tasks=16,mean=200)", Threads: 2, Scale: 1, Seed: 1},
		{Workload: "gen:forkjoin(tasks=16,mean=200)", Threads: 2, Scale: 1, Seed: 2, Policy: "periodic:50"},
		{Workload: "gen:pipeline(tasks=16,mean=200)", Threads: 4, Scale: 1, Seed: 3},
	}
	keys := map[string]bool{faultReq.Key(): true}
	for _, r := range reqs {
		keys[r.Key()] = true
	}
	errLabelled := errors.New("cell label present")
	eng := New(WithWorkers(2), WithCellFault(func(key string) error {
		if !keys[key] {
			return fmt.Errorf("hook saw key %q, not a Request.Key()", key)
		}
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			return err
		}
		want := fmt.Sprintf("%q:%q", "cell", key)
		if !strings.Contains(buf.String(), want) {
			return fmt.Errorf("goroutine profile lacks label %s", want)
		}
		return errLabelled
	}))

	if _, err := eng.Run(context.Background(), faultReq); !errors.Is(err, errLabelled) {
		t.Fatalf("Run: %v", err)
	}
	n := 0
	for _, err := range eng.RunAll(context.Background(), reqs) {
		if !errors.Is(err, errLabelled) {
			t.Fatalf("RunAll cell %d: %v", n, err)
		}
		n++
	}
	if n != len(reqs) {
		t.Fatalf("RunAll yielded %d cells, want %d", n, len(reqs))
	}
}
