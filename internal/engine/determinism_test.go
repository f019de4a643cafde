package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"taskpoint/internal/engine"
	"taskpoint/internal/sweep"
)

// determinismSpec is a small campaign whose policies share references, so
// cells of one reference compute, join or hit it depending on timing.
func determinismSpec() sweep.Spec {
	return sweep.Spec{
		Scale:      1.0 / 64,
		Benchmarks: []string{"cholesky", "vector-operation"},
		Archs:      []string{"hp"},
		Threads:    []int{4},
		Policies:   []string{"lazy", "periodic(150)", "stratified(100)"},
		Seeds:      []uint64{7},
	}
}

// records runs the spec's cells through RunAll and returns each cell's
// sweep.Record as JSON, with the host wall-clock fields zeroed, in the
// order RunAll yields them.
func records(t *testing.T, eng *engine.Engine, spec sweep.Spec) [][]byte {
	t.Helper()
	cells := spec.Cells()
	reqs := make([]engine.Request, len(cells))
	for i, c := range cells {
		reqs[i] = engine.Request{Workload: c.Bench, Arch: string(c.Arch), Threads: c.Threads,
			Scale: spec.Scale, Seed: c.Seed, Policy: c.Policy, Params: spec.Params()}
	}
	var out [][]byte
	i := 0
	for rep, err := range eng.RunAll(context.Background(), reqs) {
		if err != nil {
			t.Error(err)
			return nil
		}
		rec := sweep.RecordOf(cells[i], spec, rep)
		i++
		rec.SampledWallMS, rec.DetailedWallMS, rec.SpeedupWall = 0, 0, 0
		b, err := json.Marshal(rec)
		if err != nil {
			t.Error(err)
			return nil
		}
		out = append(out, b)
	}
	return out
}

// TestRunAllDeterministicOrder: RunAll must yield byte-identical records
// (host wall clocks aside) in identical request order at any worker
// count, and when campaigns run concurrently over one shared baseline
// cache — the invariant record streams and resume files build on. Run
// under -race in CI, this also exercises the worker pool and the
// single-flight memo for data races.
func TestRunAllDeterministicOrder(t *testing.T) {
	spec := determinismSpec()
	want := records(t, engine.New(engine.WithWorkers(1)), spec)
	if len(want) != len(spec.Cells()) {
		t.Fatalf("got %d records for %d cells", len(want), len(spec.Cells()))
	}
	for i, c := range spec.Cells() {
		var rec sweep.Record
		if err := json.Unmarshal(want[i], &rec); err != nil || rec.Key != c.Key() {
			t.Fatalf("record %d out of order: %s, want %s (%v)", i, rec.Key, c.Key(), err)
		}
	}
	compare := func(name string, got [][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d records, want %d", name, len(got), len(want))
			return
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: record %d differs from 1 worker:\n%s\nvs\n%s", name, i, got[i], want[i])
			}
		}
	}
	for _, workers := range []int{2, 8} {
		compare(fmt.Sprintf("%d workers", workers), records(t, engine.New(engine.WithWorkers(workers)), spec))
	}

	// Two campaigns at once over one cache: each reference is computed by
	// whichever cell gets there first and shared with the other campaign.
	shared := engine.NewBaselineCache()
	var wg sync.WaitGroup
	got := make([][][]byte, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = records(t, engine.New(engine.WithWorkers(2), engine.WithBaselineCache(shared)), spec)
		}()
	}
	wg.Wait()
	for i := range got {
		compare(fmt.Sprintf("concurrent campaign %d", i), got[i])
	}
	if st := shared.Stats(); st.Misses != int64(len(spec.Benchmarks)) {
		t.Errorf("concurrent campaigns computed %d references, want %d: %+v", st.Misses, len(spec.Benchmarks), st)
	}
}
