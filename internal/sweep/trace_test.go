package sweep

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskpoint/internal/obs"
)

// TestTraceSurvivesCancellation: a campaign with a flight recorder that is
// interrupted mid-run leaves a trace with no torn trailing line — every
// line is whole JSON, and DropPartialTail (what the next run's Open
// performs) finds nothing to repair. This is the -trace half of the
// resumable-JSONL contract the record stream already honours.
func TestTraceSurvivesCancellation(t *testing.T) {
	spec := Spec{
		Name:       "trace-cancel",
		Scale:      1.0 / 64,
		Benchmarks: []string{"cholesky", "vector-operation"},
		Archs:      []string{"hp"},
		Threads:    []int{2},
		Policies:   []string{"lazy", "periodic(150)"},
		Seeds:      []uint64{7},
	}
	eng, err := New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rec, err := obs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	eng.Recorder = rec

	ctx, cancel := context.WithCancel(context.Background())
	eng.OnRecord = func(done, total int, r Record) {
		cancel() // interrupt after the first completed cell
	}
	if _, err := eng.RunContext(ctx, nil, nil); err == nil {
		t.Fatal("cancelled campaign reported no error")
	}
	// The interrupted process never reaches rec.Close(); the file must
	// still consist only of whole lines because each event is one Write.

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("cancelled campaign emitted no trace events")
	}
	if data[len(data)-1] != '\n' {
		t.Fatalf("trace ends mid-line: %q", data[len(data)-20:])
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	for i, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Errorf("trace line %d is torn: %q", i, l)
		}
	}

	// DropPartialTail must be a no-op: nothing to repair.
	before := len(data)
	if err := obs.DropPartialTail(path); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != before {
		t.Errorf("DropPartialTail truncated a clean trace: %d -> %d bytes", before, len(after))
	}

	// A fresh recorder appends cleanly after the interruption.
	rec2, err := obs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec2.Emit("resumed")
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if !json.Valid([]byte(l)) {
			t.Errorf("line %d after resume is torn: %q", i, l)
		}
	}
}
