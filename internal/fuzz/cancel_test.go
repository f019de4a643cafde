package fuzz

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRunCancellationAndResume is the interrupt-safety contract end to
// end: a campaign cancelled mid-round (what cmd/estfuzz's SIGINT handler
// produces) reports a clean context error, its corpus holds only complete
// lines — even after a torn tail is injected, AppendCorpus truncates it
// via obs.DropPartialTail before appending — and resuming from the last
// completed round yields exactly the findings of an uninterrupted run.
func TestRunCancellationAndResume(t *testing.T) {
	// Absurdly low ceilings so nearly every cell violates: the test needs
	// findings on both sides of the interruption point.
	cfg := Config{
		Rounds: 6, Seed: 1, Workers: 2,
		Ceilings: map[string]float64{"lazy": 0.001, "periodic(64)": 0.001, "stratified(96)": 0.001},
	}
	dir := t.TempDir()

	// Reference: the uninterrupted campaign.
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullCorpus := filepath.Join(dir, "full.jsonl")
	if _, err := full.Run(context.Background(), 0, func(_ int, fs []Finding) {
		if _, err := AppendCorpus(fullCorpus, fs); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want, err := ReadCorpusFile(fullCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference campaign found nothing; the ceilings are not doing their job")
	}

	// Interrupted campaign: cancel after round 2 completes, so round 3 is
	// the round cut mid-flight.
	const stopAfter = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intCorpus := filepath.Join(dir, "interrupted.jsonl")
	next := 0
	_, runErr := intr.Run(ctx, 0, func(round int, fs []Finding) {
		if _, err := AppendCorpus(intCorpus, fs); err != nil {
			t.Fatal(err)
		}
		next = round + 1
		if round == stopAfter {
			cancel()
		}
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", runErr)
	}
	if next != stopAfter+1 {
		t.Fatalf("last completed round is %d, want %d", next-1, stopAfter)
	}

	// A kill can also tear the corpus mid-write: simulate the torn tail.
	f, err := os.OpenFile(intCorpus, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"spec":"gen:forkjoin(tas`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume from the last completed round; the first append truncates the
	// torn line before writing.
	res, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Run(context.Background(), next, func(_ int, fs []Finding) {
		if _, err := AppendCorpus(intCorpus, fs); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(intCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatal("resumed corpus does not end in a newline")
	}
	if strings.Contains(string(raw), "forkjoin(tas\n") {
		t.Fatal("torn line survived the resume")
	}
	got, err := ReadCorpusFile(intCorpus)
	if err != nil {
		t.Fatalf("resumed corpus does not load cleanly: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interrupted+resumed campaign diverges from the uninterrupted one:\ngot  %d findings\nwant %d findings", len(got), len(want))
	}
}
