package fuzz

import (
	"context"
	"testing"
)

// TestRoundCountsVacuousCells: round 1 at seed 1 draws a pipeline whose
// sampled runs simulate every instruction in detail under all three
// default policies, so the round counts three vacuous cells.
func TestRoundCountsVacuousCells(t *testing.T) {
	d, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := metricVacuous.Value()
	if _, err := d.Round(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := metricVacuous.Value() - before; got != 3 {
		t.Errorf("round 1 at seed 1 counted %d vacuous cells, want 3", got)
	}
}
