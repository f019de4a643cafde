package fuzz

import (
	"context"
	"reflect"
	"testing"
)

// TestRoundWorkersIndependent: a round's policy cells run as one
// campaign over the worker pool, and the pool's size changes nothing the
// round reports. Ceilings low enough that every cell is a finding make
// every cell count, and minimization runs on each of them in policy order.
func TestRoundWorkersIndependent(t *testing.T) {
	run := func(workers int) []Finding {
		t.Helper()
		d, err := New(Config{
			Rounds: 3, Seed: 2, Workers: workers, Minimize: true,
			Policies: []string{"lazy", "periodic(64)", "stratified(96)"},
			Ceilings: map[string]float64{"lazy": 0.001, "periodic(64)": 0.001, "stratified(96)": 0.001},
		})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := d.Run(context.Background(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	one, four := run(1), run(4)
	if want := 3 * 3; len(one) != want {
		t.Fatalf("%d findings at 1 worker, want one per cell (%d)", len(one), want)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("findings differ between 1 and 4 workers:\n1: %+v\n4: %+v", one, four)
	}
}
