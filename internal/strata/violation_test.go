package strata

import (
	"reflect"
	"testing"
)

func TestClassify(t *testing.T) {
	// A well-behaved interval around an estimate of 1000 with a 2% floor.
	good := &Confidence{Estimate: 1000, Lo: 950, Hi: 1050}
	tight := &Confidence{Estimate: 1000, Lo: 995, Hi: 1050} // lower half-width 0.5%
	tests := []struct {
		name string
		c    *Confidence
		chk  Check
		want []ViolationClass
	}{
		{"clean cell", good,
			Check{DetailedTaskCycles: 1000, ErrPct: 1, ErrCeilingPct: 30, MinRelErr: 0.02},
			nil},
		{"coverage miss above", good,
			Check{DetailedTaskCycles: 1051, ErrPct: 1, ErrCeilingPct: 30, MinRelErr: 0.02},
			[]ViolationClass{CoverageMiss}},
		{"coverage miss below", good,
			Check{DetailedTaskCycles: 949, ErrPct: 1, ErrCeilingPct: 30, MinRelErr: 0.02},
			[]ViolationClass{CoverageMiss}},
		{"endpoints cover", good,
			Check{DetailedTaskCycles: 950, ErrPct: 1, ErrCeilingPct: 30, MinRelErr: 0.02},
			nil},
		{"floor miss on one side", tight,
			Check{DetailedTaskCycles: 1000, ErrPct: 1, ErrCeilingPct: 30, MinRelErr: 0.02},
			[]ViolationClass{IntervalFloorMiss}},
		{"exactly at floor is legal", &Confidence{Estimate: 1000, Lo: 980, Hi: 1020},
			Check{DetailedTaskCycles: 1000, MinRelErr: 0.02},
			nil},
		{"floor check disabled", tight,
			Check{DetailedTaskCycles: 1000, ErrPct: 1, ErrCeilingPct: 30},
			nil},
		{"bias over ceiling", good,
			Check{DetailedTaskCycles: 1000, ErrPct: 31, ErrCeilingPct: 30, MinRelErr: 0.02},
			[]ViolationClass{Bias}},
		{"bias check disabled", good,
			Check{DetailedTaskCycles: 1000, ErrPct: 99},
			nil},
		{"no interval, only bias applies", nil,
			Check{DetailedTaskCycles: 1000, ErrPct: 61, ErrCeilingPct: 60, MinRelErr: 0.02},
			[]ViolationClass{Bias}},
		{"all three in fixed order", &Confidence{Estimate: 1000, Lo: 999, Hi: 1001},
			Check{DetailedTaskCycles: 2000, ErrPct: 50, ErrCeilingPct: 30, MinRelErr: 0.02},
			[]ViolationClass{CoverageMiss, IntervalFloorMiss, Bias}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Classify(tt.c, tt.chk)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Classify = %v, want %v", got, tt.want)
			}
		})
	}
}
