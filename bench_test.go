// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its artefact at a reduced
// scale (CI-friendly) and reports the paper's metrics via b.ReportMetric:
// err_pct (execution-time error of sampled vs detailed simulation) and
// speedup_x (wall-clock speedup of sampling). The full-resolution artefacts
// are produced by cmd/experiments; see EXPERIMENTS.md.
package taskpoint_test

import (
	"testing"

	"taskpoint/internal/engine"
	"taskpoint/internal/results"
	"taskpoint/internal/stats"
	"taskpoint/internal/sweep"
)

// benchScale keeps every artefact benchmark tractable: instance counts are
// Table I / 32 (with a floor of 64), preserving the task-type structure.
const benchScale = 1.0 / 32

// benchBaselines shares generated programs and detailed reference
// simulations across every artefact benchmark (and across b.N
// iterations), so each expensive cycle-level baseline is simulated once
// per process instead of once per figure.
var benchBaselines = engine.NewBaselineCache()

// benchRunner builds a runner backed by the shared baseline cache.
func benchRunner() *results.Runner {
	return results.NewCachedRunner(benchScale, 42, 2, benchBaselines)
}

// figureMetrics folds a figure's records into the two headline metrics.
func figureMetrics(b *testing.B, recs []sweep.Record) {
	b.Helper()
	var errs, speedups []float64
	for _, r := range recs {
		errs = append(errs, r.ErrPct)
		speedups = append(speedups, r.SpeedupWall)
	}
	b.ReportMetric(stats.Mean(errs), "err_pct")
	b.ReportMetric(stats.Mean(speedups), "speedup_x")
}

// BenchmarkTable1Inventory regenerates Table I: the benchmark inventory
// with measured detailed-simulation times at 1 and 64 threads.
func BenchmarkTable1Inventory(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 19 {
			b.Fatalf("Table I has %d rows, want 19", len(rows))
		}
	}
}

// BenchmarkFig1NativeVariation regenerates Figure 1: per-type IPC variation
// under the native-machine noise model at 8 threads.
func BenchmarkFig1NativeVariation(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var within int
	for i := 0; i < b.N; i++ {
		rows, err := r.Variation(results.Native, 8)
		if err != nil {
			b.Fatal(err)
		}
		within = 0
		for _, row := range rows {
			if row.Within5 {
				within++
			}
		}
	}
	b.ReportMetric(float64(within), "within5_of_19")
}

// BenchmarkFig5SimulatedVariation regenerates Figure 5: per-type IPC
// variation in detailed simulation of the high-performance machine.
func BenchmarkFig5SimulatedVariation(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var within int
	for i := 0; i < b.N; i++ {
		rows, err := r.Variation(results.HighPerf, 8)
		if err != nil {
			b.Fatal(err)
		}
		within = 0
		for _, row := range rows {
			if row.Within5 {
				within++
			}
		}
	}
	b.ReportMetric(float64(within), "within5_of_19")
}

// BenchmarkFig6aWarmupSweep regenerates Figure 6a: error and speedup as the
// warm-up size W varies (H=10, lazy), on the sensitivity benchmarks.
func BenchmarkFig6aWarmupSweep(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var pts []results.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = r.SweepW([]int{0, 2, 6}, []int{16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].AvgErrPct, "err_pct_W0")
	b.ReportMetric(pts[1].AvgErrPct, "err_pct_W2")
}

// BenchmarkFig6bHistorySweep regenerates Figure 6b: error and speedup as
// the history size H varies (W=2, lazy).
func BenchmarkFig6bHistorySweep(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var pts []results.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = r.SweepH([]int{1, 4, 10}, []int{16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[1].AvgErrPct, "err_pct_H4")
	b.ReportMetric(pts[1].AvgSpeedup, "speedup_x_H4")
}

// BenchmarkFig6cPeriodSweep regenerates Figure 6c: error and speedup as the
// sampling period P varies (W=2, H=4, periodic).
func BenchmarkFig6cPeriodSweep(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var pts []results.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = r.SweepP([]int{10, 100, 1000}, []int{16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].AvgSpeedup, "speedup_x_P10")
	b.ReportMetric(pts[2].AvgSpeedup, "speedup_x_P1000")
}

// BenchmarkFig7PeriodicHighPerf regenerates Figure 7: periodic sampling
// (P=250) on the high-performance architecture.
func BenchmarkFig7PeriodicHighPerf(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var rows []sweep.Record
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Figure(results.HighPerf, []int{8}, "periodic(250)", nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	figureMetrics(b, rows)
}

// BenchmarkFig8PeriodicLowPower regenerates Figure 8: periodic sampling
// (P=250) on the low-power architecture.
func BenchmarkFig8PeriodicLowPower(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var rows []sweep.Record
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Figure(results.LowPower, []int{4}, "periodic(250)", nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	figureMetrics(b, rows)
}

// BenchmarkFig9LazyHighPerf regenerates Figure 9: lazy sampling on the
// high-performance architecture — the paper's headline configuration.
func BenchmarkFig9LazyHighPerf(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var rows []sweep.Record
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Figure(results.HighPerf, []int{8}, "lazy", nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	figureMetrics(b, rows)
}

// BenchmarkFig10LazyLowPower regenerates Figure 10: lazy sampling on the
// low-power architecture.
func BenchmarkFig10LazyLowPower(b *testing.B) {
	b.ReportAllocs()
	r := benchRunner()
	var rows []sweep.Record
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Figure(results.LowPower, []int{4}, "lazy", nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	figureMetrics(b, rows)
}

// BenchmarkDetailedSimThroughput measures raw detailed-mode simulation
// speed (instructions per second) — the denominator of every speedup.
func BenchmarkDetailedSimThroughput(b *testing.B) {
	b.ReportAllocs()
	var instr int64
	for i := 0; i < b.N; i++ {
		r := results.NewRunner(benchScale, uint64(i)+1, 1)
		res, err := r.Detailed("2d-convolution", results.HighPerf, 8)
		if err != nil {
			b.Fatal(err)
		}
		instr = res.TotalInstructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()*float64(b.N), "instr/s")
}
