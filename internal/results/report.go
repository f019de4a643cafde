package results

import (
	"fmt"
	"strings"

	"taskpoint/internal/sweep"
)

// Markdown renderers for the experiment outputs. They print the same rows
// and series the paper's tables and figures report.

// RenderVariation renders a Figure 1/5-style table of IPC-variation box
// statistics.
func RenderVariation(title string, rows []VariationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	b.WriteString("| Benchmark | P5 [%] | Q1 [%] | Median [%] | Q3 [%] | P95 [%] | within ±5% |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|:---:|\n")
	within := 0
	for _, row := range rows {
		mark := "no"
		if row.Within5 {
			mark = "yes"
			within++
		}
		fmt.Fprintf(&b, "| %s | %.1f | %.1f | %.1f | %.1f | %.1f | %s |\n",
			row.Bench, row.Box.P5, row.Box.Q1, row.Box.Median, row.Box.Q3, row.Box.P95, mark)
	}
	fmt.Fprintf(&b, "\n%d of %d benchmarks within ±5%% (paper: 15 of 19).\n", within, len(rows))
	return b.String()
}

// RenderSampled renders a Figure 7-10-style table: per-benchmark error and
// speedup columns per thread count, plus the per-thread-count averages.
// A figure has one architecture and one policy, so sweep.Summarize's
// groups are exactly its thread columns, in ascending thread order.
func RenderSampled(title string, recs []sweep.Record) string {
	sums := sweep.Summarize(recs)
	type cell struct{ err, speed float64 }
	byBench := map[string]map[int]cell{}
	var benchOrder []string
	for _, r := range recs {
		if _, ok := byBench[r.Bench]; !ok {
			byBench[r.Bench] = map[int]cell{}
			benchOrder = append(benchOrder, r.Bench)
		}
		byBench[r.Bench][r.Threads] = cell{err: r.ErrPct, speed: r.SpeedupWall}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	b.WriteString("| Benchmark |")
	for _, s := range sums {
		fmt.Fprintf(&b, " err%%@%dT | spd@%dT |", s.Threads, s.Threads)
	}
	b.WriteString("\n|---|")
	for range sums {
		b.WriteString("---:|---:|")
	}
	b.WriteString("\n")
	for _, bn := range benchOrder {
		fmt.Fprintf(&b, "| %s |", bn)
		for _, s := range sums {
			c := byBench[bn][s.Threads]
			fmt.Fprintf(&b, " %.1f | %.1f |", c.err, c.speed)
		}
		b.WriteString("\n")
	}
	b.WriteString("| **average** |")
	for _, s := range sums {
		fmt.Fprintf(&b, " %.1f | %.1f |", s.MeanErrPct, s.MeanSpeedupWall)
	}
	b.WriteString("\n")
	return b.String()
}

// RenderSweep renders a Figure 6-style series.
func RenderSweep(title, param string, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	fmt.Fprintf(&b, "| %s | avg error [%%] | avg speedup |\n|---:|---:|---:|\n", param)
	for _, p := range points {
		fmt.Fprintf(&b, "| %d | %.2f | %.1f |\n", p.Value, p.AvgErrPct, p.AvgSpeedup)
	}
	return b.String()
}

// RenderTable1 renders the Table I reproduction.
func RenderTable1(rows []Table1Row, scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Table I (scale %.3g)\n\n", scale)
	b.WriteString("| Benchmark | #Types | #Instances | Instr | sim 1T | sim 64T | Properties |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %.1fM | %v | %v | %s |\n",
			r.Bench, r.Types, r.Instances, float64(r.Instructions)/1e6,
			r.Wall1.Round(1e6), r.Wall64.Round(1e6), r.Properties)
	}
	return b.String()
}

// RenderSummary renders the headline comparison against the paper's
// abstract: 64-thread lazy sampling speedup and error.
func RenderSummary(lazy64 []sweep.Record) string {
	var b strings.Builder
	b.WriteString("### Headline (lazy sampling, high-performance architecture)\n\n")
	b.WriteString("| Threads | avg err [%] | max err [%] | avg wall speedup | geo detail speedup |\n")
	b.WriteString("|---:|---:|---:|---:|---:|\n")
	for _, s := range sweep.Summarize(lazy64) {
		fmt.Fprintf(&b, "| %d | %.1f | %.1f | %.1f | %.1f |\n",
			s.Threads, s.MeanErrPct, s.MaxErrPct, s.MeanSpeedupWall, s.GeoSpeedupDetail)
	}
	b.WriteString("\nPaper (64 threads): avg error 1.8%, max error 15.0%, speedup 19.1x.\n")
	return b.String()
}
