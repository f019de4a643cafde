package results

import (
	"fmt"
	"sync"
	"time"

	"taskpoint/internal/bench"
	"taskpoint/internal/core"
	"taskpoint/internal/engine"
	"taskpoint/internal/stats"
	"taskpoint/internal/trace"
)

// VariationRow is one box plot of Figure 1 or Figure 5: the distribution
// of per-instance IPC, normalised per task type to percent deviation from
// the type mean.
type VariationRow struct {
	Bench string
	Box   stats.Box
	// Within5 reports whether the whiskers (5th..95th percentile) stay
	// inside ±5%, the paper's regularity criterion.
	Within5 bool
}

// Variation runs the IPC-variation experiment on one architecture:
// Figure 1 uses Native (detailed simulation + system noise standing in for
// the real machine), Figure 5 uses HighPerf.
func (r *Runner) Variation(arch Arch, threads int) ([]VariationRow, error) {
	names := bench.Names()
	rows := make([]VariationRow, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			res, err := r.Detailed(name, arch, threads)
			if err != nil {
				errs[i] = err
				return
			}
			prog, err := r.Program(name)
			if err != nil {
				errs[i] = err
				return
			}
			// Normalise IPC per task type and pool the deviations.
			var pooled []float64
			for t := 0; t < prog.NumTypes(); t++ {
				ipcs := res.IPCOfType(trace.TypeID(t))
				if len(ipcs) < 2 {
					continue
				}
				norm, err := stats.NormalizePct(ipcs)
				if err != nil {
					continue
				}
				pooled = append(pooled, norm...)
			}
			box, err := stats.BoxOf(pooled)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", name, err)
				return
			}
			rows[i] = VariationRow{
				Bench:   name,
				Box:     box,
				Within5: box.WhiskerSpread() <= 5,
			}
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// ClassificationAgreement compares two variation experiments (native vs
// simulated) and counts benchmarks classified identically as within/beyond
// ±5% — the paper's §IV claim (18 of 19 agree).
func ClassificationAgreement(a, b []VariationRow) (agree int, total int) {
	byName := map[string]bool{}
	for _, row := range a {
		byName[row.Bench] = row.Within5
	}
	for _, row := range b {
		w, ok := byName[row.Bench]
		if !ok {
			continue
		}
		total++
		if w == row.Within5 {
			agree++
		}
	}
	return agree, total
}

// SweepPoint is one x-position of Figure 6: a parameter value with the
// error and speedup averaged over the sensitivity benchmarks and thread
// counts.
type SweepPoint struct {
	Value      int
	AvgErrPct  float64
	AvgSpeedup float64
}

// sweep evaluates the sensitivity benchmarks over the given thread counts
// for every (parameters, policy name) configuration produced by mkParams.
// The requests carry their full core.Params: Figure 6a's W=0 is a real
// warm-up size here, not a sweep.Spec's "default" marker.
func (r *Runner) sweep(values []int, threads []int, mkParams func(v int) (core.Params, string)) ([]SweepPoint, error) {
	names := bench.SensitivityNames()
	points := make([]SweepPoint, len(values))
	for vi, v := range values {
		params, policy := mkParams(v)
		var reqs []engine.Request
		for _, tc := range threads {
			for _, bn := range names {
				req := r.request(bn, HighPerf, tc)
				req.Params = params
				req.Policy = policy
				reqs = append(reqs, req)
			}
		}
		var errsAll, speedups []float64
		for rep, err := range r.eng.RunAll(r.context(), reqs) {
			if err != nil {
				return nil, err
			}
			errsAll = append(errsAll, rep.ErrPct)
			speedups = append(speedups, rep.SpeedupWall)
		}
		points[vi] = SweepPoint{
			Value:      v,
			AvgErrPct:  stats.Mean(errsAll),
			AvgSpeedup: stats.Mean(speedups),
		}
	}
	return points, nil
}

// SweepW reproduces Figure 6a: error and speedup for warm-up sizes W,
// with H=10 and P=infinity, averaged over 32- and 64-thread simulations of
// the sensitivity benchmarks.
func (r *Runner) SweepW(ws []int, threads []int) ([]SweepPoint, error) {
	return r.sweep(ws, threads, func(w int) (core.Params, string) {
		p := core.DefaultParams()
		p.W = w
		p.H = 10
		return p, "lazy"
	})
}

// SweepH reproduces Figure 6b: error and speedup for history sizes H, with
// W=2 and P=infinity.
func (r *Runner) SweepH(hs []int, threads []int) ([]SweepPoint, error) {
	return r.sweep(hs, threads, func(h int) (core.Params, string) {
		p := core.DefaultParams()
		p.W = 2
		p.H = h
		return p, "lazy"
	})
}

// SweepP reproduces Figure 6c: error and speedup for sampling periods P,
// with W=2 and H=4.
func (r *Runner) SweepP(ps []int, threads []int) ([]SweepPoint, error) {
	return r.sweep(ps, threads, func(p int) (core.Params, string) {
		par := core.DefaultParams()
		par.W = 2
		par.H = 4
		return par, fmt.Sprintf("periodic(%d)", p)
	})
}

// Table1Row is one row of Table I: the benchmark inventory with the
// measured wall time of full detailed simulation at 1 and 64 threads.
type Table1Row struct {
	Bench     string
	Types     int
	Instances int
	// Instructions is the total dynamic instruction count at the
	// runner's scale.
	Instructions int64
	// Wall1 and Wall64 are measured detailed-simulation times.
	Wall1, Wall64 time.Duration
	Properties    string
}

// Table1 reproduces Table I at the runner's scale.
func (r *Runner) Table1() ([]Table1Row, error) {
	specs := bench.Registry()
	rows := make([]Table1Row, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec *bench.Spec) {
			defer wg.Done()
			prog, err := r.Program(spec.Name)
			if err != nil {
				errs[i] = err
				return
			}
			d1, err := r.Detailed(spec.Name, HighPerf, 1)
			if err != nil {
				errs[i] = err
				return
			}
			d64, err := r.Detailed(spec.Name, HighPerf, 64)
			if err != nil {
				errs[i] = err
				return
			}
			rows[i] = Table1Row{
				Bench:        spec.Name,
				Types:        prog.NumTypes(),
				Instances:    prog.NumTasks(),
				Instructions: prog.TotalInstructions(),
				Wall1:        d1.Wall,
				Wall64:       d64.Wall,
				Properties:   spec.Properties,
			}
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
