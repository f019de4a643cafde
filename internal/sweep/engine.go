package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"taskpoint/internal/core"
	"taskpoint/internal/engine"
	"taskpoint/internal/obs"
	"taskpoint/internal/stats"
)

// Record is one completed cell, as streamed to the JSONL output. It is the
// one flat form of a cell — sweeps, the campaign store and the paper's
// figures (internal/results) all read it: self-identifying (Key) and
// stable across interrupted campaigns.
type Record struct {
	// Key is Cell.Key() — the resume identity.
	Key     string `json:"key"`
	Bench   string `json:"bench"`
	Arch    string `json:"arch"`
	Threads int    `json:"threads"`
	Policy  string `json:"policy"`
	Seed    uint64 `json:"seed"`
	// Scale, W and H record the campaign configuration the cell ran
	// under; resume only skips a cell when they match the current spec,
	// so changing the scale or sampling parameters re-runs the space
	// instead of silently reusing stale results.
	Scale float64 `json:"scale"`
	W     int     `json:"w"`
	H     int     `json:"h"`
	// ErrPct is the absolute execution-time error against the detailed
	// reference, in percent — the paper's accuracy metric.
	ErrPct float64 `json:"err_pct"`
	// SpeedupWall is detailed wall time / sampled wall time.
	SpeedupWall float64 `json:"speedup_wall"`
	// SpeedupDetail is total instructions / detailed instructions — the
	// machine-independent speedup proxy.
	SpeedupDetail float64 `json:"speedup_detail"`
	// DetailFraction is the fraction of instructions simulated in detail.
	DetailFraction float64 `json:"detail_fraction"`
	// Simulated execution times of both runs, in cycles.
	SampledCycles  float64 `json:"sampled_cycles"`
	DetailedCycles float64 `json:"detailed_cycles"`
	// Host wall-clock times of both runs, in milliseconds.
	SampledWallMS  float64 `json:"sampled_wall_ms"`
	DetailedWallMS float64 `json:"detailed_wall_ms"`
	// Sampler is the sampling controller's internal statistics.
	Sampler core.Stats `json:"sampler"`
	// Confidence fields, filled for stratified cells only: the
	// estimated total task cycles with its 95% interval, the interval
	// width relative to the estimate, stratum/sample counts, the
	// detailed reference's true total, and whether the interval covers
	// it — the columns a budget-vs-error campaign sweeps.
	EstTotalCycles     float64 `json:"est_total_cycles,omitempty"`
	CILo               float64 `json:"ci_lo,omitempty"`
	CIHi               float64 `json:"ci_hi,omitempty"`
	CIRelWidth         float64 `json:"ci_rel_width,omitempty"`
	CIStrata           int     `json:"ci_strata,omitempty"`
	CISampled          int     `json:"ci_sampled,omitempty"`
	DetailedTaskCycles float64 `json:"detailed_task_cycles,omitempty"`
	CICovered          bool    `json:"ci_covered,omitempty"`
}

// RecordOf flattens a finished engine report into the durable Record form
// for a cell of the given spec — the JSONL row sweeps stream and the
// payload the campaign store persists under a cell's content address.
func RecordOf(cell Cell, spec Spec, rep engine.Report) Record {
	params := spec.Params()
	rec := Record{
		Key:            cell.Key(),
		Bench:          cell.Bench,
		Arch:           string(cell.Arch),
		Threads:        cell.Threads,
		Policy:         cell.Policy,
		Seed:           cell.Seed,
		Scale:          spec.Scale,
		W:              params.W,
		H:              params.H,
		ErrPct:         rep.ErrPct,
		SpeedupWall:    rep.SpeedupWall,
		SpeedupDetail:  rep.SpeedupDetail,
		DetailFraction: rep.DetailFraction,
		SampledCycles:  rep.Sampled.Cycles,
		DetailedCycles: rep.Detailed.Cycles,
		SampledWallMS:  float64(rep.SampledWall.Microseconds()) / 1e3,
		DetailedWallMS: float64(rep.DetailedWall.Microseconds()) / 1e3,
		Sampler:        rep.Sampler,
	}
	if c := rep.Confidence; c != nil {
		rec.EstTotalCycles = c.Estimate
		rec.CILo = c.Lo
		rec.CIHi = c.Hi
		rec.CIRelWidth = c.RelWidth()
		rec.CIStrata = c.Strata
		rec.CISampled = c.Sampled
		rec.DetailedTaskCycles = rep.DetailedTaskCycles
		rec.CICovered = c.Covers(rep.DetailedTaskCycles)
	}
	return rec
}

// Engine executes a sweep as a thin adapter over the unified experiment
// engine (internal/engine): cells become engine requests sharded across
// its worker pool, detailed baselines are cached by the engine's shared
// cache, and records stream back in deterministic cell order regardless
// of worker count.
type Engine struct {
	spec    Spec
	workers int

	// OnRecord, when set, observes every newly completed cell, in
	// deterministic cell order.
	OnRecord func(done, total int, rec Record)

	// Recorder, when set, is threaded into the experiment engine so the
	// flight recorder sees cell lifecycle, cache and sampler events. A nil
	// recorder is the free disabled path.
	Recorder *obs.Recorder
}

// New validates the spec and builds an engine with the given worker
// parallelism (minimum 1).
func New(spec Spec, workers int) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	return &Engine{spec: spec, workers: workers}, nil
}

// Spec returns the validated campaign specification.
func (e *Engine) Spec() Spec { return e.spec }

// Resumable returns how many cells of the spec are covered by completed
// records (same key and same campaign configuration) and the total cell
// count — what Run will skip and what it spans.
func (e *Engine) Resumable(completed map[string]Record) (skip, total int) {
	cells := e.spec.Cells()
	params := e.spec.Params()
	for _, c := range cells {
		if rec, ok := completed[c.Key()]; ok &&
			rec.Scale == e.spec.Scale && rec.W == params.W && rec.H == params.H {
			skip++
		}
	}
	return skip, len(cells)
}

// Run executes every cell of the spec not already present in completed
// (keyed by Cell.Key), streaming one JSON line per newly completed cell to
// out. It returns all records of the campaign — resumed and new — in
// deterministic cell order. Cells that fail do not abort the rest of the
// campaign; their errors are joined into the returned error.
func (e *Engine) Run(out io.Writer, completed map[string]Record) ([]Record, error) {
	return e.RunContext(context.Background(), out, completed)
}

// RunContext is Run with cooperative cancellation: cells are dispatched
// to the unified experiment engine, whose simulations stop promptly when
// ctx is cancelled; cells not completed by then fail with ctx's error.
// New records stream to out in deterministic cell order whatever the
// worker count, so two campaigns over the same spec produce identical
// streams (modulo the host wall-clock fields).
func (e *Engine) RunContext(ctx context.Context, out io.Writer, completed map[string]Record) ([]Record, error) {
	cells := e.spec.Cells()
	params := e.spec.Params()

	type outcome struct {
		rec Record
		err error
	}
	outcomes := make([]outcome, len(cells))
	pending := make([]int, 0, len(cells))
	reqs := make([]engine.Request, 0, len(cells))
	for i, c := range cells {
		// A completed record only stands in for the cell when it ran
		// under the same campaign configuration.
		if rec, ok := completed[c.Key()]; ok &&
			rec.Scale == e.spec.Scale && rec.W == params.W && rec.H == params.H {
			outcomes[i] = outcome{rec: rec}
			continue
		}
		pending = append(pending, i)
		reqs = append(reqs, c.Request(e.spec))
	}

	eng := engine.New(engine.WithWorkers(e.workers), engine.WithRecorder(e.Recorder))
	var enc *json.Encoder
	if out != nil {
		enc = json.NewEncoder(out)
	}
	k, done := 0, 0
	for rep, err := range eng.RunAll(ctx, reqs) {
		idx := pending[k]
		k++
		done++
		if err != nil {
			// The engine error already names the cell key; wrapping adds
			// only the layer.
			outcomes[idx] = outcome{err: fmt.Errorf("sweep: %w", err)}
			continue
		}
		rec := RecordOf(cells[idx], e.spec, rep)
		outcomes[idx] = outcome{rec: rec}
		if enc != nil {
			if werr := enc.Encode(rec); werr != nil {
				outcomes[idx] = outcome{err: fmt.Errorf("sweep: writing record %s: %w", rec.Key, werr)}
				continue
			}
		}
		if e.OnRecord != nil {
			e.OnRecord(len(cells)-len(pending)+done, len(cells), rec)
		}
	}

	recs := make([]Record, 0, len(cells))
	var errs []error
	for _, o := range outcomes {
		if o.err != nil {
			errs = append(errs, o.err)
			continue
		}
		recs = append(recs, o.rec)
	}
	return recs, errors.Join(errs...)
}

// LoadCompleted reads a JSONL stream written by Run and returns its
// records keyed by cell key — the resume set. A truncated final line
// (an interrupted campaign killed mid-write) is ignored; malformed lines
// elsewhere are an error. A resumable writer must truncate that partial
// line (obs.DropPartialTail) before appending, or the next record glues
// onto it and its cell never registers as completed.
func LoadCompleted(r io.Reader) (map[string]Record, error) {
	out := make(map[string]Record)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the trailing one.
			return nil, pendingErr
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			pendingErr = fmt.Errorf("sweep: line %d: %w", line, err)
			continue
		}
		if rec.Key == "" {
			pendingErr = fmt.Errorf("sweep: line %d: record without key", line)
			continue
		}
		out[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Summary aggregates one (architecture, policy, thread count) group of a
// campaign — the granularity at which Figures 7-10 report averages. Over a
// generated corpus (one architecture, one thread count) it is the
// per-policy accuracy headline: where the policy's error and CI coverage
// break.
type Summary struct {
	Arch    string `json:"arch"`
	Policy  string `json:"policy"`
	Threads int    `json:"threads"`
	// Cells is the number of records in the group
	// (benchmarks × seeds).
	Cells int `json:"cells"`
	// MeanErrPct and MaxErrPct summarise execution-time error;
	// MaxErrBench names the benchmark behind MaxErrPct (empty when every
	// cell is exact).
	MeanErrPct  float64 `json:"mean_err_pct"`
	MaxErrPct   float64 `json:"max_err_pct"`
	MaxErrBench string  `json:"max_err_bench,omitempty"`
	// MeanSpeedupWall averages wall-clock speedup; GeoSpeedupDetail is
	// the geometric mean of the instruction-level speedup.
	MeanSpeedupWall  float64 `json:"mean_speedup_wall"`
	GeoSpeedupDetail float64 `json:"geo_speedup_detail"`
	// MeanDetailFrac averages the fraction of instructions simulated in
	// detail.
	MeanDetailFrac float64 `json:"mean_detail_frac"`
	// CICells counts records carrying a confidence interval (stratified
	// cells); MeanCIRelWidth and CICovered summarise them. Zero/empty
	// for non-stratified groups.
	CICells        int     `json:"ci_cells,omitempty"`
	MeanCIRelWidth float64 `json:"mean_ci_rel_width,omitempty"`
	CICovered      int     `json:"ci_covered,omitempty"`
}

// Summarize folds records into per-(arch, policy, threads) summaries,
// sorted by architecture, then policy, then thread count.
func Summarize(recs []Record) []Summary {
	type key struct {
		arch, policy string
		threads      int
	}
	groups := make(map[key][]Record)
	for _, r := range recs {
		k := key{r.Arch, r.Policy, r.Threads}
		groups[k] = append(groups[k], r)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].arch != keys[j].arch {
			return keys[i].arch < keys[j].arch
		}
		if keys[i].policy != keys[j].policy {
			return keys[i].policy < keys[j].policy
		}
		return keys[i].threads < keys[j].threads
	})
	out := make([]Summary, 0, len(keys))
	for _, k := range keys {
		group := groups[k]
		var errsPct, wall, det, frac, ciw []float64
		ciCovered := 0
		var maxErr float64
		var maxBench string
		for _, r := range group {
			errsPct = append(errsPct, r.ErrPct)
			if r.ErrPct > maxErr {
				maxErr, maxBench = r.ErrPct, r.Bench
			}
			wall = append(wall, r.SpeedupWall)
			det = append(det, r.SpeedupDetail)
			frac = append(frac, r.DetailFraction)
			if r.CIStrata > 0 {
				ciw = append(ciw, r.CIRelWidth)
				if r.CICovered {
					ciCovered++
				}
			}
		}
		out = append(out, Summary{
			Arch:             k.arch,
			Policy:           k.policy,
			Threads:          k.threads,
			Cells:            len(group),
			MeanErrPct:       stats.Mean(errsPct),
			MaxErrPct:        maxErr,
			MaxErrBench:      maxBench,
			MeanSpeedupWall:  stats.Mean(wall),
			GeoSpeedupDetail: stats.GeoMean(det),
			MeanDetailFrac:   stats.Mean(frac),
			CICells:          len(ciw),
			MeanCIRelWidth:   stats.Mean(ciw),
			CICovered:        ciCovered,
		})
	}
	return out
}

// RenderSummary renders summaries as the aligned text table the sweep
// command prints, mirroring the per-thread-count averages of Figures 7-10.
// Stratified groups additionally report the mean relative CI width and how
// many of their intervals covered the detailed reference. A closing line
// names the worst cell of the campaign.
func RenderSummary(title string, sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s %-15s %8s %6s %10s %10s %9s %9s %9s %8s\n",
		"architecture", "policy", "threads", "cells", "mean-err%", "max-err%", "x-detail", "%detail", "ci-width%", "covered")
	for _, s := range sums {
		ciWidth, covered := "-", "-"
		if s.CICells > 0 {
			ciWidth = fmt.Sprintf("%.2f", 100*s.MeanCIRelWidth)
			covered = fmt.Sprintf("%d/%d", s.CICovered, s.CICells)
		}
		fmt.Fprintf(&b, "%-18s %-15s %8d %6d %10.2f %10.2f %9.1f %9.1f %9s %8s\n",
			s.Arch, s.Policy, s.Threads, s.Cells,
			s.MeanErrPct, s.MaxErrPct, s.GeoSpeedupDetail, 100*s.MeanDetailFrac,
			ciWidth, covered)
	}
	var worst *Summary
	for i := range sums {
		if s := &sums[i]; s.MaxErrBench != "" && (worst == nil || s.MaxErrPct > worst.MaxErrPct) {
			worst = s
		}
	}
	if worst != nil {
		fmt.Fprintf(&b, "worst cell: %s at %.2f%% (%s, %s, %d threads)\n",
			worst.Policy, worst.MaxErrPct, worst.MaxErrBench, worst.Arch, worst.Threads)
	}
	return b.String()
}
