package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"taskpoint/internal/sweep"
)

// scale sets run length: at 1/32 of the Table I instance counts one dse
// campaign takes a few seconds on two cores, and the sampled runs are
// already a few times faster than the detailed ones.
const scale = 1.0 / 32

// dseSpec is the benchmark's design-space campaign: six Table I
// benchmarks of distinct classes plus an irregular and a heavy-tailed
// generated DAG, on both Table II architectures, at two thread counts,
// under three policies — 96 cells over 32 distinct detailed references.
func dseSpec(seed uint64) sweep.Spec {
	return sweep.Spec{
		Name:  "dse",
		Scale: scale,
		Benchmarks: []string{
			"cholesky", "3d-stencil", "knn", "dedup", "blackscholes", "kmeans",
			"gen:random(tasks=20000,types=6)",
			"gen:forkjoin(tasks=8000,size=heavytail,cv=0.8)",
		},
		Archs:    []string{"hp", "lp"},
		Threads:  []int{2, 8},
		Policies: []string{"lazy", "periodic(250)", "stratified(400)"},
		Seeds:    []uint64{seed},
	}
}

// dsePlusSpec is dse plus the policy stratified(200): over a store warmed
// by dse its 96 dse cells are report hits and its 32 new cells reuse the
// stored detailed references.
func dsePlusSpec(seed uint64) sweep.Spec {
	s := dseSpec(seed)
	s.Name = "dse+"
	s.Policies = append(s.Policies, "stratified(200)")
	return s
}

// rep is one timed campaign on one surface.
type rep struct {
	setup, wall, first time.Duration
	// recs and errs hold each cell's record or error, by cell key;
	// computed marks the cells simulated during this campaign (not
	// served from the store).
	recs     map[string]sweep.Record
	errs     map[string]string
	computed map[string]bool
	// counters are the layers' exported counters over the campaign.
	counters map[string]int64
	maxRSSKB int64
	// Client-side timings of a served campaign: the submit round trip and
	// the gaps between consecutive stream events, in ms.
	submit time.Duration
	gaps   []float64
}

// digest fingerprints a record without its host wall-clock fields, the
// only fields allowed to differ between runs and surfaces.
func digest(r sweep.Record) string {
	r.SampledWallMS, r.DetailedWallMS, r.SpeedupWall = 0, 0, 0
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("campbench: record not marshalable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker holds the expected digest of every cell and tallies the cells
// checked against it. The first record seen for a cell becomes its
// reference unless one was seeded.
type checker struct {
	ref               map[string]string
	attempted, failed int
}

func newChecker() *checker { return &checker{ref: map[string]string{}} }

// check counts every cell of cells as attempted and as failed when the
// campaign reported an error for it, has no record of it, or its record
// differs from the reference.
func (c *checker) check(cells []sweep.Cell, r rep) {
	for _, cell := range cells {
		k := cell.Key()
		c.attempted++
		rec, ok := r.recs[k]
		if msg, bad := r.errs[k]; bad || !ok {
			c.fail("cell %s: no record (%s)", k, msg)
			continue
		}
		d := digest(rec)
		want, seen := c.ref[k]
		switch {
		case !seen:
			c.ref[k] = d
		case want != d:
			c.fail("cell %s: record differs from the reference", k)
		}
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.failed <= 5 {
		logf("check failed: "+format, args...)
	}
}

// accuracy summarises a campaign's records: the geometric mean of the
// instruction-level speedup, the mean and max execution-time error, and
// over stratified cells the CI coverage and mean relative CI width.
type accuracy struct {
	geoSpeedup, errMean, errMax float64
	ciCoverage, ciWidth         float64
}

func accuracyOf(recs map[string]sweep.Record) accuracy {
	var a accuracy
	var logSum float64
	ci, covered := 0, 0
	for _, r := range recs {
		logSum += math.Log(r.SpeedupDetail)
		a.errMean += r.ErrPct
		a.errMax = math.Max(a.errMax, r.ErrPct)
		if r.CIStrata > 0 {
			ci++
			a.ciWidth += r.CIRelWidth
			if r.CICovered {
				covered++
			}
		}
	}
	if n := float64(len(recs)); n > 0 {
		a.geoSpeedup = math.Exp(logSum / n)
		a.errMean /= n
	}
	if ci > 0 {
		a.ciCoverage = float64(covered) / float64(ci)
		a.ciWidth /= float64(ci)
	}
	return a
}

// speedupWall is the paper's host speedup over the cells computed in the
// campaign: Σ detailed wall / Σ sampled wall.
func speedupWall(r rep) float64 {
	var det, samp float64
	for k := range r.computed {
		rec := r.recs[k]
		det += rec.DetailedWallMS
		samp += rec.SampledWallMS
	}
	if samp == 0 {
		return 0
	}
	return det / samp
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cellsOf expands a spec value into its cells.
func cellsOf(s sweep.Spec) []sweep.Cell { return s.Cells() }
