// Package stats provides the descriptive statistics used throughout the
// TaskPoint evaluation: means, percentiles, box-plot summaries of per-task
// IPC variation (Figures 1 and 5 of the paper), and the execution-time
// error metric used in Figures 6-10.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped. Returns 0 if no positive values exist.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// percentileSorted computes the percentile of already-sorted data.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Box summarises a distribution the way the paper's box plots do: the solid
// box spans the first to third quartile and the whiskers extend from the 5th
// to the 95th percentile. Values beyond the whiskers are outliers.
type Box struct {
	Min, P5, Q1, Median, Q3, P95, Max float64
	N                                 int
}

// BoxOf computes the box-plot summary of xs.
func BoxOf(xs []float64) (Box, error) {
	if len(xs) == 0 {
		return Box{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Box{
		Min:    sorted[0],
		P5:     percentileSorted(sorted, 5),
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		P95:    percentileSorted(sorted, 95),
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}, nil
}

// WhiskerSpread returns the larger absolute deviation of the whiskers from
// zero, in the same unit as the data. For IPC-variation data normalised to
// per-type means and expressed in percent, a WhiskerSpread below 5 means the
// benchmark falls in the paper's "within ±5%" class.
func (b Box) WhiskerSpread() float64 {
	return math.Max(math.Abs(b.P5), math.Abs(b.P95))
}

// NormalizePct converts raw values to percent deviation from their mean:
// 100*(x/mean - 1). This is the per-task-type normalisation used in
// Figures 1 and 5. Returns ErrEmpty for empty input and an error if the
// mean is zero.
func NormalizePct(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	m := Mean(xs)
	if m == 0 {
		return nil, errors.New("stats: zero mean, cannot normalise")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 100 * (x/m - 1)
	}
	return out, nil
}

// AbsPctError returns |measured-reference|/reference in percent. It is the
// execution-time error metric of the evaluation. Returns +Inf if reference
// is zero and measured is not.
func AbsPctError(measured, reference float64) float64 {
	if reference == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(measured-reference) / math.Abs(reference) * 100
}
