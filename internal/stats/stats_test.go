package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEq(got, 2, 1e-12) {
		t.Errorf("GeoMean([1,4]) = %v, want 2", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Errorf("GeoMean of non-positive values = %v, want 0", got)
	}
	// Non-positive values are skipped, not zeroing the result.
	if got := GeoMean([]float64{-1, 9}); !almostEq(got, 9, 1e-12) {
		t.Errorf("GeoMean([-1,9]) = %v, want 9", got)
	}
}

func TestVarianceAndStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Stddev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("Stddev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestBoxOf(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	b, err := BoxOf(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 0 || b.Max != 100 || b.N != 101 {
		t.Errorf("Min/Max/N = %v/%v/%v", b.Min, b.Max, b.N)
	}
	if !almostEq(b.Median, 50, 1e-9) || !almostEq(b.Q1, 25, 1e-9) ||
		!almostEq(b.Q3, 75, 1e-9) || !almostEq(b.P5, 5, 1e-9) || !almostEq(b.P95, 95, 1e-9) {
		t.Errorf("quartiles wrong: %+v", b)
	}
	if _, err := BoxOf(nil); err != ErrEmpty {
		t.Errorf("BoxOf(nil) error = %v, want ErrEmpty", err)
	}
}

func TestWhiskerSpread(t *testing.T) {
	b := Box{P5: -3, P95: 7}
	if got := b.WhiskerSpread(); got != 7 {
		t.Errorf("WhiskerSpread = %v, want 7", got)
	}
	b = Box{P5: -9, P95: 2}
	if got := b.WhiskerSpread(); got != 9 {
		t.Errorf("WhiskerSpread = %v, want 9", got)
	}
}

func TestNormalizePct(t *testing.T) {
	out, err := NormalizePct([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-50, 0, 50}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-9) {
			t.Errorf("NormalizePct[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if _, err := NormalizePct(nil); err != ErrEmpty {
		t.Errorf("NormalizePct(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := NormalizePct([]float64{-1, 1}); err == nil {
		t.Error("NormalizePct with zero mean should fail")
	}
}

func TestAbsPctError(t *testing.T) {
	if got := AbsPctError(102, 100); !almostEq(got, 2, 1e-12) {
		t.Errorf("AbsPctError = %v, want 2", got)
	}
	if got := AbsPctError(98, 100); !almostEq(got, 2, 1e-12) {
		t.Errorf("AbsPctError = %v, want 2", got)
	}
	if got := AbsPctError(0, 0); got != 0 {
		t.Errorf("AbsPctError(0,0) = %v, want 0", got)
	}
	if got := AbsPctError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("AbsPctError(1,0) = %v, want +Inf", got)
	}
}

// Property: NormalizePct output always has (approximately) zero mean.
func TestQuickNormalizeZeroMean(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1 // strictly positive
		}
		out, err := NormalizePct(xs)
		if err != nil {
			return false
		}
		return almostEq(Mean(out), 0, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: box statistics are ordered Min<=P5<=Q1<=Median<=Q3<=P95<=Max.
func TestQuickBoxOrdered(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		b, err := BoxOf(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.P5 && b.P5 <= b.Q1 && b.Q1 <= b.Median &&
			b.Median <= b.Q3 && b.Q3 <= b.P95 && b.P95 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
