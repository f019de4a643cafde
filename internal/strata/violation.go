package strata

// ViolationClass names one way a sampled run can break the accuracy
// contract the paper's speedup claim rests on. The estimator fuzzer
// (internal/fuzz) hunts for scenarios exhibiting these, minimizes them and
// commits them to the regression corpus; the classes are its failure
// signatures.
type ViolationClass string

const (
	// CoverageMiss: the run reported a confidence interval that does not
	// cover the detailed reference's total task cycles — the interval
	// promised 95% coverage and the truth fell outside it.
	CoverageMiss ViolationClass = "coverage-miss"
	// IntervalFloorMiss: the reported interval is narrower than the
	// configured relative-error floor. The estimator must never report a
	// half-width below MinRelErr of the estimate (mid-run measurement
	// bias does not shrink with samples), so this class flags a broken
	// estimator invariant rather than an unlucky draw.
	IntervalFloorMiss ViolationClass = "interval-floor-miss"
	// Bias: the sampled run's execution-time error against the detailed
	// reference exceeded the per-policy ceiling — a worst-case error
	// spike, whether or not an interval was reported.
	Bias ViolationClass = "bias"
)

// Check parameterises violation classification for one completed cell.
type Check struct {
	// DetailedTaskCycles is the detailed reference's total task cycles,
	// the quantity a reported Confidence claims to cover.
	DetailedTaskCycles float64
	// ErrPct is the sampled run's absolute execution-time error in
	// percent; ErrCeilingPct is the per-policy ceiling it must stay
	// under. A non-positive ceiling disables the Bias class.
	ErrPct        float64
	ErrCeilingPct float64
	// MinRelErr is the half-width floor the estimator was configured
	// with (Config.MinRelErr); zero disables the IntervalFloorMiss
	// class. Note the floor check uses the base floor only — the
	// directed-share widening (DirBiasRelErr) can only make intervals
	// wider, so an interval under the base floor is a violation under
	// any directed share.
	MinRelErr float64
}

// Classify reports every violation class the cell exhibits, in fixed
// order (coverage-miss, interval-floor-miss, bias) so signatures compare
// and log deterministically. c is the cell's reported confidence interval,
// nil for policies that report none (which can then only violate Bias).
func Classify(c *Confidence, chk Check) []ViolationClass {
	var out []ViolationClass
	if c != nil && !c.Covers(chk.DetailedTaskCycles) {
		out = append(out, CoverageMiss)
	}
	if c != nil && chk.MinRelErr > 0 && c.Estimate > 0 {
		// Allow for float rounding right at the floor.
		floor := chk.MinRelErr*c.Estimate - 1e-9*c.Estimate
		if c.Estimate-c.Lo < floor || c.Hi-c.Estimate < floor {
			out = append(out, IntervalFloorMiss)
		}
	}
	if chk.ErrCeilingPct > 0 && chk.ErrPct > chk.ErrCeilingPct {
		out = append(out, Bias)
	}
	return out
}
