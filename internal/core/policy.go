package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"taskpoint/internal/sim"
)

// Policy decides when a simulation running in fast-forward mode is
// resampled (paper §III-C). The separation between the sampling mechanism
// (Sampler) and the policy allows integrating other policies with low
// implementation effort, as the paper emphasises.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// ShouldResample is consulted when a thread retires a task instance
	// in fast mode; fastOnThread is the number of instances that thread
	// has retired in fast mode since the last (re)sampling.
	ShouldResample(thread, fastOnThread int) bool
}

// BudgetedPolicy is an optional Policy extension the Sampler consults at
// every task start. It lets a policy direct detailed simulation toward
// specific task instances — per-stratum sample quotas, variance-driven
// budgets — instead of relying solely on the global sampling/fast phase
// machinery. A budgeted policy can thereby force detail where its budget
// demands it (a "directed sample") and suppress resampling elsewhere by
// returning false from ShouldResample.
type BudgetedPolicy interface {
	Policy
	// WantDetailed is consulted once per task start, before the phase
	// machinery decides. Returning true while the sampler is
	// fast-forwarding turns the instance into a directed sample: it is
	// simulated in detail and its IPC refreshes the type's histories
	// without a full resampling transition. During the sampling phase
	// the instance is simulated in detail regardless of the return
	// value.
	WantDetailed(si sim.StartInfo) bool
	// Observe is invoked once per task finish, for every instance in
	// either mode, so the policy can track stratum populations and
	// accumulate measurements. kind tells the policy how trustworthy
	// the measurement is and under which contention regime it was
	// taken (see SampleKind).
	Observe(fi sim.FinishInfo, kind SampleKind)
	// FastIPC returns the policy's own fast-forward IPC estimate for a
	// starting instance, if it has one. The sampler prefers it over its
	// bounded per-type histories: a stratum's cumulative mean over all
	// detailed samples is a lower-variance predictor than the paper's
	// H-deep window, and it reflects the stratifier's finer partition.
	FastIPC(si sim.StartInfo) (float64, bool)
}

// SampleKind classifies a finished instance for BudgetedPolicy.Observe.
type SampleKind uint8

const (
	// KindFast is a fast-forwarded instance: its duration derives from
	// a history IPC, not a measurement.
	KindFast SampleKind = iota
	// KindWarmup is a detailed instance measured with cold or stale
	// micro-architectural state (warm-up); its IPC is biased low and
	// must not enter estimators.
	KindWarmup
	// KindValid is a post-warm-up sampling-phase measurement: every
	// active thread was simulating in detail, so it saw the realistic
	// memory contention of the full-detail reference.
	KindValid
	// KindDirected is a budget-directed measurement taken during the
	// fast phase: co-running threads were fast-forwarding and generated
	// no memory traffic, so its duration is biased low by the missing
	// contention. Estimators should calibrate it against KindValid
	// samples of the same strata.
	KindDirected
)

// Periodic is the paper's periodic sampling policy: resample once any
// thread has executed P task instances in fast-forward mode.
type Periodic struct {
	// P is the sampling period.
	P int
}

// Name returns "periodic(P)".
func (p Periodic) Name() string { return fmt.Sprintf("periodic(%d)", p.P) }

// ShouldResample triggers when the thread's fast count reaches P.
func (p Periodic) ShouldResample(_, fastOnThread int) bool {
	return fastOnThread >= p.P
}

// Lazy is periodic sampling with an infinite period: the policy itself
// never triggers resampling; only unknown task types and parallelism
// changes do.
type Lazy struct{}

// Name returns "lazy".
func (Lazy) Name() string { return "lazy" }

// ShouldResample never triggers.
func (Lazy) ShouldResample(_, _ int) bool { return false }

// policyParsers holds the argument parsers of registered policy families,
// keyed by family name ("periodic", "stratified", ...).
var policyParsers = map[string]func(arg string) (Policy, error){
	"periodic": func(arg string) (Policy, error) {
		p, err := PositiveIntArg(arg, "periodic period")
		if err != nil {
			return nil, err
		}
		return Periodic{P: p}, nil
	},
}

// RegisterPolicyParser registers the argument parser of a policy family so
// ParsePolicy accepts "name(ARG)" and "name:ARG". Extension packages
// (internal/strata) register themselves in init; registering a duplicate
// name panics.
func RegisterPolicyParser(name string, parse func(arg string) (Policy, error)) {
	if name == "" || parse == nil {
		panic("core: RegisterPolicyParser with empty name or nil parser")
	}
	if _, dup := policyParsers[name]; dup || name == "lazy" {
		panic(fmt.Sprintf("core: policy %q registered twice", name))
	}
	policyParsers[name] = parse
}

// PositiveIntArg parses a policy argument as a strictly positive integer,
// rejecting malformed input (empty, non-numeric, zero, negative) with an
// error naming what the argument is — policies must never silently default
// a malformed argument.
func PositiveIntArg(arg, what string) (int, error) {
	trimmed := strings.TrimSpace(arg)
	if trimmed == "" {
		return 0, fmt.Errorf("core: missing %s", what)
	}
	v, err := strconv.Atoi(trimmed)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("core: invalid %s %q: want a positive integer", what, arg)
	}
	return v, nil
}

// ParsePolicy builds a Policy from its textual name, the inverse of
// Policy.Name. Accepted forms are "lazy", "NAME(ARG)" and the
// flag-friendly "NAME:ARG" for every registered policy family, e.g.
// "periodic(250)", "periodic:1000" or "stratified(400)". Declarative
// sweep specs and command-line flags use it to enumerate the policy
// dimension of a design space. Malformed arguments are an error, never a
// silent default.
func ParsePolicy(s string) (Policy, error) {
	name := strings.TrimSpace(s)
	if name == "lazy" {
		return Lazy{}, nil
	}
	base, arg, ok := splitPolicyArg(name)
	if ok {
		if parse, known := policyParsers[base]; known {
			return parse(arg)
		}
	}
	return nil, fmt.Errorf("core: unknown policy %q (want %s)", s, policyForms())
}

// splitPolicyArg splits "name(arg)" or "name:arg" into its family name and
// argument text.
func splitPolicyArg(s string) (base, arg string, ok bool) {
	if i := strings.IndexByte(s, '('); i > 0 && strings.HasSuffix(s, ")") {
		return s[:i], s[i+1 : len(s)-1], true
	}
	if i := strings.IndexByte(s, ':'); i > 0 {
		return s[:i], s[i+1:], true
	}
	return "", "", false
}

// policyForms lists the accepted policy spellings for error messages, in
// deterministic order.
func policyForms() string {
	names := make([]string, 0, len(policyParsers))
	for n := range policyParsers {
		names = append(names, n)
	}
	sort.Strings(names)
	forms := []string{`"lazy"`}
	for _, n := range names {
		forms = append(forms, fmt.Sprintf("%q or %q", n+"(N)", n+":N"))
	}
	return strings.Join(forms, ", ")
}
