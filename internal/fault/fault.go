// Package fault is the deterministic, seeded fault-injection layer of
// the campaign service stack. It wraps the seams the stack already has —
// the content-addressed store (store.Store), the engine's per-cell
// execution, and the server's HTTP handlers — with injectors that fail,
// delay, tear, or crash on a seeded pseudo-random schedule, so the
// resilience machinery (circuit breaker, panic recovery, backpressure,
// drain, restart resume) is exercised by tests and chaos runs instead of
// trusted on faith.
//
// A fault plan is a flat, strict "key=value,..." spec:
//
//	seed=7,store.err=0.2,store.latency=5ms,store.torn=0.1,cell.panic=0.01
//	crash=server.outcome            (crash the process at a named point)
//
// and is wired in via the TASKPOINT_FAULTS environment variable or
// taskpointd's -faults flag. Every probability decision draws from a
// per-site splitmix64 stream derived from (seed, site, draw index), so a
// plan replays the same fault schedule per decision site regardless of
// what other sites do — the property the chaos harness and the fuzz
// corpus idiom of this repository both rely on.
//
// All injector methods are nil-receiver safe and free when disabled,
// matching the obs.Recorder convention: production call sites compile to
// a nil check.
package fault

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taskpoint/internal/obs"
)

// ErrInjected is the root of every error the injector fabricates;
// callers (and tests) detect injected failures with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Injection metrics in the default registry: how many faults actually
// fired, by seam. A chaos run that injected nothing proves nothing.
var (
	metricStoreFaults = obs.Default().Counter("fault.injected.store")
	metricHTTPFaults  = obs.Default().Counter("fault.injected.http")
	metricCellFaults  = obs.Default().Counter("fault.injected.cell")
	metricCrashes     = obs.Default().Counter("fault.injected.crash")
)

// Spec is a parsed fault plan. The zero value injects nothing.
type Spec struct {
	// Seed derives every decision stream; two injectors with equal specs
	// make identical decisions at each site.
	Seed uint64
	// StoreErr is the probability a store operation returns an injected
	// error (key "store.err").
	StoreErr float64
	// StoreLatency is added to every store operation ("store.latency").
	StoreLatency time.Duration
	// TornWrite is the probability a successful store write is then torn
	// — the on-disk entry is truncated mid-payload, as a crash between
	// write and sync would leave it ("store.torn").
	TornWrite float64
	// PartialRead is the probability a store read fails with a torn-read
	// error after reaching the backend ("store.partial").
	PartialRead float64
	// HTTPErr is the probability an HTTP request is answered 500 before
	// reaching its handler ("http.err").
	HTTPErr float64
	// HTTPLatency delays every HTTP request ("http.latency").
	HTTPLatency time.Duration
	// CellPanic is the probability a cell execution panics mid-run
	// ("cell.panic"); CellErr the probability it fails with an injected
	// error ("cell.err").
	CellPanic float64
	CellErr   float64
	// Crashes maps named crash points to trigger probabilities
	// ("crash=<point>" → 1.0, "crash=<point>:p" → p). When a crash
	// fires the process exits immediately — no draining, no deferred
	// cleanup — which is the point.
	Crashes map[string]float64
}

// Parse parses a fault plan spec. The grammar is strict: unknown keys,
// malformed values and out-of-range probabilities are errors, matching
// the repository's gen:/policy grammar discipline.
func Parse(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		case "store.err":
			spec.StoreErr, err = parseProb(val)
		case "store.latency":
			spec.StoreLatency, err = parseDelay(val)
		case "store.torn":
			spec.TornWrite, err = parseProb(val)
		case "store.partial":
			spec.PartialRead, err = parseProb(val)
		case "http.err":
			spec.HTTPErr, err = parseProb(val)
		case "http.latency":
			spec.HTTPLatency, err = parseDelay(val)
		case "cell.panic":
			spec.CellPanic, err = parseProb(val)
		case "cell.err":
			spec.CellErr, err = parseProb(val)
		case "crash":
			point, probStr, hasProb := strings.Cut(val, ":")
			p := 1.0
			if hasProb {
				p, err = parseProb(probStr)
			}
			if point == "" {
				err = errors.New("empty crash point")
			}
			if err == nil {
				if spec.Crashes == nil {
					spec.Crashes = map[string]float64{}
				}
				spec.Crashes[point] = p
			}
		default:
			return Spec{}, fmt.Errorf("fault: unknown key %q (valid: seed, store.err, store.latency, store.torn, store.partial, http.err, http.latency, cell.panic, cell.err, crash)", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("fault: %s=%s: %w", key, val, err)
		}
	}
	return spec, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 || p != p {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}

func parseDelay(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative latency %v", d)
	}
	return d, nil
}

// String renders the spec back in canonical (sorted) grammar form.
func (s Spec) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if s.Seed != 0 {
		add("seed", strconv.FormatUint(s.Seed, 10))
	}
	prob := func(k string, p float64) {
		if p > 0 {
			add(k, strconv.FormatFloat(p, 'g', -1, 64))
		}
	}
	prob("store.err", s.StoreErr)
	if s.StoreLatency > 0 {
		add("store.latency", s.StoreLatency.String())
	}
	prob("store.torn", s.TornWrite)
	prob("store.partial", s.PartialRead)
	prob("http.err", s.HTTPErr)
	if s.HTTPLatency > 0 {
		add("http.latency", s.HTTPLatency.String())
	}
	prob("cell.panic", s.CellPanic)
	prob("cell.err", s.CellErr)
	points := make([]string, 0, len(s.Crashes))
	for p := range s.Crashes {
		points = append(points, p)
	}
	sort.Strings(points)
	for _, p := range points {
		add("crash", p+":"+strconv.FormatFloat(s.Crashes[p], 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

// Injector makes the spec's fault decisions. A nil *Injector is the
// disabled layer: every method is a no-op returning the healthy outcome.
type Injector struct {
	spec Spec

	mu    sync.Mutex
	sites map[string]*uint64 // per-site draw counters
}

// New builds an injector from a spec string; an empty string yields a
// nil injector (fully disabled).
func New(s string) (*Injector, error) {
	spec, err := Parse(s)
	if err != nil {
		return nil, err
	}
	if spec.inert() {
		return nil, nil
	}
	return NewInjector(spec), nil
}

// inert reports whether no fault can ever fire under the spec.
func (s Spec) inert() bool {
	return s.StoreErr == 0 && s.StoreLatency == 0 && s.TornWrite == 0 &&
		s.PartialRead == 0 && s.HTTPErr == 0 && s.HTTPLatency == 0 &&
		s.CellPanic == 0 && s.CellErr == 0 && len(s.Crashes) == 0
}

// NewInjector builds an injector over a parsed spec.
func NewInjector(spec Spec) *Injector {
	return &Injector{spec: spec, sites: map[string]*uint64{}}
}

// EnvVar is the environment variable FromEnv reads.
const EnvVar = "TASKPOINT_FAULTS"

// FromEnv builds the injector described by $TASKPOINT_FAULTS; unset or
// empty yields a nil (disabled) injector.
func FromEnv() (*Injector, error) {
	return New(os.Getenv(EnvVar))
}

// Enabled reports whether any fault can fire.
func (i *Injector) Enabled() bool { return i != nil }

// Spec returns the injector's plan (zero Spec when disabled).
func (i *Injector) Spec() Spec {
	if i == nil {
		return Spec{}
	}
	return i.spec
}

// roll draws the next uniform [0,1) variate of a named decision site.
// Each site's stream is splitmix64 seeded by (spec seed, site name), so
// the schedule at one seam is independent of traffic at any other.
func (i *Injector) roll(site string) float64 {
	i.mu.Lock()
	ctr, ok := i.sites[site]
	if !ok {
		ctr = new(uint64)
		i.sites[site] = ctr
	}
	i.mu.Unlock()
	n := atomic.AddUint64(ctr, 1)
	z := i.spec.Seed ^ fnv64a(site)
	z += n * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// StoreFaultsEnabled reports whether any store-seam fault can fire.
func (i *Injector) StoreFaultsEnabled() bool {
	return i != nil && (i.spec.StoreErr > 0 || i.spec.StoreLatency > 0 || i.spec.TornWrite > 0 || i.spec.PartialRead > 0)
}

// StoreOp applies the store-operation faults for the named op: the
// injected latency, then possibly an injected error.
func (i *Injector) StoreOp(op string) error {
	if i == nil {
		return nil
	}
	if i.spec.StoreLatency > 0 {
		time.Sleep(i.spec.StoreLatency)
	}
	if i.spec.StoreErr > 0 && i.roll("store.err."+op) < i.spec.StoreErr {
		metricStoreFaults.Inc()
		return fmt.Errorf("%w: store %s", ErrInjected, op)
	}
	return nil
}

// PartialRead reports an injected torn read for the named op.
func (i *Injector) PartialRead(op string) error {
	if i == nil || i.spec.PartialRead <= 0 {
		return nil
	}
	if i.roll("store.partial."+op) < i.spec.PartialRead {
		metricStoreFaults.Inc()
		return fmt.Errorf("%w: partial read during %s", ErrInjected, op)
	}
	return nil
}

// TornWrite decides whether to tear the entry a write just produced.
func (i *Injector) TornWrite() bool {
	if i == nil || i.spec.TornWrite <= 0 {
		return false
	}
	if i.roll("store.torn") < i.spec.TornWrite {
		metricStoreFaults.Inc()
		return true
	}
	return false
}

// HTTPFaultsEnabled reports whether any HTTP-seam fault can fire.
func (i *Injector) HTTPFaultsEnabled() bool {
	return i != nil && (i.spec.HTTPErr > 0 || i.spec.HTTPLatency > 0)
}

// HTTPFault returns the injected delay for one request and whether the
// request should be failed with a 500.
func (i *Injector) HTTPFault() (delay time.Duration, fail bool) {
	if i == nil {
		return 0, false
	}
	delay = i.spec.HTTPLatency
	if i.spec.HTTPErr > 0 && i.roll("http.err") < i.spec.HTTPErr {
		metricHTTPFaults.Inc()
		fail = true
	}
	return delay, fail
}

// CellFaultsEnabled reports whether any per-cell fault can fire.
func (i *Injector) CellFaultsEnabled() bool {
	return i != nil && (i.spec.CellPanic > 0 || i.spec.CellErr > 0)
}

// CellFault is the engine's per-cell hook (engine.WithCellFault): it may
// return an injected error or panic outright — the engine's worker-pool
// recovery must convert the latter into a structured cell error.
func (i *Injector) CellFault(key string) error {
	if i == nil {
		return nil
	}
	if i.spec.CellPanic > 0 && i.roll("cell.panic") < i.spec.CellPanic {
		metricCellFaults.Inc()
		panic(fmt.Sprintf("fault: injected panic in cell %s", key))
	}
	if i.spec.CellErr > 0 && i.roll("cell.err") < i.spec.CellErr {
		metricCellFaults.Inc()
		return fmt.Errorf("%w: cell %s", ErrInjected, key)
	}
	return nil
}

// osExit is swapped out by tests that must observe a crash decision
// without dying.
var osExit = os.Exit

// CrashExitCode is the exit status of an injected crash — distinct from
// every ordinary failure path so harnesses can tell a planned crash from
// a genuine one.
const CrashExitCode = 86

// Crash terminates the process if the plan arms the named crash point
// (probability from "crash=<point>[:p]"). The exit is immediate —
// os.Exit, no deferred cleanup — simulating a kill at exactly that line.
func (i *Injector) Crash(point string) {
	if i == nil || len(i.spec.Crashes) == 0 {
		return
	}
	p, ok := i.spec.Crashes[point]
	if !ok {
		return
	}
	if p < 1 && i.roll("crash."+point) >= p {
		return
	}
	metricCrashes.Inc()
	fmt.Fprintf(os.Stderr, "fault: injected crash at %q\n", point)
	osExit(CrashExitCode)
}
