package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"taskpoint/internal/obs"
	"taskpoint/internal/sim"
	"taskpoint/internal/sweep"
)

// ErrUnavailable reports an operation short-circuited because the store
// is degraded: the breaker is open and the cooldown has not elapsed.
// Callers treat it exactly like ErrNotFound-as-a-miss — compute without
// the store — which is what keeps a sick store from failing a campaign.
var ErrUnavailable = errors.New("store: unavailable (degraded)")

// Breaker metrics in the default registry. degraded counts circuit
// openings (transitions into degraded mode); degraded.active is 1 while
// the circuit is open; retry counts half-open probe operations;
// unavailable counts operations short-circuited while open.
var (
	metricDegraded       = obs.Default().Counter("store.degraded")
	metricDegradedActive = obs.Default().Gauge("store.degraded.active")
	metricRetry          = obs.Default().Counter("store.retry")
	metricUnavailable    = obs.Default().Counter("store.unavailable")
)

// breaker states.
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

// Breaker wraps a Store with a circuit breaker: consecutive operation
// failures (anything but a clean hit or a clean ErrNotFound) trip it
// open, and while open every operation returns ErrUnavailable
// immediately instead of touching the sick backend. After a jittered
// exponential-backoff cooldown one probe operation is let through
// (half-open): success closes the circuit, failure reopens it with a
// doubled cooldown, up to a cap. The breaker is safe for concurrent use.
//
// The contract it gives the service stack: a campaign never fails
// because the store is sick. Degraded operation only stops
// deduplicating — reads miss, writes drop (counted) — until the backend
// heals and a probe closes the circuit again.
type Breaker struct {
	inner Store

	mu        sync.Mutex
	state     int
	failures  int           // consecutive failures while closed
	openings  int           // consecutive openings without a heal (backoff exponent)
	until     time.Time     // while open: when the next probe is allowed
	cooldown  time.Duration // the cooldown the current open period used
	threshold int
	base, max time.Duration
	now       func() time.Time
	rng       uint64 // splitmix64 state for jitter
}

// NewBreaker wraps inner in a circuit breaker: 5 consecutive failures
// open it, and cooldowns start at 500ms and double up to 30s.
func NewBreaker(inner Store) *Breaker {
	return &Breaker{
		inner:     inner,
		threshold: 5,
		base:      500 * time.Millisecond,
		max:       30 * time.Second,
		now:       time.Now,
		rng:       0x9e3779b97f4a7c15,
	}
}

// Degraded reports whether the circuit is currently open or probing.
func (b *Breaker) Degraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != stateClosed
}

// allow decides whether an operation may reach the backend. While open
// it short-circuits until the cooldown elapses, then admits exactly one
// probe (half-open); concurrent operations keep short-circuiting until
// the probe reports back.
func (b *Breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if b.now().Before(b.until) {
			metricUnavailable.Inc()
			return false
		}
		b.state = stateHalfOpen
		metricRetry.Inc()
		return true
	default: // half-open: one probe is already in flight
		metricUnavailable.Inc()
		return false
	}
}

// record classifies an operation's outcome. ErrNotFound is a healthy
// miss — the backend answered — so it counts as success.
func (b *Breaker) record(err error) {
	ok := err == nil || errors.Is(err, ErrNotFound)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case ok && b.state == stateHalfOpen:
		b.state = stateClosed
		b.failures = 0
		b.openings = 0
		metricDegradedActive.Set(0)
		fmt.Fprintln(os.Stderr, "store: backend healed, leaving degraded mode")
	case ok:
		b.failures = 0
	case b.state == stateHalfOpen:
		b.open(err) // probe failed: reopen with doubled cooldown
	default: // closed (or open op that raced the trip): count and maybe trip
		b.failures++
		if b.state == stateClosed && b.failures >= b.threshold {
			b.open(err)
		}
	}
}

// open transitions to the open state with the next jittered cooldown.
// Caller holds b.mu.
func (b *Breaker) open(cause error) {
	b.state = stateOpen
	b.failures = 0
	cool := b.base << b.openings
	if cool > b.max || cool <= 0 {
		cool = b.max
	}
	// Jitter to 50–150% of the nominal cooldown so a fleet of breakers
	// over one sick backend doesn't probe in lockstep.
	cool = cool/2 + time.Duration(b.rand())%cool
	b.cooldown = cool
	b.until = b.now().Add(cool)
	if b.openings < 62 {
		b.openings++
	}
	metricDegraded.Inc()
	metricDegradedActive.Set(1)
	fmt.Fprintf(os.Stderr, "store: degraded (cause: %v); retrying backend in %v\n", cause, cool.Round(time.Millisecond))
}

// rand steps the jitter stream (splitmix64). Caller holds b.mu.
func (b *Breaker) rand() int64 {
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	v := int64(z >> 1)
	if v < 0 {
		v = -v
	}
	return v
}

// Baseline implements Store.
func (b *Breaker) Baseline(addr string) (*sim.Result, error) {
	if !b.allow() {
		return nil, fmt.Errorf("%w: baseline %s", ErrUnavailable, short(addr))
	}
	res, err := b.inner.Baseline(addr)
	b.record(err)
	return res, err
}

// PutBaseline implements Store.
func (b *Breaker) PutBaseline(addr string, res *sim.Result) error {
	if !b.allow() {
		return fmt.Errorf("%w: put baseline %s", ErrUnavailable, short(addr))
	}
	err := b.inner.PutBaseline(addr, res)
	b.record(err)
	return err
}

// Report implements Store.
func (b *Breaker) Report(addr string) (*sweep.Record, error) {
	if !b.allow() {
		return nil, fmt.Errorf("%w: report %s", ErrUnavailable, short(addr))
	}
	rec, err := b.inner.Report(addr)
	b.record(err)
	return rec, err
}

// PutReport implements Store.
func (b *Breaker) PutReport(addr string, rec *sweep.Record) error {
	if !b.allow() {
		return fmt.Errorf("%w: put report %s", ErrUnavailable, short(addr))
	}
	err := b.inner.PutReport(addr, rec)
	b.record(err)
	return err
}

func short(addr string) string {
	if len(addr) > 12 {
		return addr[:12]
	}
	return addr
}
