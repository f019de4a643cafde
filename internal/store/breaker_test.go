package store

import (
	"errors"
	"sync"
	"testing"
	"time"

	"taskpoint/internal/engine"
	"taskpoint/internal/sim"
	"taskpoint/internal/sweep"
)

// flakyStore is a scripted Store: fail toggles every operation between
// a healthy miss and an injected failure, and calls counts backend
// traffic so short-circuiting is observable.
type flakyStore struct {
	mu    sync.Mutex
	fail  bool
	calls int
	data  map[string]*sweep.Record
}

var errFlaky = errors.New("flaky: backend down")

func newFlakyStore() *flakyStore { return &flakyStore{data: map[string]*sweep.Record{}} }

func (f *flakyStore) setFail(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = v
}

func (f *flakyStore) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *flakyStore) op() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.fail {
		return errFlaky
	}
	return nil
}

func (f *flakyStore) Baseline(addr string) (*sim.Result, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	return nil, ErrNotFound
}

func (f *flakyStore) PutBaseline(addr string, res *sim.Result) error { return f.op() }

func (f *flakyStore) Report(addr string) (*sweep.Record, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if rec, ok := f.data[addr]; ok {
		return rec, nil
	}
	return nil, ErrNotFound
}

func (f *flakyStore) PutReport(addr string, rec *sweep.Record) error {
	if err := f.op(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data[addr] = rec
	return nil
}

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

const testAddr = "00000000000000000000000000000000000000000000000000000000000000aa"

func newTestBreaker(inner Store, clock *fakeClock) *Breaker {
	b := NewBreaker(inner)
	b.threshold = 3
	b.base, b.max = time.Second, 8*time.Second
	b.now = clock.now
	b.rng = 1
	return b
}

// TestBreakerStaysClosedOnHealthyTraffic: misses and hits are success —
// the breaker never trips on a store that answers.
func TestBreakerStaysClosedOnHealthyTraffic(t *testing.T) {
	inner := newFlakyStore()
	b := newTestBreaker(inner, &fakeClock{})
	for i := 0; i < 20; i++ {
		if _, err := b.Report(testAddr); !errors.Is(err, ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
	}
	if b.Degraded() {
		t.Fatal("breaker tripped on healthy misses")
	}
	if got := inner.callCount(); got != 20 {
		t.Fatalf("want 20 backend calls, got %d", got)
	}
}

// TestBreakerTripsAndShortCircuits: threshold consecutive failures open
// the circuit; further operations return ErrUnavailable without touching
// the backend.
func TestBreakerTripsAndShortCircuits(t *testing.T) {
	inner := newFlakyStore()
	inner.setFail(true)
	clock := &fakeClock{}
	b := newTestBreaker(inner, clock)

	degradedBefore := metricDegraded.Value()
	for i := 0; i < 3; i++ {
		if _, err := b.Report(testAddr); !errors.Is(err, errFlaky) {
			t.Fatalf("failure %d: want backend error, got %v", i, err)
		}
	}
	if !b.Degraded() {
		t.Fatal("breaker did not trip after threshold failures")
	}
	if got := metricDegraded.Value() - degradedBefore; got != 1 {
		t.Fatalf("store.degraded delta = %d, want 1", got)
	}

	calls := inner.callCount()
	unavailBefore := metricUnavailable.Value()
	for i := 0; i < 10; i++ {
		if _, err := b.Report(testAddr); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("want ErrUnavailable while open, got %v", err)
		}
		if err := b.PutReport(testAddr, &sweep.Record{}); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("want ErrUnavailable on writes while open, got %v", err)
		}
	}
	if got := inner.callCount(); got != calls {
		t.Fatalf("open breaker touched the backend: %d calls vs %d", got, calls)
	}
	if got := metricUnavailable.Value() - unavailBefore; got != 20 {
		t.Fatalf("store.unavailable delta = %d, want 20", got)
	}
}

// TestBreakerProbesAndHeals: after the cooldown exactly one probe goes
// through; success closes the circuit and resets the backoff.
func TestBreakerProbesAndHeals(t *testing.T) {
	inner := newFlakyStore()
	inner.setFail(true)
	clock := &fakeClock{}
	b := newTestBreaker(inner, clock)
	for i := 0; i < 3; i++ {
		b.Report(testAddr) //nolint:errcheck
	}
	if !b.Degraded() {
		t.Fatal("not degraded after failures")
	}

	// The jittered cooldown is in [base/2, 1.5*base); advancing past the
	// max possible cooldown guarantees the probe window is open.
	inner.setFail(false)
	retryBefore := metricRetry.Value()
	clock.advance(2 * time.Second)
	if _, err := b.Report(testAddr); !errors.Is(err, ErrNotFound) {
		t.Fatalf("probe: want healthy miss, got %v", err)
	}
	if b.Degraded() {
		t.Fatal("breaker still degraded after successful probe")
	}
	if got := metricRetry.Value() - retryBefore; got != 1 {
		t.Fatalf("store.retry delta = %d, want 1", got)
	}
	// Healed: traffic flows again.
	if err := b.PutReport(testAddr, &sweep.Record{Key: "k"}); err != nil {
		t.Fatalf("healed breaker rejected write: %v", err)
	}
}

// TestBreakerBackoffDoubles: a failing probe reopens the circuit with a
// doubled (jittered, capped) cooldown.
func TestBreakerBackoffDoubles(t *testing.T) {
	inner := newFlakyStore()
	inner.setFail(true)
	clock := &fakeClock{}
	b := newTestBreaker(inner, clock)
	for i := 0; i < 3; i++ {
		b.Report(testAddr) //nolint:errcheck
	}

	prev := time.Duration(0)
	for round := 0; round < 4; round++ {
		b.mu.Lock()
		cool := b.cooldown
		b.mu.Unlock()
		nominal := time.Second << round
		if nominal > 8*time.Second {
			nominal = 8 * time.Second
		}
		if cool < nominal/2 || cool >= nominal+nominal/2 {
			t.Fatalf("round %d: cooldown %v outside jitter bounds of %v", round, cool, nominal)
		}
		if round > 0 && round < 3 && cool <= prev/2 {
			t.Fatalf("round %d: cooldown %v did not grow from %v", round, cool, prev)
		}
		prev = cool
		clock.advance(2 * cool)
		// Failing probe → reopen with the next cooldown.
		if _, err := b.Report(testAddr); !errors.Is(err, errFlaky) {
			t.Fatalf("round %d probe: want backend error, got %v", round, err)
		}
		if !b.Degraded() {
			t.Fatalf("round %d: breaker closed after failing probe", round)
		}
	}
}

// TestBreakerTierWriteBehindErrorsSurface: a write-behind baseline save
// against a degraded store is dropped but counted — never silent.
func TestBreakerTierWriteBehindErrorsSurface(t *testing.T) {
	inner := newFlakyStore()
	inner.setFail(true)
	b := newTestBreaker(inner, &fakeClock{})
	tier := Tier(b)

	id := engine.BaselineID{Workload: "cholesky", Scale: 1, Seed: 1, Arch: "high-performance", Threads: 2}
	before := metricWriteBehindErrors.Value()
	for i := 0; i < 5; i++ {
		tier.SaveBaseline(id, &sim.Result{})
	}
	if got := metricWriteBehindErrors.Value() - before; got != 5 {
		t.Fatalf("store.writebehind.errors delta = %d, want 5", got)
	}
	// Loads against the (now open) breaker are plain misses, not errors.
	if res, ok := tier.LoadBaseline(id); ok || res != nil {
		t.Fatal("degraded tier load must be a miss")
	}
}
