package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"taskpoint/internal/sim"
)

// memoGrid is 2 workloads × 2 thread counts × 3 policies: 12 cells over 4
// distinct detailed references, policies innermost as in a sweep.
func memoGrid() []Request {
	var reqs []Request
	for _, wl := range []string{"gen:forkjoin(tasks=24,mean=300)", "gen:forkjoin(tasks=16,mean=200)"} {
		for _, threads := range []int{2, 4} {
			for _, pol := range []string{"lazy", "periodic(250)", "stratified(96)"} {
				reqs = append(reqs, Request{Workload: wl, Threads: threads, Scale: 1, Seed: 7, Policy: pol})
			}
		}
	}
	return reqs
}

// TestOneDetailedRunPerReference: at any worker count, a campaign whose
// policies share references computes each distinct reference exactly
// once; every other lookup is a hit or a join.
func TestOneDetailedRunPerReference(t *testing.T) {
	reqs := memoGrid()
	const refs = 4
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cache := NewBaselineCache()
			for _, err := range New(WithWorkers(workers), WithBaselineCache(cache)).RunAll(context.Background(), reqs) {
				if err != nil {
					t.Fatal(err)
				}
			}
			st := cache.Stats()
			if st.Misses != refs || st.Entries != refs {
				t.Errorf("computed %d references (%d cached), want exactly %d: %+v", st.Misses, st.Entries, refs, st)
			}
			if st.Hits != int64(len(reqs)-refs) || st.Joined > st.Hits {
				t.Errorf("want %d hits (joins among them), got %+v", len(reqs)-refs, st)
			}
		})
	}
}

// gateTier is a memory-only tier whose first load stops at a gate: it
// signals entered, waits for gate, then calls fail (which may panic)
// before answering as usual. It holds the first cell to look up a
// reference inside that reference's flight for as long as a test needs.
type gateTier struct {
	fakeTier
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
	fail    func()
}

func newGateTier(fail func()) *gateTier {
	return &gateTier{fakeTier: *newFakeTier(), entered: make(chan struct{}), gate: make(chan struct{}), fail: fail}
}

func (t *gateTier) LoadBaseline(id BaselineID) (*sim.Result, bool) {
	first := false
	t.once.Do(func() { first = true })
	if first {
		close(t.entered)
		<-t.gate
		t.fail()
	}
	return t.fakeTier.LoadBaseline(id)
}

// awaitParked waits until all cells have joined the pool and every
// worker slot but the leader's is free: with nothing queued, the other
// cells gave theirs back to wait on the leader's flight.
func awaitParked(t *testing.T, e *Engine, cells int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		e.pool.mu.Lock()
		joined := e.pool.ticket
		e.pool.mu.Unlock()
		free, queued := poolState(e.pool)
		if joined == uint64(cells) && free == e.workers-1 && queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cells never parked on the leader's flight: free=%d queued=%d", free, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameRef is three cells of one detailed reference.
var sameRef = []Request{
	{Workload: "gen:forkjoin(tasks=24,mean=300)", Threads: 2, Scale: 1, Seed: 5, Policy: "lazy"},
	{Workload: "gen:forkjoin(tasks=24,mean=300)", Threads: 2, Scale: 1, Seed: 5, Policy: "periodic(250)"},
	{Workload: "gen:forkjoin(tasks=24,mean=300)", Threads: 2, Scale: 1, Seed: 5, Policy: "stratified(96)"},
}

// TestPanickingLeaderIsNotShared: the leader of a reference's flight —
// whichever cell got there first — panics; it fails alone as a
// PanicError, nothing is cached from it, and the waiting cells retry,
// computing the reference once between them.
func TestPanickingLeaderIsNotShared(t *testing.T) {
	tier := newGateTier(func() { panic("poisoned tier load") })
	cache := NewBaselineCache()
	cache.SetTier(tier)
	eng := New(WithWorkers(len(sameRef)), WithBaselineCache(cache))

	errs := make(chan []error, 1)
	go func() {
		var out []error
		for _, err := range eng.RunAll(context.Background(), sameRef) {
			out = append(out, err)
		}
		errs <- out
	}()
	<-tier.entered
	awaitParked(t, eng, len(sameRef))
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("reference cached while its leader is still in flight: %+v", st)
	}
	close(tier.gate)

	panicked, ok := 0, 0
	for _, err := range <-errs {
		var pe *PanicError
		switch {
		case err == nil:
			ok++
		case errors.As(err, &pe):
			panicked++
		default:
			t.Errorf("unexpected cell error: %v", err)
		}
	}
	if panicked != 1 || ok != len(sameRef)-1 {
		t.Errorf("want the leader alone to fail: %d panicked, %d ok", panicked, ok)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("want the reference computed once, by a retrying waiter: %+v", st)
	}
}

// TestCancelledLeaderIsNotShared: the leader's context ends while other
// cells wait on its flight; the leader fails with the cancellation,
// nothing is cached from it, and the waiters compute the reference.
func TestCancelledLeaderIsNotShared(t *testing.T) {
	tier := newGateTier(func() {})
	cache := NewBaselineCache()
	cache.SetTier(tier)
	eng := New(WithWorkers(len(sameRef)), WithBaselineCache(cache))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, sameRef[0])
		leader <- err
	}()
	<-tier.entered
	waiters := make(chan error, len(sameRef)-1)
	for _, req := range sameRef[1:] {
		go func() {
			_, err := eng.Run(context.Background(), req)
			waiters <- err
		}()
	}
	awaitParked(t, eng, len(sameRef))
	cancel()
	close(tier.gate)

	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v", err)
	}
	for range sameRef[1:] {
		if err := <-waiters; err != nil {
			t.Errorf("waiting cell failed with its cancelled leader: %v", err)
		}
	}
	// The cancelled leader's attempt counts as a miss; the waiters'
	// retry computes the one cached value.
	if st := cache.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Errorf("want the cancelled attempt plus one retry: %+v", st)
	}
}
