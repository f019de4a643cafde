package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitAll is the plain wait of a caller with no deadline.
var waitAll = Block(nil, nil)

// leadAndHold starts a leader for key whose fn blocks until release is
// closed and then returns what result returns. It waits until the leader
// is inside fn.
func leadAndHold(t *testing.T, g *Group[string, int], key string, result func() (int, error)) (release chan struct{}, out chan error) {
	t.Helper()
	release = make(chan struct{})
	out = make(chan error, 1)
	inside := make(chan struct{})
	go func() {
		defer func() {
			if v := recover(); v != nil {
				out <- errors.New("leader panicked")
			}
		}()
		_, joined, err := g.Do(key, waitAll, func() (int, error) {
			close(inside)
			<-release
			return result()
		})
		if joined {
			err = errors.New("the first caller joined")
		}
		out <- err
	}()
	<-inside
	return release, out
}

// joiners starts n callers of key, which compute with compute if they
// lead, and returns once all n wait on the running flight. Every wait
// they make counts in waits. collect returns their values, joined flags
// and errors once all have returned.
func joiners(g *Group[string, int], key string, n int, waits *atomic.Int32, compute func() (int, error)) (collect func() ([]int, []bool, []error)) {
	vals, joined, errs := make([]int, n), make([]bool, n), make([]error, n)
	var waiting, returned sync.WaitGroup
	waiting.Add(n)
	for i := range n {
		returned.Add(1)
		var first sync.Once
		go func() {
			defer returned.Done()
			vals[i], joined[i], errs[i] = g.Do(key, func(done <-chan struct{}) error {
				waits.Add(1)
				first.Do(waiting.Done)
				return waitAll(done)
			}, compute)
		}()
	}
	waiting.Wait()
	return func() ([]int, []bool, []error) { returned.Wait(); return vals, joined, errs }
}

// TestDoSharesOneComputation: callers arriving while a leader runs wait
// and share its value; fn runs once.
func TestDoSharesOneComputation(t *testing.T) {
	var g Group[string, int]
	var runs, waits atomic.Int32
	release, out := leadAndHold(t, &g, "k", func() (int, error) { runs.Add(1); return 42, nil })
	collect := joiners(&g, "k", 4, &waits, func() (int, error) { runs.Add(1); return 0, nil })
	close(release)
	if err := <-out; err != nil {
		t.Fatal(err)
	}
	vals, joined, errs := collect()
	for i := range vals {
		if errs[i] != nil || vals[i] != 42 {
			t.Errorf("caller %d: %v, %v; want the leader's 42", i, vals[i], errs[i])
		}
		if !joined[i] {
			t.Errorf("caller %d did not report joining", i)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
}

// TestFailedLeaderIsNotShared: an error, a panic or an abandoned leader
// shares nothing — its waiters retry, exactly one of them leads the
// retry, and nobody hangs.
func TestFailedLeaderIsNotShared(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		result func() (int, error)
	}{
		{"error", func() (int, error) { return 1, errBoom }},
		{"panic", func() (int, error) { panic("boom") }},
		{"cancelled", func() (int, error) { return 1, context.Canceled }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g Group[string, int]
			var retries, waits atomic.Int32
			release, out := leadAndHold(t, &g, "k", tc.result)
			collect := joiners(&g, "k", 3, &waits, func() (int, error) {
				retries.Add(1)
				// Land only once the other two waiters wait on this
				// flight: 3 waits on the failed one, 2 on this one.
				for deadline := time.Now().Add(10 * time.Second); waits.Load() < 5; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						return 0, errors.New("the other waiters never joined the retry")
					}
				}
				return 7, nil
			})
			close(release)
			if err := <-out; err == nil {
				t.Fatal("failed leader reported success")
			}
			vals, _, errs := collect()
			for i := range vals {
				if errs[i] != nil || vals[i] != 7 {
					t.Errorf("waiter %d: %v, %v; want its own retry's 7", i, vals[i], errs[i])
				}
			}
			if n := retries.Load(); n != 1 {
				t.Errorf("%d waiters led the retry, want exactly 1", n)
			}
			if len(g.calls) != 0 {
				t.Errorf("%d flights left registered", len(g.calls))
			}
		})
	}
}

// TestAbandonedWaitReturnsItsError: a waiter whose wait fails returns
// that error at once and leaves the leader's flight alone.
func TestAbandonedWaitReturnsItsError(t *testing.T) {
	var g Group[string, int]
	release, out := leadAndHold(t, &g, "k", func() (int, error) { return 3, nil })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, joined, err := g.Do("k", Block(ctx.Done(), ctx.Err), func() (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) || joined {
		t.Fatalf("abandoned wait: joined=%v err=%v, want context.Canceled", joined, err)
	}
	close(release)
	if err := <-out; err != nil {
		t.Fatal(err)
	}
}

// TestDistinctKeysRunIndependently: a flight blocks only its own key.
func TestDistinctKeysRunIndependently(t *testing.T) {
	var g Group[string, int]
	release, out := leadAndHold(t, &g, "a", func() (int, error) { return 1, nil })
	v, joined, err := g.Do("b", waitAll, func() (int, error) { return 2, nil })
	if v != 2 || joined || err != nil {
		t.Fatalf("key b: %v %v %v, want its own 2", v, joined, err)
	}
	close(release)
	if err := <-out; err != nil {
		t.Fatal(err)
	}
}
