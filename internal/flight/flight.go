// Package flight is the repository's one keyed single-flight mechanism:
// concurrent callers that need the value of the same key share one
// computation of it. The engine's baseline cache runs programs and
// detailed references through it, and the campaign server runs cell
// reports through it, so no expensive value is computed twice at once.
//
// A Group tracks computations only while they are in flight; the memo a
// finished value lands in (a map, a tier, a store) is the caller's, and
// the leader's function fills it before the flight ends.
package flight

import "sync"

// Group deduplicates concurrent computations by key. The zero Group is
// ready to use; a Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one in-flight computation. val is meaningful only when ok is
// set: a failed leader shares nothing.
type call[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// Do returns the value of key from fn, running at most one fn per key at
// a time. The first caller leads: it runs fn while later callers wait on
// it and share its value (joined reports that the caller waited on
// another's flight). An error, panic or abandoned wait of the leader is
// never shared: its waiters retry, and one of them leads the next
// flight. A leader's panic propagates to the leader's own caller.
//
// A waiter blocks by calling wait with the flight's done channel; wait
// must return nil once done is closed, or an error to abandon the wait,
// which Do then returns. Callers pass a wait that honours their context,
// and may give up resources for its duration (the engine lends its
// worker slot back).
func (g *Group[K, V]) Do(key K, wait func(done <-chan struct{}) error, fn func() (V, error)) (v V, joined bool, err error) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			if err := wait(c.done); err != nil {
				return v, false, err
			}
			if c.ok {
				return c.val, true, nil
			}
			continue // the leader failed: retry, perhaps as the leader
		}
		c := &call[V]{done: make(chan struct{})}
		if g.calls == nil {
			g.calls = map[K]*call[V]{}
		}
		g.calls[key] = c
		g.mu.Unlock()
		v, err = g.lead(key, c, fn)
		return v, false, err
	}
}

// lead runs fn as key's leader and lands the flight whatever fn does,
// panics included, so no waiter hangs.
func (g *Group[K, V]) lead(key K, c *call[V], fn func() (V, error)) (v V, err error) {
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	v, err = fn()
	if err == nil {
		c.val, c.ok = v, true
	}
	return v, err
}

// Block is the plain wait of Do: block until the flight lands, or until
// stop closes (a nil stop never does), returning cause() then.
func Block(stop <-chan struct{}, cause func() error) func(done <-chan struct{}) error {
	return func(done <-chan struct{}) error {
		select {
		case <-done:
			return nil
		case <-stop:
			return cause()
		}
	}
}
