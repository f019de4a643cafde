package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// poolState returns the pool's free slots and queue length.
func poolState(p *pool) (free, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free, len(p.queue)
}

// granted reports whether s has been granted its slot.
func granted(s *slot) bool {
	select {
	case <-s.granted:
		return true
	default:
		return false
	}
}

// TestPoolGrantsLowestTicketFirst: queued cells get freed slots in
// ticket order, whatever order they started waiting in.
func TestPoolGrantsLowestTicketFirst(t *testing.T) {
	p := newPool(1)
	holder := p.join()
	if err := holder.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := []*slot{p.join(), p.join(), p.join()}
	order := make(chan uint64, len(queued))
	for i := len(queued) - 1; i >= 0; i-- { // the newest cell waits first
		s := queued[i]
		go func() {
			if err := s.acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			order <- s.ticket
			s.release()
		}()
	}
	holder.release()
	for _, want := range queued {
		select {
		case got := <-order:
			if got != want.ticket {
				t.Fatalf("slot went to ticket %d, want the oldest queued ticket %d", got, want.ticket)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("queued cells never got a slot")
		}
	}
	if free, n := poolState(p); free != 1 || n != 0 {
		t.Fatalf("pool after every release: free=%d queued=%d, want 1/0", free, n)
	}
}

// TestPoolWaitingCellKeepsItsTicket: a cell that lent its slot back
// while waiting on a flight gets the next slot ahead of a cell that
// started after it.
func TestPoolWaitingCellKeepsItsTicket(t *testing.T) {
	ctx := context.Background()
	p := newPool(1)
	old := p.join()
	if err := old.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	mid := p.join()
	landed := make(chan struct{})
	waited := make(chan error, 1)
	go func() { waited <- old.wait(ctx)(landed) }()
	if err := mid.acquire(ctx); err != nil { // old lent its slot to mid
		t.Fatal(err)
	}
	young := p.join()
	close(landed)
	for n := 0; ; n++ { // old queues again under its first ticket
		if _, q := poolState(p); q == 2 {
			break
		}
		if n > 10000 {
			t.Fatal("the waiting cell never queued again")
		}
		time.Sleep(time.Millisecond)
	}
	mid.release()
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	if !old.held || granted(young) {
		t.Fatal("the slot went to a younger cell instead of the one that waited on a flight")
	}
	old.release()
	if err := young.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	young.release()
}

// TestPoolCancelWhileQueuedLeaksNoSlot: a queued cell whose context ends
// leaves the queue, and one granted a slot just as its context ended
// passes the slot on — either way the pool keeps all its slots.
func TestPoolCancelWhileQueuedLeaksNoSlot(t *testing.T) {
	ctx := context.Background()
	p := newPool(1)
	holder := p.join()
	if err := holder.acquire(ctx); err != nil {
		t.Fatal(err)
	}

	// Cancelled while still queued.
	cctx, cancel := context.WithCancel(ctx)
	queued := p.join()
	done := make(chan error, 1)
	go func() { done <- queued.acquire(cctx) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	if free, n := poolState(p); free != 0 || n != 0 {
		t.Fatalf("after a queued cancel: free=%d queued=%d, want 0/0", free, n)
	}

	// Granted, then cancelled before taking the slot.
	late := p.join()
	holder.release()
	if !granted(late) {
		t.Fatal("the released slot was not granted to the queued cell")
	}
	if err := late.acquire(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire under a cancelled context returned %v", err)
	}
	if free, n := poolState(p); free != 1 || n != 0 {
		t.Fatalf("after a granted-then-cancelled acquire: free=%d queued=%d, want 1/0", free, n)
	}
	next := p.join()
	if err := next.acquire(ctx); err != nil {
		t.Fatalf("the pool lost its slot: %v", err)
	}
	next.release()
}
