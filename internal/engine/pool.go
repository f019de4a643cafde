package engine

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"taskpoint/internal/flight"
)

// pool is the engine's one set of worker slots. A cell joins it when it
// starts, which gives it the next ticket and queues it; a free slot goes
// to the queued cell with the lowest ticket. So the oldest cell runs
// first whatever order the cells' goroutines happen to be scheduled in,
// and a cell that lent its slot back while waiting on another cell's
// flight gets the next one ahead of every cell that started after it.
type pool struct {
	mu     sync.Mutex
	free   int     // slots nobody holds; positive only while the queue is empty
	ticket uint64  // the last ticket handed out
	queue  []*slot // cells waiting for a slot, by ticket
}

func newPool(slots int) *pool { return &pool{free: slots} }

// join draws the next ticket and queues the cell for a slot. The caller
// must call acquire on the returned slot, which either takes the slot or
// leaves the queue.
func (p *pool) join() *slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ticket++
	s := &slot{p: p, ticket: p.ticket}
	p.enqueueLocked(s)
	return s
}

func (p *pool) enqueueLocked(s *slot) {
	s.granted = make(chan struct{})
	i, _ := slices.BinarySearchFunc(p.queue, s.ticket, func(q *slot, t uint64) int { return cmp.Compare(q.ticket, t) })
	p.queue = slices.Insert(p.queue, i, s)
	p.grantLocked()
}

// grantLocked hands free slots to the oldest queued cells.
func (p *pool) grantLocked() {
	for p.free > 0 && len(p.queue) > 0 {
		s := p.queue[0]
		p.queue = slices.Delete(p.queue, 0, 1)
		p.free--
		metricWorkersBusy.Add(1)
		close(s.granted)
	}
}

// freeLocked returns one held slot to the pool.
func (p *pool) freeLocked() {
	p.free++
	metricWorkersBusy.Add(-1)
	p.grantLocked()
}

// slot is one cell's place in the pool: its ticket, and whether it holds
// a worker slot right now. A slot belongs to one goroutine.
type slot struct {
	p       *pool
	ticket  uint64
	granted chan struct{} // closed when the queued cell is given a slot
	held    bool
}

// acquire waits until the queued cell is granted its slot, or leaves the
// queue with ctx's error once ctx ends. A failed acquire holds no slot.
func (s *slot) acquire(ctx context.Context) error {
	if ctx.Err() == nil {
		select {
		case <-s.granted:
			s.held = true
			return nil
		case <-ctx.Done():
		}
	}
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := slices.Index(p.queue, s); i >= 0 {
		p.queue = slices.Delete(p.queue, i, i+1)
	} else {
		// Granted as ctx ended: pass the slot on instead of leaking it.
		p.freeLocked()
	}
	return ctx.Err()
}

// release gives the slot back if the cell holds it; it is safe to call
// more than once.
func (s *slot) release() {
	if !s.held {
		return
	}
	s.held = false
	s.p.mu.Lock()
	s.p.freeLocked()
	s.p.mu.Unlock()
}

// wait is the cell's flight wait: it lends the slot back while another
// cell's flight runs and queues again, under its old ticket, when the
// flight lands.
func (s *slot) wait(ctx context.Context) func(done <-chan struct{}) error {
	block := flight.Block(ctx.Done(), ctx.Err)
	return func(done <-chan struct{}) error {
		select {
		case <-done:
			return nil
		default:
		}
		s.release()
		if err := block(done); err != nil {
			return err
		}
		s.p.mu.Lock()
		s.p.enqueueLocked(s)
		s.p.mu.Unlock()
		return s.acquire(ctx)
	}
}
