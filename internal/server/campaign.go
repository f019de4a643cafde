// Package server is the campaign service behind taskpointd: it accepts
// design-space sweep specifications over HTTP, executes them through the
// shared experiment engine (internal/engine), deduplicates work across
// campaigns by content address (internal/store), streams per-cell
// progress to any number of clients as JSONL, and survives restarts by
// resuming unfinished campaigns against the persistent result store.
//
// The paper's §V-C argues lazy sampling pays off "during the early phase
// of design space exploration", where many similar campaigns are run;
// this package is that phase as a service — the second submission of an
// overlapping campaign costs only the cells nobody has run before.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"taskpoint/internal/sweep"
)

// Event is one line of a campaign's JSONL progress stream. Type selects
// which fields are meaningful:
//
//	campaign.accepted    — Total
//	cell.done            — Cell, Addr, Source, Done/Total, Record
//	cell.error           — Cell, Error, Done/Total
//	campaign.done        — State, Done/Total, Computed/StoreHits/Joined/Errors
//	campaign.interrupted — same as campaign.done; a drain stopped the
//	                       campaign with cells left, and a later process
//	                       will resume it
type Event struct {
	Type     string `json:"type"`
	Campaign string `json:"campaign"`
	Seq      int    `json:"seq"`
	Time     string `json:"time,omitempty"`

	Total int    `json:"total,omitempty"`
	Done  int    `json:"done,omitempty"`
	Cell  string `json:"cell,omitempty"`
	Addr  string `json:"addr,omitempty"`
	// Source reports where the cell's record came from: "computed" (this
	// server simulated it now), "store" (served from the persistent
	// store), or "joined" (another in-flight campaign was already
	// computing the same cell and this one waited for it).
	Source string        `json:"source,omitempty"`
	Record *sweep.Record `json:"record,omitempty"`
	Error  string        `json:"error,omitempty"`

	State     string `json:"state,omitempty"`
	Computed  int    `json:"computed,omitempty"`
	StoreHits int    `json:"store_hits,omitempty"`
	Joined    int    `json:"joined,omitempty"`
	Errors    int    `json:"errors,omitempty"`
}

// Counts tallies a campaign's cells by outcome.
type Counts struct {
	Computed  int `json:"computed"`
	StoreHits int `json:"store_hits"`
	Joined    int `json:"joined"`
	Errors    int `json:"errors"`
}

// Campaign states. Queued and running are live; done, failed and
// interrupted are terminal for this process — though an interrupted
// campaign's manifest makes the next process resume it.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// terminalState reports whether a campaign in state s emits no further
// events in this process.
func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateInterrupted
}

// Summary is the client-facing view of one campaign, returned by the
// list and status endpoints.
type Summary struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Total     int        `json:"total"`
	Done      int        `json:"done"`
	Counts    Counts     `json:"counts"`
	Submitted time.Time  `json:"submitted"`
	Spec      sweep.Spec `json:"spec"`
}

// campaign is the server-side state of one submitted sweep: its spec,
// its append-only event log, and a broadcast channel subscribers wait on
// for the next append. The event log is the single source of truth —
// a subscriber replays it from any index and then live-tails.
type campaign struct {
	id        string
	spec      sweep.Spec
	total     int
	submitted time.Time

	mu     sync.Mutex
	events []Event
	notify chan struct{} // closed and replaced on every append
	state  string
	done   int
	counts Counts
}

func newCampaign(id string, spec sweep.Spec, total int, submitted time.Time) *campaign {
	return &campaign{
		id:        id,
		spec:      spec,
		total:     total,
		submitted: submitted,
		notify:    make(chan struct{}),
		state:     StateQueued,
	}
}

// start transitions queued → running when the campaign wins an admission
// slot. No event is emitted, so replayed streams are identical whether or
// not the campaign ever waited in the queue.
func (c *campaign) start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == StateQueued {
		c.state = StateRunning
	}
}

// stateNow returns the campaign's current state.
func (c *campaign) stateNow() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// incomplete reports whether cells remain unresolved.
func (c *campaign) incomplete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done < c.total
}

// append records an event (stamping Seq and Time) and wakes every
// subscriber.
func (c *campaign) append(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appendLocked(ev)
}

// appendLocked is append with c.mu held, so a state change and the event
// announcing it become visible together.
func (c *campaign) appendLocked(ev Event) {
	ev.Campaign = c.id
	ev.Seq = len(c.events)
	ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	c.events = append(c.events, ev)
	close(c.notify)
	c.notify = make(chan struct{})
}

// cellDone records one finished cell and emits its event.
func (c *campaign) cellDone(cell, addr, source string, rec *sweep.Record) {
	c.mu.Lock()
	c.done++
	switch source {
	case "computed":
		c.counts.Computed++
	case "store":
		c.counts.StoreHits++
	case "joined":
		c.counts.Joined++
	}
	done := c.done
	c.mu.Unlock()
	c.append(Event{Type: "cell.done", Cell: cell, Addr: addr, Source: source, Done: done, Total: c.total, Record: rec})
}

// cellError records one failed cell and emits its event.
func (c *campaign) cellError(cell string, err error) {
	c.mu.Lock()
	c.done++
	c.counts.Errors++
	done := c.done
	c.mu.Unlock()
	c.append(Event{Type: "cell.error", Cell: cell, Error: err.Error(), Done: done, Total: c.total})
}

// result returns the terminal state and tallies of a campaign whose
// cells have all resolved.
func (c *campaign) result() (string, Counts) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts.Errors > 0 {
		return StateFailed, c.counts
	}
	return StateDone, c.counts
}

// finish publishes the campaign's terminal state together with the
// campaign.done event carrying the outcome tallies.
func (c *campaign) finish(state string, counts Counts) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = state
	c.appendLocked(Event{
		Type: "campaign.done", State: state, Done: c.done, Total: c.total,
		Computed: counts.Computed, StoreHits: counts.StoreHits,
		Joined: counts.Joined, Errors: counts.Errors,
	})
}

// interrupt transitions the campaign to the interrupted terminal state —
// a drain stopped it with cells left — and emits the terminal event so
// live subscribers get an explicit end of stream instead of a dropped
// connection. No outcome marker is written for an interrupted campaign:
// its manifest alone makes the next process resume it, and every cell it
// did finish is already in the store.
func (c *campaign) interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = StateInterrupted
	c.appendLocked(Event{
		Type: "campaign.interrupted", State: StateInterrupted, Done: c.done, Total: c.total,
		Computed: c.counts.Computed, StoreHits: c.counts.StoreHits,
		Joined: c.counts.Joined, Errors: c.counts.Errors,
	})
}

// finished reports whether the campaign reached a terminal state.
func (c *campaign) finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return terminalState(c.state)
}

// eventsFrom returns the events at index >= from, plus the channel that
// closes on the next append and whether the campaign is terminal. A
// subscriber loops: drain, write, and — when the slice is empty and the
// campaign still runs — wait on the channel.
func (c *campaign) eventsFrom(from int) ([]Event, <-chan struct{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var evs []Event
	if from < len(c.events) {
		evs = c.events[from:len(c.events):len(c.events)]
	}
	return evs, c.notify, terminalState(c.state)
}

// summary returns the campaign's client-facing view.
func (c *campaign) summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Summary{
		ID: c.id, State: c.state, Total: c.total, Done: c.done,
		Counts: c.counts, Submitted: c.submitted, Spec: c.spec,
	}
}

// specHash is the stable fingerprint of a spec used in campaign IDs: two
// submissions of one spec share the suffix, so duplicate campaigns are
// visible at a glance in listings and logs.
func specHash(spec sweep.Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// campaignID builds the ID of the seq-th accepted campaign.
func campaignID(seq int, spec sweep.Spec) string {
	return fmt.Sprintf("c%06d-%s", seq, specHash(spec))
}

// manifest is the durable record of an accepted campaign, written to
// <store root>/campaigns/<id>.json at acceptance. Its presence without a
// matching <id>.done.json marks a campaign to resume after a restart.
type manifest struct {
	ID        string     `json:"id"`
	Spec      sweep.Spec `json:"spec"`
	Submitted time.Time  `json:"submitted"`
}

// outcome is the durable completion record, written to
// <store root>/campaigns/<id>.done.json when a campaign finishes.
type outcome struct {
	ID       string    `json:"id"`
	State    string    `json:"state"`
	Total    int       `json:"total"`
	Counts   Counts    `json:"counts"`
	Finished time.Time `json:"finished"`
}
