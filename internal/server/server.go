package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"taskpoint/internal/engine"
	"taskpoint/internal/fault"
	"taskpoint/internal/flight"
	"taskpoint/internal/obs"
	"taskpoint/internal/obs/query"
	"taskpoint/internal/store"
	"taskpoint/internal/sweep"
)

// Server metrics in the default obs registry.
var (
	metricCampaignsAccepted    = obs.Default().Counter("server.campaigns.accepted")
	metricCampaignsResumed     = obs.Default().Counter("server.campaigns.resumed")
	metricCampaignsInterrupted = obs.Default().Counter("server.campaigns.interrupted")
	metricCampaignsRejected    = obs.Default().Counter("server.campaigns.rejected")
	metricCellsComputed        = obs.Default().Counter("server.cells.computed")
	metricCellsStoreHits       = obs.Default().Counter("server.cells.store_hits")
	metricCellsJoined          = obs.Default().Counter("server.cells.joined")
	metricCellsFailed          = obs.Default().Counter("server.cells.failed")
	metricCellsStoreErrors     = obs.Default().Counter("server.cells.store_errors")
)

// ErrBusy reports a submission rejected because the admission queue is
// full; clients should retry after a delay (the HTTP layer answers 429
// with Retry-After).
var ErrBusy = errors.New("server: busy (admission queue full)")

// ErrDraining reports a submission refused because the server is
// shutting down gracefully.
var ErrDraining = errors.New("server: draining (shutting down)")

// Config configures a Server.
type Config struct {
	// Store is the persistent result store (required). The server wires
	// it under the engine's baseline cache as the read-through/
	// write-behind tier, and serves finished cell reports from it.
	Store *store.DiskStore
	// Workers sizes the engine's one worker pool, which bounds
	// concurrent simulations across all campaigns; <=1 selects the
	// engine's default (one per CPU).
	Workers int
	// TracePath, when set, mounts the /debug/obs/campaign report over
	// the flight-recorder trace at that path.
	TracePath string
	// Faults is the optional fault injector: store faults wrap the disk
	// store (under the circuit breaker, so injected failures exercise the
	// real degradation path), cell faults hook the engine, HTTP faults
	// wrap Handler, and crash points arm the server's crash sites. Nil
	// means no injection, at zero cost.
	Faults *fault.Injector
	// MaxActive bounds concurrently running campaigns; submissions beyond
	// it queue. <=0 selects the default (4).
	MaxActive int
	// MaxQueued bounds campaigns waiting for an admission slot;
	// submissions beyond it are rejected with ErrBusy (HTTP 429). <=0
	// selects the default (64).
	MaxQueued int
	// RequestTimeout bounds the handling of every non-streaming request
	// (submit, list, status, debug); the event stream is exempt. 0
	// selects the default (30s), negative disables the deadline.
	RequestTimeout time.Duration
}

// Server is the campaign service: submitted sweeps run through one
// shared engine and one persistent store, with cross-campaign
// single-flight per content address so no cell is ever simulated twice —
// not by two concurrent campaigns, and not again after a restart.
type Server struct {
	st      *store.DiskStore
	backend store.Store    // breaker (over the optionally fault-wrapped disk store)
	breaker *store.Breaker // same object, for Degraded()
	faults  *fault.Injector
	eng     *engine.Engine
	cache   *engine.BaselineCache
	mux     *http.ServeMux

	campSem    chan struct{} // admission slots: MaxActive concurrently running campaigns
	maxQueued  int
	reqTimeout time.Duration

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	drainOnce sync.Once
	drainCh   chan struct{} // closed when a graceful drain begins

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // campaign IDs in acceptance order
	nextSeq   int
	finished  map[string]outcome // completed before this process started

	// reports runs each cell computation in its report address's single
	// flight, shared by every campaign that needs the address at once.
	reports flight.Group[string, *sweep.Record]
}

// New builds a Server over the given store and resumes any campaign a
// previous process accepted but did not finish. It does not listen;
// mount Handler on an http.Server (or use cmd/taskpointd).
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	// The store stack under the server: disk store, optionally wrapped
	// with injected faults, always wrapped in the circuit breaker. Every
	// server-side store access — baseline tier reads/writes and report
	// lookups alike — goes through the breaker, so a sick (or
	// fault-injected) backend degrades to compute-without-store instead
	// of failing campaigns.
	backend := store.NewBreaker(fault.WrapDisk(cfg.Store, cfg.Faults))
	cache := engine.NewBaselineCache()
	cache.SetTier(store.Tier(backend))
	opts := []engine.Option{engine.WithBaselineCache(cache)}
	if cfg.Workers > 1 {
		opts = append(opts, engine.WithWorkers(cfg.Workers))
	}
	if cfg.Faults.CellFaultsEnabled() {
		opts = append(opts, engine.WithCellFault(cfg.Faults.CellFault))
	}
	maxActive := cfg.MaxActive
	if maxActive <= 0 {
		maxActive = 4
	}
	maxQueued := cfg.MaxQueued
	if maxQueued <= 0 {
		maxQueued = 64
	}
	reqTimeout := cfg.RequestTimeout
	if reqTimeout == 0 {
		reqTimeout = 30 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		st:         cfg.Store,
		backend:    backend,
		breaker:    backend,
		faults:     cfg.Faults,
		eng:        engine.New(opts...),
		cache:      cache,
		campSem:    make(chan struct{}, maxActive),
		maxQueued:  maxQueued,
		reqTimeout: reqTimeout,
		ctx:        ctx,
		cancel:     cancel,
		drainCh:    make(chan struct{}),
		campaigns:  map[string]*campaign{},
		finished:   map[string]outcome{},
	}
	s.buildMux(cfg.TracePath)
	if err := s.resume(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// Close stops accepting work, waits for running campaigns' goroutines to
// observe cancellation, and flushes write-behind baseline saves.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	s.cache.Sync()
}

// Drain begins a graceful shutdown: new submissions are refused with
// ErrDraining, queued campaigns are interrupted before starting, and
// running campaigns stop dispatching cells once the in-flight ones
// finish. Every interrupted campaign emits a terminal
// campaign.interrupted event, so live event subscribers' streams end
// cleanly (and an http.Server.Shutdown after Drain returns promptly —
// no stream outlives its campaign). Drain returns once every campaign
// goroutine has exited and write-behind baseline saves are on disk, or
// with ctx's error if the deadline passes first. It is idempotent and
// safe to combine with a later Close.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.cache.Sync()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// draining reports whether a graceful drain has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Degraded reports whether the store circuit breaker is currently open.
func (s *Server) Degraded() bool { return s.breaker.Degraded() }

// Handler returns the server's HTTP handler, wrapped with the fault
// injector's HTTP middleware when HTTP faults are armed.
func (s *Server) Handler() http.Handler { return fault.Middleware(s.faults, s.mux) }

// Engine exposes the shared engine (for tests and embedding callers).
func (s *Server) Engine() *engine.Engine { return s.eng }

func (s *Server) buildMux(tracePath string) {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/campaigns", s.timed(http.HandlerFunc(s.handleSubmit)))
	mux.Handle("GET /v1/campaigns", s.timed(http.HandlerFunc(s.handleList)))
	mux.Handle("GET /v1/campaigns/{id}", s.timed(http.HandlerFunc(s.handleStatus)))
	// The event stream is the one intentionally long-lived endpoint; it
	// ends with its campaign (or the client), never on a deadline.
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		b, err := obs.Default().MarshalSnapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	if tracePath != "" {
		ep := query.Endpoint(tracePath)
		mux.Handle("GET "+ep.Pattern, ep.Handler)
	}
	s.mux = mux
}

// timed bounds a non-streaming handler with the server's per-request
// deadline: a handler that overruns it is answered 503 and its writes
// are discarded, so one stuck request cannot hold a connection forever.
func (s *Server) timed(h http.Handler) http.Handler {
	if s.reqTimeout <= 0 {
		return h
	}
	return http.TimeoutHandler(h, s.reqTimeout, `{"error":"server: request deadline exceeded"}`+"\n")
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is the only failure
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return
	}
	c, err := s.accept(spec, "")
	if err != nil {
		switch {
		case errors.Is(err, ErrBusy):
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "10")
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, c.summary())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sums := make([]Summary, 0, len(s.order)+len(s.finished))
	for _, id := range s.order {
		sums = append(sums, s.campaigns[id].summary())
	}
	for _, out := range s.finished {
		sums = append(sums, Summary{ID: out.ID, State: out.State, Total: out.Total, Done: out.Total, Counts: out.Counts})
	}
	s.mu.Unlock()
	sort.Slice(sums, func(i, j int) bool { return sums[i].ID < sums[j].ID })
	writeJSON(w, http.StatusOK, sums)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	out, wasFinished := s.finished[id]
	s.mu.Unlock()
	if c != nil {
		writeJSON(w, http.StatusOK, c.summary())
		return
	}
	if wasFinished {
		writeJSON(w, http.StatusOK, Summary{ID: out.ID, State: out.State, Total: out.Total, Done: out.Total, Counts: out.Counts})
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
}

// handleEvents streams a campaign's event log as JSONL: replay from the
// beginning (or from the ?from=N sequence number, the client's resume
// cursor after a dropped connection), then live tail until the campaign
// reaches a terminal state or the client disconnects. Any number of
// clients can stream one campaign.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid from=%q", q))
			return
		}
		from = n
	}
	s.mu.Lock()
	c := s.campaigns[id]
	out, wasFinished := s.finished[id]
	s.mu.Unlock()
	if c == nil && !wasFinished {
		writeError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if c == nil {
		// Finished before this process started: the event history is
		// gone, but the durable outcome still closes the stream.
		enc.Encode(Event{ //nolint:errcheck
			Type: "campaign.done", Campaign: out.ID, State: out.State,
			Done: out.Total, Total: out.Total,
			Computed: out.Counts.Computed, StoreHits: out.Counts.StoreHits,
			Joined: out.Counts.Joined, Errors: out.Counts.Errors,
		})
		return
	}
	next := from
	for {
		evs, notify, done := c.eventsFrom(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client gone
			}
		}
		next += len(evs)
		if len(evs) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			continue // drain before deciding to wait
		}
		if done {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// --- campaign lifecycle ---

// accept validates a spec, registers the campaign, persists its manifest
// and launches the runner. A non-empty id reuses an existing manifest
// (the resume path, exempt from admission rejection — resumed work was
// already accepted once); an empty one allocates the next ID and
// persists, subject to the admission bound.
func (s *Server) accept(spec sweep.Spec, id string) (*campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	s.mu.Lock()
	fresh := id == ""
	if fresh {
		if s.draining() {
			s.mu.Unlock()
			return nil, ErrDraining
		}
		if s.queuedLocked() >= s.maxQueued {
			s.mu.Unlock()
			metricCampaignsRejected.Inc()
			return nil, ErrBusy
		}
		s.nextSeq++
		id = campaignID(s.nextSeq, spec)
	}
	c := newCampaign(id, spec, len(cells), time.Now().UTC())
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.mu.Unlock()
	if fresh {
		if err := s.writeManifest(manifest{ID: id, Spec: spec, Submitted: c.submitted}); err != nil {
			return nil, err
		}
	}
	metricCampaignsAccepted.Inc()
	c.append(Event{Type: "campaign.accepted", Total: len(cells)})
	s.wg.Add(1)
	go s.runCampaign(c, cells)
	return c, nil
}

// queuedLocked counts campaigns still waiting for an admission slot.
// Caller holds s.mu.
func (s *Server) queuedLocked() int {
	n := 0
	for _, id := range s.order {
		if s.campaigns[id].stateNow() == StateQueued {
			n++
		}
	}
	return n
}

// runCampaign waits for an admission slot, drives the campaign's cells
// on the shared engine, then records the durable outcome. It keeps the
// engine's dispatch window of cells in flight; their simulations share
// the engine's one worker pool with every other campaign's. A drain
// mid-campaign lets in-flight cells finish, then interrupts; a hard
// Close abandons silently. Either way the manifest without an outcome
// marker makes the next process resume.
func (s *Server) runCampaign(c *campaign, cells []sweep.Cell) {
	defer s.wg.Done()
	select {
	case s.campSem <- struct{}{}:
		defer func() { <-s.campSem }()
	case <-s.drainCh:
		metricCampaignsInterrupted.Inc()
		c.interrupt()
		return
	case <-s.ctx.Done():
		return
	}
	c.start()
	sem := make(chan struct{}, s.eng.DispatchWindow())
	var cellWG sync.WaitGroup
dispatch:
	for _, cell := range cells {
		select {
		case <-s.drainCh:
			break dispatch
		case <-s.ctx.Done():
			break dispatch
		default:
		}
		// Store hits resolve here, in cell order, so a warm campaign's
		// records stream out at the cost of one read each; only the cells
		// left to compute take a goroutine.
		req, addr, resolved := s.lookup(c, cell)
		if resolved {
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-s.drainCh:
			break dispatch
		case <-s.ctx.Done():
			break dispatch
		}
		cellWG.Add(1)
		go func() {
			defer cellWG.Done()
			defer func() { <-sem }()
			s.runCell(c, cell, req, addr)
		}()
	}
	cellWG.Wait()
	if s.ctx.Err() != nil && !s.draining() {
		return // hard stop: no outcome written, next start resumes it
	}
	if c.incomplete() {
		metricCampaignsInterrupted.Inc()
		c.interrupt()
		return
	}
	// The outcome marker is durable before campaign.done is visible, so a
	// client acting on the event always finds the marker.
	state, counts := c.result()
	if err := s.writeOutcome(c, state, counts); err != nil {
		fmt.Fprintf(os.Stderr, "server: recording outcome of %s: %v\n", c.id, err)
	}
	// Crash point between the durable outcome marker and the terminal
	// event: a process killed here restarts with the marker present, so
	// the campaign is history — its campaign.done served from the marker —
	// and is neither forgotten nor run again.
	s.faults.Crash("server.outcome")
	c.finish(state, counts)
}

// lookup addresses one cell and resolves it from the store if a
// previous campaign already ran it. resolved reports that the cell is
// done (or failed to address); otherwise runCell must compute it.
func (s *Server) lookup(c *campaign, cell sweep.Cell) (req engine.Request, addr string, resolved bool) {
	req = cell.Request(c.spec)
	addr, err := store.ContentAddress(req)
	if err != nil {
		metricCellsFailed.Inc()
		c.cellError(cell.Key(), err)
		return req, "", true
	}
	rec, err := s.backend.Report(addr)
	if err == nil {
		metricCellsStoreHits.Inc()
		c.cellDone(cell.Key(), addr, "store", rec)
		return req, addr, true
	}
	if !errors.Is(err, store.ErrNotFound) {
		// A sick store must not fail the cell: count the error and treat
		// it as a miss, computing the result without the store. While the
		// breaker is open these misses are immediate (ErrUnavailable), so
		// degraded mode costs deduplication, never correctness.
		metricCellsStoreErrors.Inc()
	}
	return req, addr, false
}

// runCell resolves a cell the store missed: by joining another
// campaign's in-flight computation of its address, or by simulating it
// now — in which case the finished record is persisted before anyone
// else can observe the flight as complete. A computation that fails is
// never shared: the campaigns waiting on it retry, and one of them
// computes the cell itself.
//
// A missed cell reads the store twice, and both reads are needed. The
// flight re-reads it because, between lookup's miss and this flight,
// another campaign may have finished the same address and landed its
// flight; without the re-read that window would simulate the cell
// twice. lookup's read stays in the dispatcher, in cell order, because
// hits must not wait for a cell goroutine: a prototype that read the
// store only inside the flight raised serve-warm first_record_s from
// ~2 ms to ~8 ms on 3 of 3 campbench pairs (2-vCPU VM), its store hits
// queued behind CPU-bound cells.
func (s *Server) runCell(c *campaign, cell sweep.Cell, req engine.Request, addr string) {
	source := "computed"
	rec, joined, err := s.reports.Do(addr, flight.Block(s.ctx.Done(), s.ctx.Err), func() (*sweep.Record, error) {
		if rec, err := s.backend.Report(addr); err == nil {
			source = "store"
			return rec, nil
		}
		rep, err := s.eng.Run(s.ctx, req)
		if err != nil {
			return nil, err
		}
		r := sweep.RecordOf(cell, c.spec, rep)
		if err := s.backend.PutReport(addr, &r); err != nil {
			// The result is good; only its persistence failed. Count it,
			// serve it, and let a later campaign recompute.
			metricCellsStoreErrors.Inc()
			fmt.Fprintf(os.Stderr, "server: persisting %s: %v\n", addr[:12], err)
		}
		return &r, nil
	})
	if joined {
		source = "joined"
	}
	switch {
	case err != nil && s.ctx.Err() != nil:
		return // hard stop: the campaign is abandoned and resumes later
	case err != nil:
		metricCellsFailed.Inc()
		c.cellError(cell.Key(), err)
		return
	case source == "store":
		metricCellsStoreHits.Inc()
	case source == "joined":
		metricCellsJoined.Inc()
	default:
		metricCellsComputed.Inc()
	}
	c.cellDone(cell.Key(), addr, source, rec)
}

// --- durable campaign bookkeeping ---

func (s *Server) campaignsDir() string { return filepath.Join(s.st.Root(), "campaigns") }

func (s *Server) writeManifest(m manifest) error {
	dir := s.campaignsDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return atomicWrite(filepath.Join(dir, m.ID+".json"), b)
}

func (s *Server) writeOutcome(c *campaign, state string, counts Counts) error {
	b, err := json.MarshalIndent(outcome{
		ID: c.id, State: state, Total: c.total, Counts: counts,
		Finished: time.Now().UTC(),
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return atomicWrite(filepath.Join(s.campaignsDir(), c.id+".done.json"), b)
}

// atomicWrite stages b in a temp file and renames it into place, the
// same crash discipline as store entries.
func atomicWrite(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("server: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// resume scans the campaigns directory: finished campaigns become
// listable history; accepted-but-unfinished ones relaunch. Their cells
// hit the store for everything persisted before the crash, so resuming
// costs only the genuinely unfinished work.
func (s *Server) resume() error {
	dir := s.campaignsDir()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	donee := map[string]outcome{}
	var pending []manifest
	maxSeq := 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".done.json"):
			var out outcome
			if readJSON(filepath.Join(dir, name), &out) == nil && out.ID != "" {
				donee[out.ID] = out
			}
		case strings.HasSuffix(name, ".json"):
			var m manifest
			if readJSON(filepath.Join(dir, name), &m) == nil && m.ID != "" {
				pending = append(pending, m)
			}
		}
	}
	for _, m := range pending {
		if seq := seqOf(m.ID); seq > maxSeq {
			maxSeq = seq
		}
	}
	for id := range donee {
		if seq := seqOf(id); seq > maxSeq {
			maxSeq = seq
		}
	}
	s.mu.Lock()
	s.nextSeq = maxSeq
	s.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
	for _, m := range pending {
		if out, ok := donee[m.ID]; ok {
			s.mu.Lock()
			s.finished[m.ID] = out
			s.mu.Unlock()
			continue
		}
		if _, err := s.accept(m.Spec, m.ID); err != nil {
			fmt.Fprintf(os.Stderr, "server: cannot resume %s: %v\n", m.ID, err)
			continue
		}
		metricCampaignsResumed.Inc()
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// seqOf extracts the sequence number from a campaign ID ("c%06d-...").
func seqOf(id string) int {
	var seq int
	if _, err := fmt.Sscanf(id, "c%d-", &seq); err != nil {
		return 0
	}
	return seq
}
