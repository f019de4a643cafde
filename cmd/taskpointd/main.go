// Command taskpointd serves campaigns: a long-running HTTP service that
// accepts design-space sweep specifications, executes them on the shared
// experiment engine, and persists every result in a content-addressed
// store so no cell is ever simulated twice — across campaigns, across
// clients, and across restarts.
//
// Usage:
//
//	taskpointd                                  # 127.0.0.1:8383, ./taskpoint-store
//	taskpointd -addr :9000 -store /var/taskpoint
//	taskpointd -trace t.jsonl                   # also serve /debug/obs/campaign
//	taskpointd -faults seed=7,store.err=0.2     # inject store faults (testing)
//
// On SIGTERM/SIGINT the server drains gracefully: submissions are
// refused, in-flight cells finish, interrupted campaigns emit terminal
// events to their subscribers, and write-behind saves are synced —
// bounded by -drain-timeout, after which it stops hard. Interrupted
// campaigns resume on the next start, served from the store.
//
// API (see cmd/taskpointc for a client):
//
//	POST /v1/campaigns             — submit a sweep spec (JSON), 202 + summary
//	GET  /v1/campaigns             — list campaigns
//	GET  /v1/campaigns/{id}        — one campaign's status
//	GET  /v1/campaigns/{id}/events — JSONL progress stream (replay + live tail; ?from=N resumes)
//	GET  /debug/obs                — metrics snapshot
//	GET  /healthz                  — liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"taskpoint/internal/fault"
	"taskpoint/internal/server"
	"taskpoint/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8383", "listen address")
		storeDir   = flag.String("store", "taskpoint-store", "content-addressed result store directory")
		workers    = flag.Int("workers", 0, "concurrent cell simulations; 0 = one per CPU")
		tracePath  = flag.String("trace", "", "flight-recorder trace to serve at /debug/obs/campaign")
		faultSpec  = flag.String("faults", "", "fault-injection spec, e.g. seed=7,store.err=0.2 (overrides $"+fault.EnvVar+")")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM/SIGINT")
		maxActive  = flag.Int("max-active", 0, "concurrently running campaigns; 0 = default (4)")
		maxQueued  = flag.Int("max-queued", 0, "queued campaigns before submissions get 429; 0 = default (64)")
		reqTimeout = flag.Duration("request-timeout", 0, "deadline for non-streaming requests; 0 = default (30s), negative disables")
	)
	flag.Parse()

	inj, err := fault.FromEnv()
	if err != nil {
		fatal(err)
	}
	if *faultSpec != "" {
		if inj, err = fault.New(*faultSpec); err != nil {
			fatal(err)
		}
	}
	if inj.Enabled() {
		fmt.Fprintf(os.Stderr, "taskpointd: fault injection armed: %s\n", inj.Spec().String())
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	srv, err := server.New(server.Config{
		Store: st, Workers: *workers, TracePath: *tracePath,
		Faults: inj, MaxActive: *maxActive, MaxQueued: *maxQueued,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "taskpointd: serving on http://%s (store %s)\n", *addr, st.Root())

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "taskpointd: draining")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	// Shutdown order: drain campaigns first (in-flight cells finish,
	// interrupted campaigns emit their terminal events, so live event
	// streams end on their own), then shut the HTTP server down (which
	// now has no long-lived streams left to wait on), then hard-close.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainWait)
	defer cancelDrain()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "taskpointd:", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx) //nolint:errcheck // best-effort drain
	srv.Close()          // stops campaigns, flushes write-behind saves
	fmt.Fprintln(os.Stderr, "taskpointd: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taskpointd:", err)
	os.Exit(1)
}
