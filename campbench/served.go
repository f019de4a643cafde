package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taskpoint/internal/obs"
	"taskpoint/internal/server"
	"taskpoint/internal/sweep"
)

// daemon is one running taskpointd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	log     bytes.Buffer
	done    chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches taskpointd over storeDir and returns once its
// health endpoint answers.
func startDaemon(ctx context.Context, bin, storeDir string, workers int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-store", storeDir, "-workers", strconv.Itoa(workers))
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting taskpointd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("taskpointd exited before serving (%v): %s", d.waitErr, d.log.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("taskpointd did not become healthy within 30s")
		}
	}
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs),
// waits for it to exit and returns its peak resident set in KiB.
func (d *daemon) stop() (maxRSSKB int64, err error) {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by the wait below
		select {
		case <-d.done:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			return 0, fmt.Errorf("taskpointd did not drain within 30s")
		}
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSSKB = ru.Maxrss
	}
	if d.waitErr != nil {
		return maxRSSKB, fmt.Errorf("taskpointd: %v: %s", d.waitErr, d.log.String())
	}
	return maxRSSKB, nil
}

// counters reads the daemon's exported counters from /debug/obs.
func (d *daemon) counters(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/debug/obs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("reading /debug/obs: %w", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /debug/obs: %w", err)
	}
	return snap.Counters, nil
}

// campaign submits spec as one POST and reads its event stream until the
// campaign's terminal event: a closed loop with one campaign in flight.
// Times are measured from the start of the submission. untilFirst stops
// reading at the first cell.done, leaving the campaign running.
func (d *daemon) campaign(ctx context.Context, spec sweep.Spec, untilFirst bool) (rep, error) {
	r := rep{recs: map[string]sweep.Record{}, errs: map[string]string{}, computed: map[string]bool{}}
	body, err := json.Marshal(spec)
	if err != nil {
		return r, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return r, fmt.Errorf("submitting: %w", err)
	}
	var sum server.Summary
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	r.submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return r, fmt.Errorf("submitting: status %d (%v)", resp.StatusCode, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/campaigns/"+sum.ID+"/events", nil)
	if err != nil {
		return r, err
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return r, fmt.Errorf("opening event stream: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	prev := r.submit
	for sc.Scan() {
		at := time.Since(start)
		r.gaps = append(r.gaps, ms(at-prev))
		prev = at
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return r, fmt.Errorf("decoding event: %w", err)
		}
		switch ev.Type {
		case "cell.done":
			if r.first == 0 {
				r.first = at
				if untilFirst {
					return r, nil
				}
			}
			if ev.Record == nil {
				r.errs[ev.Cell] = "cell.done without a record"
				continue
			}
			r.recs[ev.Cell] = *ev.Record
			if ev.Source == "computed" {
				r.computed[ev.Cell] = true
			}
		case "cell.error":
			r.errs[ev.Cell] = ev.Error
		case "campaign.done", "campaign.interrupted":
			r.wall = at
			if ev.Type == "campaign.interrupted" {
				return r, fmt.Errorf("campaign %s interrupted", sum.ID)
			}
			return r, nil
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("reading event stream: %w", err)
	}
	return r, errors.New("event stream ended before campaign.done")
}

// startServed starts a fresh taskpointd over storeDir, which is emptied
// and then filled by prepare (nil leaves it empty). Filling the store and
// starting the daemon are the set-up time it returns.
func startServed(ctx context.Context, o options, storeDir string, prepare func(dir string) error) (*daemon, time.Duration, error) {
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, 0, err
	}
	if prepare != nil {
		if err := prepare(storeDir); err != nil {
			return nil, 0, err
		}
	}
	d, err := startDaemon(ctx, o.daemon, storeDir, o.workers)
	return d, time.Since(start), err
}

// servedRep runs one campaign on a fresh taskpointd (see startServed).
// The daemon is drained and stopped before servedRep returns.
func servedRep(ctx context.Context, o options, spec sweep.Spec, storeDir string, prepare func(dir string) error) (rep, error) {
	d, setup, err := startServed(ctx, o, storeDir, prepare)
	if err != nil {
		return rep{}, err
	}
	r, err := d.campaign(ctx, spec, false)
	if err == nil {
		r.counters, err = d.counters(ctx)
	}
	rss, stopErr := d.stop()
	if err == nil {
		err = stopErr
	}
	r.setup, r.maxRSSKB = setup, rss
	return r, err
}

// snapshotStore places the content-addressed entries of the store at src
// (its two-hex-digit shard directories) into dst. The campaigns/
// journal is left out on purpose: a manifest copied without its outcome
// marker would make the restored daemon resume that campaign.
//
// Entries are hard links: the store never rewrites an entry in place (it
// writes a temp file and renames it over), so a link is as good as a
// copy, and placing one writes and later frees no data blocks. Freed
// blocks are discarded on the next journal commit, which stalls file
// creation for tens of milliseconds at random.
func snapshotStore(src, dst string) error {
	shards, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, sh := range shards {
		if !sh.IsDir() || !isShard(sh.Name()) {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(src, sh.Name()))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, sh.Name()), 0o755); err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if !e.Type().IsRegular() || strings.HasPrefix(name, ".") || strings.HasSuffix(name, ".quarantine") {
				continue
			}
			if err := os.Link(filepath.Join(src, sh.Name(), name), filepath.Join(dst, sh.Name(), name)); err != nil {
				return err
			}
		}
	}
	return nil
}

func isShard(name string) bool {
	if len(name) != 2 {
		return false
	}
	for _, c := range name {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
