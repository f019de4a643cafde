// Chaos harness: builds the real taskpointd binary, runs it over a real
// store directory with injected store faults, SIGKILLs it mid-campaign
// repeatedly, and asserts the service-stack invariants hold across every
// kill/restart cycle:
//
//   - never-wrong: every sighting of a cell's record — across processes,
//     across recomputations forced by torn writes — is identical in its
//     deterministic fields;
//   - resumed-not-lost: the interrupted campaign completes after a clean
//     restart with zero errors;
//   - exactly-once-or-recomputed: a resubmission is served overwhelmingly
//     from the store; cells lost to injected put failures or late torn
//     writes are repaired (recomputed to the identical record and
//     re-persisted), after which a further resubmission is exact — all
//     store hits, zero computations, zero new writes.
//
// The harness is skipped under -short; CI's nightly chaos job runs it
// with the binary built -race (TASKPOINT_CHAOS_RACE=1) and the full
// cycle count (TASKPOINT_CHAOS_CYCLES).
package fault_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

var daemonBin string // built once in TestMain; empty if the build failed

func TestMain(m *testing.M) {
	flag.Parse()
	code := func() int {
		if testing.Short() {
			return m.Run()
		}
		root, err := repoRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos: cannot locate repo root:", err)
			return m.Run()
		}
		dir, err := os.MkdirTemp("", "taskpoint-chaos-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			return m.Run()
		}
		defer os.RemoveAll(dir)
		bin := filepath.Join(dir, "taskpointd")
		args := []string{"build"}
		if os.Getenv("TASKPOINT_CHAOS_RACE") == "1" {
			args = append(args, "-race")
		}
		args = append(args, "-o", bin, "./cmd/taskpointd")
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "chaos: building taskpointd:", err)
		} else {
			daemonBin = bin
		}
		return m.Run()
	}()
	os.Exit(code)
}

func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// --- minimal wire types (kept independent of internal/server on purpose:
// the harness sees the service exactly as an external client does) ---

type wireRecord struct {
	ErrPct         float64 `json:"err_pct"`
	SampledCycles  float64 `json:"sampled_cycles"`
	DetailedCycles float64 `json:"detailed_cycles"`
}

type wireEvent struct {
	Type      string      `json:"type"`
	Campaign  string      `json:"campaign"`
	Seq       int         `json:"seq"`
	Cell      string      `json:"cell"`
	Source    string      `json:"source"`
	Record    *wireRecord `json:"record"`
	State     string      `json:"state"`
	Done      int         `json:"done"`
	Total     int         `json:"total"`
	Computed  int         `json:"computed"`
	StoreHits int         `json:"store_hits"`
	Joined    int         `json:"joined"`
	Errors    int         `json:"errors"`
}

type wireSummary struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Total int    `json:"total"`
	Done  int    `json:"done"`
}

func chaosSpec(seeds int) string {
	s := make([]string, seeds)
	for i := range s {
		s[i] = strconv.Itoa(i + 1)
	}
	return `{"name":"chaos","scale":1,` +
		`"benchmarks":["gen:forkjoin(tasks=24,mean=300)","gen:pipeline(depth=4,cv=0.5)"],` +
		`"archs":["hp"],"threads":[2],"policies":["lazy","periodic(250)"],` +
		`"seeds":[` + joinComma(s) + `]}`
}

func joinComma(s []string) string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// --- daemon lifecycle ---

type daemon struct {
	cmd *exec.Cmd
}

func startDaemon(t *testing.T, storeDir, addr, faults string) *daemon {
	t.Helper()
	if daemonBin == "" {
		t.Fatal("taskpointd binary unavailable (build failed in TestMain)")
	}
	cmd := exec.Command(daemonBin,
		"-addr", addr, "-store", storeDir, "-workers", "2", "-drain-timeout", "5s")
	cmd.Env = append(os.Environ(), "TASKPOINT_FAULTS="+faults)
	if os.Getenv("TASKPOINT_CHAOS_VERBOSE") == "1" {
		cmd.Stderr = os.Stderr
	} else {
		cmd.Stderr = io.Discard
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return &daemon{cmd: cmd}
}

// kill SIGKILLs the daemon — the unclean death the harness is about —
// and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck
	d.cmd.Wait()         //nolint:errcheck
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

func submitSpec(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var sum wireSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum.ID
}

// fingerprint reduces a record to its deterministic fields. Wall-clock
// fields are excluded: recomputing a quarantined cell legitimately
// changes them, while these must never change.
func fingerprint(r *wireRecord) string {
	return fmt.Sprintf("%.9g|%.9g|%.9g", r.ErrPct, r.SampledCycles, r.DetailedCycles)
}

// checkEvents folds a batch of observed events into the cross-process
// consistency map: a cell whose record fingerprint differs from any
// earlier sighting is the never-wrong invariant broken.
func checkEvents(t *testing.T, evs []wireEvent, seen map[string]string) {
	t.Helper()
	for _, ev := range evs {
		if ev.Type != "cell.done" || ev.Record == nil {
			continue
		}
		fp := fingerprint(ev.Record)
		if prev, ok := seen[ev.Cell]; ok && prev != fp {
			t.Fatalf("never-wrong violated: cell %s seen as %s, now %s (source %s)", ev.Cell, prev, fp, ev.Source)
		}
		seen[ev.Cell] = fp
	}
}

// partialEvents reads the campaign's event stream for at most budget,
// returning whatever events arrived — the live view a subscriber had
// right before the process dies.
func partialEvents(t *testing.T, base, id string, budget time.Duration) []wireEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil // server mid-death is fine here
	}
	defer resp.Body.Close()
	var evs []wireEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev wireEvent
		if err := dec.Decode(&ev); err != nil {
			return evs // timeout, cut connection, or clean EOF
		}
		evs = append(evs, ev)
	}
}

// streamToDone tails the stream until the campaign.done event, folding
// every sighting into the consistency map.
func streamToDone(t *testing.T, base, id string, seen map[string]string) wireEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev wireEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream for %s ended before campaign.done: %v", id, err)
		}
		checkEvents(t, []wireEvent{ev}, seen)
		if ev.Type == "campaign.done" {
			return ev
		}
	}
}

func counters(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// TestChaosKillRestart is the harness proper: N SIGKILL/restart cycles
// under injected store faults (errors, torn writes, partial reads), then
// a clean finish and a resubmission proving nothing was silently lost
// and nothing intact runs twice.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	cycles := 10
	if s := os.Getenv("TASKPOINT_CHAOS_CYCLES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			cycles = n
		}
	}
	dir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr
	spec := chaosSpec(5) // 20 cells
	faults := "seed=7,store.err=0.15,store.torn=0.2,store.partial=0.1,store.latency=20ms"
	seen := map[string]string{}

	d := startDaemon(t, dir, addr, faults)
	defer func() { d.kill() }()
	waitHealthy(t, base)
	id := submitSpec(t, base, spec)

	for cycle := 1; cycle <= cycles; cycle++ {
		time.Sleep(400 * time.Millisecond)
		checkEvents(t, partialEvents(t, base, id, 300*time.Millisecond), seen)
		d.kill()
		// Restart with the same faults; resume() relaunches the campaign
		// from its manifest before the listener comes up.
		d = startDaemon(t, dir, addr, faults)
		waitHealthy(t, base)
		t.Logf("cycle %d/%d: killed and restarted (%d cell sightings so far)", cycle, cycles, len(seen))
	}

	// Clean finish: a fault-free process completes the campaign.
	d.kill()
	d = startDaemon(t, dir, addr, "")
	waitHealthy(t, base)
	done := streamToDone(t, base, id, seen)
	if done.State != "done" || done.Errors != 0 || done.Done != done.Total {
		t.Fatalf("campaign did not survive the chaos: %+v", done)
	}

	// First resubmission: post-chaos durability, and repair. Almost every
	// cell is served from the store. A cell may be recomputed only if the
	// chaos phase lost its entry in a way nothing re-read afterwards: an
	// injected put failure (result served, write surfaced in metrics,
	// never persisted) or a torn write landing after the campaign had
	// already completed. Each recomputed record must match every earlier
	// sighting — checkEvents inside streamToDone enforces never-wrong via
	// `seen` — and recomputing also re-persists the entry.
	id2 := submitSpec(t, base, spec)
	done2 := streamToDone(t, base, id2, seen)
	if done2.Errors != 0 {
		t.Errorf("resubmission had %d cell errors; want 0", done2.Errors)
	}
	if done2.StoreHits*100 < done2.Total*90 {
		t.Errorf("resubmission store hits %d/%d below 90%% — chaos lost results wholesale", done2.StoreHits, done2.Total)
	}
	if done2.Computed > 0 {
		t.Logf("resubmission repaired %d cells lost to injected put failures / late torn writes", done2.Computed)
	}

	// Second resubmission: with the store repaired, exactly-once is
	// exact — every cell is a store hit and nothing is written. The short
	// settle lets the repair's write-behind baseline saves land before
	// the write counter is snapshotted.
	time.Sleep(500 * time.Millisecond)
	pre := counters(t, base)
	id3 := submitSpec(t, base, spec)
	done3 := streamToDone(t, base, id3, seen)
	post := counters(t, base)
	if done3.Errors != 0 || done3.Computed != 0 || done3.StoreHits != done3.Total {
		t.Errorf("resubmission over the repaired store is not exactly-once: %+v", done3)
	}
	if delta := post["store.writes"] - pre["store.writes"]; delta != 0 {
		t.Errorf("resubmission over the repaired store wrote %d new entries; want 0", delta)
	}
	if q := post["store.quarantined"]; q > 0 {
		t.Logf("entries quarantined (and recomputed, never served wrong) this process: %d", q)
	}
}

// TestCrashBeforeDoneEventServesOutcome pins the outcome crash window:
// the completion marker is durable before campaign.done is published, so
// a process crashing between the two leaves a finished campaign. The
// next process lists it as history and answers its event stream with
// campaign.done from the marker — nothing is resumed or run again.
func TestCrashBeforeDoneEventServesOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	dir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr
	spec := chaosSpec(1) // 4 cells

	d := startDaemon(t, dir, addr, "crash=server.outcome")
	waitHealthy(t, base)
	id := submitSpec(t, base, spec)

	// The armed crash point fires when the campaign finishes, after its
	// outcome marker but before its terminal event.
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case <-exited:
		if code := d.cmd.ProcessState.ExitCode(); code != 86 {
			t.Fatalf("daemon exited with code %d, want the crash-point code 86", code)
		}
	case <-time.After(2 * time.Minute):
		d.kill()
		t.Fatal("daemon never hit the crash point")
	}
	if _, err := os.Stat(filepath.Join(dir, "campaigns", id+".json")); err != nil {
		t.Fatalf("manifest lost in the crash: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "campaigns", id+".done.json")); err != nil {
		t.Fatalf("no completion marker before the terminal event: %v", err)
	}

	// Clean restart: the campaign is history, served from its marker.
	d2 := startDaemon(t, dir, addr, "")
	defer d2.kill()
	waitHealthy(t, base)
	done := streamToDone(t, base, id, map[string]string{})
	if done.State != "done" || done.Done != done.Total {
		t.Fatalf("restarted daemon does not serve the recorded outcome: %+v", done)
	}
	c := counters(t, base)
	if n := c["server.cells.computed"] + c["server.cells.store_hits"] + c["server.campaigns.resumed"]; n != 0 {
		t.Errorf("restart re-ran the finished campaign: computed=%d store_hits=%d resumed=%d",
			c["server.cells.computed"], c["server.cells.store_hits"], c["server.campaigns.resumed"])
	}
}
