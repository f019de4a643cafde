package fault

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"taskpoint/internal/sim"
	"taskpoint/internal/store"
	"taskpoint/internal/sweep"
)

func TestParseGrammar(t *testing.T) {
	spec, err := Parse("seed=7, store.err=0.25, store.latency=5ms, store.torn=0.1, store.partial=0.05, http.err=0.5, http.latency=10ms, cell.panic=0.01, cell.err=0.02, crash=server.outcome, crash=other:0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Seed: 7, StoreErr: 0.25, StoreLatency: 5 * time.Millisecond,
		TornWrite: 0.1, PartialRead: 0.05,
		HTTPErr: 0.5, HTTPLatency: 10 * time.Millisecond,
		CellPanic: 0.01, CellErr: 0.02,
		Crashes: map[string]float64{"server.outcome": 1, "other": 0.5},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	// Canonical String round-trips through Parse.
	again, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if again.String() != spec.String() {
		t.Fatalf("round trip drifted: %q vs %q", again.String(), spec.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ in, wantSub string }{
		{"bogus=1", "unknown key"},
		{"store.err", "not key=value"},
		{"store.err=1.5", "outside [0, 1]"},
		{"store.err=-0.1", "outside [0, 1]"},
		{"store.err=NaN", "outside [0, 1]"},
		{"store.latency=-5ms", "negative latency"},
		{"store.latency=abc", "invalid duration"},
		{"seed=abc", "invalid syntax"},
		{"crash=", "empty crash point"},
		{"crash=p:2", "outside [0, 1]"},
	} {
		_, err := Parse(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q): error %v, want containing %q", tc.in, err, tc.wantSub)
		}
	}
	if spec, err := Parse(""); err != nil || !spec.inert() {
		t.Errorf("empty spec: %+v, %v", spec, err)
	}
}

// TestDeterministicSchedule: same seed → identical decision sequence at
// every site; different seed → a different one.
func TestDeterministicSchedule(t *testing.T) {
	draw := func(seed uint64) []bool {
		inj := NewInjector(Spec{Seed: seed, StoreErr: 0.5, CellErr: 0.5})
		var seq []bool
		for k := 0; k < 64; k++ {
			seq = append(seq, inj.StoreOp("report.load") != nil)
			seq = append(seq, inj.CellFault("cell") != nil)
		}
		return seq
	}
	a, b, c := draw(1), draw(1), draw(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestProbabilityEndpoints(t *testing.T) {
	never := NewInjector(Spec{Seed: 1}) // all probabilities zero
	always := NewInjector(Spec{Seed: 1, StoreErr: 1, PartialRead: 1, CellErr: 1})
	for k := 0; k < 32; k++ {
		if err := never.StoreOp("x"); err != nil {
			t.Fatal("p=0 fired")
		}
		if err := always.StoreOp("x"); !errors.Is(err, ErrInjected) {
			t.Fatalf("p=1 did not fire: %v", err)
		}
		if err := always.CellFault("k"); !errors.Is(err, ErrInjected) {
			t.Fatalf("cell p=1 did not fire: %v", err)
		}
	}
	// A nil injector is fully inert.
	var nilInj *Injector
	if nilInj.Enabled() || nilInj.StoreFaultsEnabled() || nilInj.HTTPFaultsEnabled() || nilInj.CellFaultsEnabled() {
		t.Fatal("nil injector reports enabled")
	}
	if err := nilInj.StoreOp("x"); err != nil {
		t.Fatal(err)
	}
	if err := nilInj.CellFault("k"); err != nil {
		t.Fatal(err)
	}
	nilInj.Crash("anywhere")
}

func TestCellPanicInjection(t *testing.T) {
	inj := NewInjector(Spec{Seed: 3, CellPanic: 1})
	defer func() {
		if v := recover(); v == nil || !strings.Contains(v.(string), "injected panic in cell k") {
			t.Fatalf("recovered %v", v)
		}
	}()
	inj.CellFault("k") //nolint:errcheck // panics
	t.Fatal("no panic")
}

func TestCrashPoint(t *testing.T) {
	var exited []int
	osExit = func(code int) { exited = append(exited, code) }
	defer func() { osExit = osExitReal }()

	inj := NewInjector(Spec{Seed: 1, Crashes: map[string]float64{"armed": 1}})
	inj.Crash("not-armed")
	if len(exited) != 0 {
		t.Fatal("unarmed crash point fired")
	}
	inj.Crash("armed")
	if len(exited) != 1 || exited[0] != CrashExitCode {
		t.Fatalf("armed crash point: exits %v", exited)
	}
}

var osExitReal = osExit

// TestFaultyStoreErrorsAndTornWrites: err=1 fails every op; a torn write
// leaves an entry the disk store quarantines into a miss — never a wrong
// result.
func TestFaultyStoreErrorsAndTornWrites(t *testing.T) {
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.Repeat("ab", 32)

	failing := WrapDisk(disk, NewInjector(Spec{Seed: 1, StoreErr: 1}))
	if _, err := failing.Report(addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if err := failing.PutReport(addr, &sweep.Record{Key: "k"}); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected put error, got %v", err)
	}

	tearing := WrapDisk(disk, NewInjector(Spec{Seed: 1, TornWrite: 1}))
	if err := tearing.PutReport(addr, &sweep.Record{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.Report(addr); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("torn entry must read as a miss, got %v", err)
	}
	if got := disk.Stats().Quarantined; got != 1 {
		t.Fatalf("want 1 quarantined entry, got %d", got)
	}

	// With faults quiet the wrapper is the identity.
	if s := WrapDisk(disk, nil); s != store.Store(disk) {
		t.Fatal("nil injector should not wrap")
	}
}

func TestFaultyStorePartialRead(t *testing.T) {
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.Repeat("cd", 32)
	if err := disk.PutBaseline(addr, &sim.Result{Cycles: 42}); err != nil {
		t.Fatal(err)
	}
	torn := WrapDisk(disk, NewInjector(Spec{Seed: 1, PartialRead: 1}))
	if _, err := torn.Baseline(addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected partial read, got %v", err)
	}
	// The entry itself is intact: a clean reader still gets it.
	if res, err := disk.Baseline(addr); err != nil || res.Cycles != 42 {
		t.Fatalf("underlying entry damaged: %v, %v", res, err)
	}
}

func TestMiddleware(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) }) //nolint:errcheck
	h := Middleware(NewInjector(Spec{Seed: 1, HTTPErr: 1}), next)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") == "" {
		t.Fatalf("want injected 503 with Retry-After, got %d", rr.Code)
	}
	if quiet := Middleware(nil, next); quiet == nil {
		t.Fatal("nil injector middleware")
	} else {
		rr := httptest.NewRecorder()
		quiet.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("quiet middleware altered response: %d", rr.Code)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	if inj, err := FromEnv(); err != nil || inj != nil {
		t.Fatalf("empty env: %v, %v", inj, err)
	}
	t.Setenv(EnvVar, "store.err=0.5,seed=9")
	inj, err := FromEnv()
	if err != nil || !inj.Enabled() || inj.Spec().Seed != 9 {
		t.Fatalf("env injector: %+v, %v", inj, err)
	}
	t.Setenv(EnvVar, "nope=1")
	if _, err := FromEnv(); err == nil {
		t.Fatal("bad env spec accepted")
	}
}
