package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/machine"
)

// spinScenario is a tiny deterministic scenario: a counting loop of
// iters iterations (roughly 3.5 cycles each) with a register check.
func spinScenario(iters int) string {
	return fmt.Sprintf(`workload "spin%d"
mesh 1
generate sp spinloop iters=%d
load sp on node 0
run 1000000
expect reg node=0 cluster=0 reg=1 value=%d
`, iters, iters, iters)
}

// testConfig is a fast-everything server config over a temp spool.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Spool:           t.TempDir(),
		Workers:         2,
		Queue:           64,
		DefaultWall:     30 * time.Second,
		DefaultCycles:   1 << 20,
		CheckpointEvery: 256,
		Retries:         3,
		Backoff:         time.Millisecond,
		BackoffCap:      10 * time.Millisecond,
		Logf:            t.Logf,
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Drain)
	return sv
}

func waitDone(t *testing.T, s *Session) Info {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("session %s did not reach a terminal state (state %s)", s.ID, s.Info().State)
	}
	return s.Info()
}

func TestSubmitAndComplete(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	s, err := sv.Submit("spin.wl", spinScenario(600))
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("state %s, failure %q (%s)", info.State, info.Failure, info.FailureClass)
	}
	if info.Checks != 1 || len(info.Phases) != 1 {
		t.Errorf("checks %d, phases %d; want 1, 1", info.Checks, len(info.Phases))
	}
	if info.TotalCycles < 600 {
		t.Errorf("total cycles %d, want >= 600 (chaos tests rely on this)", info.TotalCycles)
	}
	if info.Digest == "" {
		t.Error("no final-state digest")
	}
	if _, err := os.Stat(ckptPath(sv.cfg.Spool, s.ID)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion: %v", err)
	}
	// The server keeps the finished session but not its compile state:
	// once the worker is done (Drain waits for it), only the results stay.
	sv.Drain()
	if s.sc != nil || s.source != "" {
		t.Error("finished session still holds its compiled scenario and source")
	}
	if again := s.Info(); again.Digest != info.Digest || again.State != StateDone {
		t.Errorf("finished session info changed after release: %+v", again)
	}
}

// digestOf runs a scenario to completion on sv and returns its digest.
func digestOf(t *testing.T, sv *Server, name, src string) Info {
	t.Helper()
	s, err := sv.Submit(name, src)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("%s: state %s, failure %q (%s)", name, info.State, info.Failure, info.FailureClass)
	}
	if info.Digest == "" {
		t.Fatalf("%s: no digest", name)
	}
	return info
}

// TestCrashRecoveryBitIdentical is the chaos recovery proof at unit
// scale: a session with an injected worker panic must complete after
// retry with a final-state digest identical to a chaos-free control run.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	src := spinScenario(600)

	control := mustServer(t, testConfig(t))
	want := digestOf(t, control, "spin.wl", src)

	cfg := testConfig(t)
	cfg.Chaos = &Chaos{Seed: 42, PanicEvery: 1, MaxCycle: 500}
	chaotic := mustServer(t, cfg)
	got := digestOf(t, chaotic, "spin.wl", src)

	if got.Retries == 0 {
		t.Fatal("chaos session completed without retrying — the injected panic never fired")
	}
	if got.FailureClass != FailCrash {
		t.Errorf("failure class %q, want %q", got.FailureClass, FailCrash)
	}
	if got.Digest != want.Digest {
		t.Errorf("recovered digest %s != control %s", got.Digest, want.Digest)
	}
	if got.TotalCycles != want.TotalCycles || got.Checks != want.Checks {
		t.Errorf("recovered run: %d cycles %d checks; control: %d cycles %d checks",
			got.TotalCycles, got.Checks, want.TotalCycles, want.Checks)
	}
}

// TestStallRecoveryBitIdentical injects a wall-clock stall that trips
// the per-attempt deadline; the retry runs clean and must match the
// control digest.
func TestStallRecoveryBitIdentical(t *testing.T) {
	src := spinScenario(600)

	control := mustServer(t, testConfig(t))
	want := digestOf(t, control, "spin.wl", src)

	cfg := testConfig(t)
	cfg.DefaultWall = 300 * time.Millisecond
	cfg.Grace = 5 * time.Second // stalled step returns within grace: clean StallTimeout
	cfg.Chaos = &Chaos{Seed: 7, StallEvery: 1, StallDelay: time.Second, MaxCycle: 500}
	chaotic := mustServer(t, cfg)
	got := digestOf(t, chaotic, "spin.wl", src)

	if got.Retries == 0 {
		t.Fatal("stalled session completed without retrying")
	}
	if got.FailureClass != FailStallTimeout {
		t.Errorf("failure class %q, want %q", got.FailureClass, FailStallTimeout)
	}
	if got.Digest != want.Digest {
		t.Errorf("recovered digest %s != control %s", got.Digest, want.Digest)
	}
}

// TestHangRecovery drives the grace-expired path: the stalled step
// outlives the grace, the machine is abandoned (never Closed), and the
// retry still converges to the control digest.
func TestHangRecovery(t *testing.T) {
	src := spinScenario(600)

	control := mustServer(t, testConfig(t))
	want := digestOf(t, control, "spin.wl", src)

	cfg := testConfig(t)
	cfg.DefaultWall = 100 * time.Millisecond
	cfg.Grace = 50 * time.Millisecond // expires while the probe still sleeps
	cfg.Chaos = &Chaos{Seed: 11, StallEvery: 1, StallDelay: 700 * time.Millisecond, MaxCycle: 500}
	chaotic := mustServer(t, cfg)
	got := digestOf(t, chaotic, "spin.wl", src)

	if got.Retries == 0 {
		t.Fatal("hung session completed without retrying")
	}
	if got.FailureClass != FailStallHang {
		t.Errorf("failure class %q, want %q", got.FailureClass, FailStallHang)
	}
	if got.Digest != want.Digest {
		t.Errorf("recovered digest %s != control %s", got.Digest, want.Digest)
	}
}

// TestNoCrossSessionInterference runs a chaos-doomed session next to
// clean ones: the clean sessions must finish with digests matching their
// chaos-free controls.
func TestNoCrossSessionInterference(t *testing.T) {
	srcs := []string{spinScenario(300), spinScenario(600), spinScenario(900)}

	control := mustServer(t, testConfig(t))
	var want []Info
	for i, src := range srcs {
		want = append(want, digestOf(t, control, fmt.Sprintf("c%d.wl", i), src))
	}

	cfg := testConfig(t)
	cfg.Chaos = &Chaos{Seed: 3, PanicEvery: 2, MaxCycle: 250} // seqs 2, 4 panic
	chaotic := mustServer(t, cfg)
	var sessions []*Session
	for i, src := range srcs {
		s, err := chaotic.Submit(fmt.Sprintf("c%d.wl", i), src)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	crashed := 0
	for i, s := range sessions {
		info := waitDone(t, s)
		if info.State != StateDone {
			t.Fatalf("session %d: %s (%s: %s)", i, info.State, info.FailureClass, info.Failure)
		}
		if info.Retries > 0 {
			crashed++
		}
		if info.Digest != want[i].Digest {
			t.Errorf("session %d digest %s != control %s", i, info.Digest, want[i].Digest)
		}
	}
	if crashed == 0 {
		t.Error("no session was crashed by chaos; interference test proved nothing")
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxNodes = 4
	cfg.MaxCycles = 1 << 20
	cfg.MaxWall = time.Minute
	sv := mustServer(t, cfg)

	reject := func(name, src, code string) {
		t.Helper()
		_, err := sv.Submit(name, src)
		var rej *Rejection
		if err == nil {
			t.Errorf("%s: admitted, want %s rejection", name, code)
			return
		}
		if ok := asRejection(err, &rej); !ok || rej.Code != code {
			t.Errorf("%s: error %v, want code %s", name, err, code)
		}
	}
	reject("parse", "workload \"x\"\nmesh 1\nbogus directive\n", "parse")
	reject("mesh", "workload \"x\"\nmesh 8\ngenerate sp spinloop iters=4\nload sp on node 0\nrun 100\n", "over-cap")
	reject("budget", "workload \"x\"\nmesh 1\nbudget 99999999999\ngenerate sp spinloop iters=4\nload sp on node 0\nrun 100\n", "over-cap")
	reject("deadline", "workload \"x\"\nmesh 1\ndeadline 50m\ngenerate sp spinloop iters=4\nload sp on node 0\nrun 100\n", "over-cap")
}

func asRejection(err error, out **Rejection) bool {
	r, ok := err.(*Rejection)
	if ok {
		*out = r
	}
	return ok
}

func TestQueueSheds(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.Queue = 1
	// Make the one worker slow so submissions pile up.
	src := spinScenario(50000)
	sv := mustServer(t, cfg)
	var rejected bool
	for i := 0; i < 20; i++ {
		_, err := sv.Submit(fmt.Sprintf("q%d.wl", i), src)
		var rej *Rejection
		if asRejection(err, &rej) {
			if rej.Code != "busy" {
				t.Fatalf("rejection %v, want busy", err)
			}
			if rej.RetryAfter <= 0 {
				t.Error("busy rejection without a Retry-After hint")
			}
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		t.Error("20 submissions into a 1-deep queue never shed load")
	}
	if sv.Stats().Shed == 0 {
		t.Error("shed counter not bumped")
	}
}

func TestCancel(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	s, err := sv.Submit("spin.wl", spinScenario(200000))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel() {
		t.Fatal("cancel rejected")
	}
	info := waitDone(t, s)
	if info.State != StateCanceled {
		t.Fatalf("state %s, want canceled", info.State)
	}
	if _, err := os.Stat(ckptPath(sv.cfg.Spool, s.ID)); !os.IsNotExist(err) {
		t.Error("canceled session left its checkpoint in the spool")
	}
	if s.Cancel() {
		t.Error("cancel of a terminal session accepted")
	}
}

// TestDrainSuspendsAndReAdopts is the drain/restart contract: drain
// checkpoints in-flight sessions as suspended, a new server over the
// same spool re-adopts them, and the resumed result is bit-identical to
// an uninterrupted run.
func TestDrainSuspendsAndReAdopts(t *testing.T) {
	src := spinScenario(20000)

	control := mustServer(t, testConfig(t))
	want := digestOf(t, control, "spin.wl", src)

	cfg := testConfig(t)
	cfg.Workers = 1
	sv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sv1.Submit("spin.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	// Give the session time to advance past at least one checkpoint, then
	// drain mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for len(s1.Info().Phases) == 0 && s1.Info().State != StateDone && time.Now().Before(deadline) {
		if ck, err := readCheckpoint(ckptPath(cfg.Spool, s1.ID)); err == nil && len(ck.Machine) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sv1.Drain()
	info := s1.Info()
	if info.State == StateDone {
		t.Skip("session finished before the drain landed; nothing to suspend")
	}
	if info.State != StateSuspended {
		t.Fatalf("after drain: state %s, want suspended", info.State)
	}
	ck, err := readCheckpoint(ckptPath(cfg.Spool, s1.ID))
	if err != nil {
		t.Fatalf("suspended session has no readable checkpoint: %v", err)
	}
	if ck.ID != s1.ID {
		t.Fatalf("checkpoint identity %s, want %s", ck.ID, s1.ID)
	}

	// Refusal while draining.
	if _, err := sv1.Submit("late.wl", src); err == nil {
		t.Error("submission accepted while draining")
	}

	// Boot a second server over the same spool: the session must be
	// re-adopted and run to a bit-identical completion.
	sv2 := mustServer(t, cfg)
	if sv2.Stats().Adopted != 1 {
		t.Fatalf("adopted %d sessions, want 1", sv2.Stats().Adopted)
	}
	s2, ok := sv2.Get(s1.ID)
	if !ok {
		t.Fatalf("re-adopted session %s not found", s1.ID)
	}
	got := waitDone(t, s2)
	if got.State != StateDone {
		t.Fatalf("resumed session: %s (%s: %s)", got.State, got.FailureClass, got.Failure)
	}
	if got.Digest != want.Digest {
		t.Errorf("resumed digest %s != control %s", got.Digest, want.Digest)
	}
	if got.TotalCycles != want.TotalCycles {
		t.Errorf("resumed cycles %d != control %d", got.TotalCycles, want.TotalCycles)
	}
}

func TestBudgetExhaustionPermanent(t *testing.T) {
	cfg := testConfig(t)
	sv := mustServer(t, cfg)
	src := "workload \"over\"\nmesh 1\nbudget 100\ngenerate sp spinloop iters=100000\nload sp on node 0\nrun 900000\n"
	s, err := sv.Submit("over.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateFailed || info.FailureClass != FailBudget {
		t.Fatalf("state %s class %s, want failed/%s (failure %q)",
			info.State, info.FailureClass, FailBudget, info.Failure)
	}
	if info.Retries != 0 {
		t.Errorf("budget exhaustion was retried %d times; it is permanent", info.Retries)
	}
}

func TestScenarioFailurePermanent(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	src := "workload \"bad\"\nmesh 1\ngenerate sp spinloop iters=10\nload sp on node 0\nrun 100000\nexpect reg node=0 cluster=0 reg=1 value=11\n"
	s, err := sv.Submit("bad.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateFailed || info.FailureClass != FailScenario {
		t.Fatalf("state %s class %s, want failed/%s", info.State, info.FailureClass, FailScenario)
	}
	if !strings.Contains(info.Failure, "expect reg") {
		t.Errorf("failure %q does not name the failing expectation", info.Failure)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := ckptPath(dir, "s000042")
	want := &checkpoint{
		ID: "s000042", Name: "x.wl", Source: "workload \"x\"\nmesh 1\n",
		WallNanos: int64(time.Minute), CycleBudget: 123456, Retries: 2,
		NextStep: 3, PhaseRan: 777, Checks: 4,
		Phases:  []core.PhaseResult{{Name: "a", Cycles: 10}, {Name: "b", Cycles: 20}},
		Machine: []byte{1, 2, 3, 4, 5},
	}
	if err := writeCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Name != want.Name || got.Source != want.Source ||
		got.WallNanos != want.WallNanos || got.CycleBudget != want.CycleBudget ||
		got.Retries != want.Retries || got.NextStep != want.NextStep ||
		got.PhaseRan != want.PhaseRan || got.Checks != want.Checks ||
		len(got.Phases) != len(want.Phases) || !bytes.Equal(got.Machine, want.Machine) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Corruption is an error, not a panic or a half-read.
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-3], 0o644)
	if _, err := readCheckpoint(path); err == nil {
		t.Error("truncated checkpoint decoded without error")
	}
	os.WriteFile(path, []byte("not a checkpoint at all"), 0o644)
	if _, err := readCheckpoint(path); err == nil {
		t.Error("garbage checkpoint decoded without error")
	}
}

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("seed=9,panic=3,stall=5,delay=1500ms,maxcycle=2000")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 9 || c.PanicEvery != 3 || c.StallEvery != 5 ||
		c.StallDelay != 1500*time.Millisecond || c.MaxCycle != 2000 {
		t.Fatalf("parsed %+v", c)
	}
	for _, bad := range []string{"panic", "panic=x", "wibble=1", "maxcycle=0"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
	// Determinism: same seq, same fault.
	p1, d1 := c.probe(3, 4)
	p2, d2 := c.probe(3, 4)
	if (p1 == nil) != (p2 == nil) || d1 != d2 {
		t.Errorf("probe derivation not deterministic: %q vs %q", d1, d2)
	}
	if _, d := c.probe(15, 4); !strings.Contains(d, "panic") {
		t.Errorf("seq 15 (both panic and stall multiples): %q, want panic-wins", d)
	}
}

// --- HTTP API ---

func TestHTTPAPI(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Submit via JSON.
	body, _ := json.Marshal(submitRequest{Name: "spin.wl", Source: spinScenario(600)})
	resp, err = http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || info.ID == "" {
		t.Fatalf("submit: %d, %+v", resp.StatusCode, info)
	}

	// Wait for completion.
	resp, err = http.Get(ts.URL + "/api/v1/sessions/" + info.ID + "/wait")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.State != StateDone || info.Digest == "" {
		t.Fatalf("wait: %+v", info)
	}

	// Stream of a finished session: replay ends with an "end" event.
	resp, err = http.Get(ts.URL + "/api/v1/sessions/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var events []streamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev streamEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		events = append(events, ev)
	}
	resp.Body.Close()
	if len(events) == 0 || events[len(events)-1].Event != "end" {
		t.Fatalf("stream events: %+v", events)
	}

	// Raw text submission.
	resp, err = http.Post(ts.URL+"/api/v1/sessions?name=raw.wl", "text/plain",
		strings.NewReader(spinScenario(300)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("raw submit: %d", resp.StatusCode)
	}

	// Parse errors are 400 with a positional message.
	resp, err = http.Post(ts.URL+"/api/v1/sessions", "text/plain", strings.NewReader("mesh mesh mesh"))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || apiErr.Code != "parse" {
		t.Fatalf("bad scenario: %d %+v", resp.StatusCode, apiErr)
	}

	// List includes both sessions.
	resp, err = http.Get(ts.URL + "/api/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []Info
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("list: %d sessions, want 2", len(list))
	}

	// 404.
	resp, err = http.Get(ts.URL + "/api/v1/sessions/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session: %d", resp.StatusCode)
	}

	// Stats counted the work.
	resp, err = http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Submitted != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHTTPCancelAndDrainStatus(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(submitRequest{Name: "spin.wl", Source: spinScenario(200000)})
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	s, _ := sv.Get(info.ID)
	if got := waitDone(t, s); got.State != StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}

	// Second cancel conflicts.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: %d, want 409", resp.StatusCode)
	}

	// Drain flips health and refuses submissions with 503.
	sv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestSpoolQuarantine is the corrupt-spool regression test: a boot over
// a spool holding truncated, garbage, and wrongly-identified .ckpt files
// must quarantine each (rename to .bad, never delete — forensic
// evidence), count them, and still adopt and finish the healthy session.
func TestSpoolQuarantine(t *testing.T) {
	cfg := testConfig(t)
	src := spinScenario(100)

	good := &checkpoint{ID: "s000001", Name: "spin.wl", Source: src,
		WallNanos: int64(30 * time.Second), CycleBudget: 1 << 20}
	if err := writeCheckpoint(ckptPath(cfg.Spool, good.ID), good); err != nil {
		t.Fatal(err)
	}
	// Torn write: a valid checkpoint cut short mid-payload.
	var buf bytes.Buffer
	if err := writeCheckpoint(ckptPath(cfg.Spool, "s000002"), good); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(ckptPath(cfg.Spool, "s000002"))
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(whole[:20])
	if err := os.WriteFile(ckptPath(cfg.Spool, "s000002"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Garbage that is not a checkpoint at all.
	if err := os.WriteFile(ckptPath(cfg.Spool, "s000003"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A checkpoint whose internal identity disagrees with its file name.
	bad := *good
	bad.ID = "s000099"
	if err := writeCheckpoint(ckptPath(cfg.Spool, "s000004"), &bad); err != nil {
		t.Fatal(err)
	}

	sv := mustServer(t, cfg)
	st := sv.Stats()
	if st.Adopted != 1 || st.Quarantined != 3 {
		t.Fatalf("adopted %d quarantined %d, want 1 and 3", st.Adopted, st.Quarantined)
	}
	for _, id := range []string{"s000002", "s000003", "s000004"} {
		if _, err := os.Stat(ckptPath(cfg.Spool, id)); !os.IsNotExist(err) {
			t.Errorf("%s.ckpt still in the spool after quarantine", id)
		}
		if _, err := os.Stat(ckptPath(cfg.Spool, id) + ".bad"); err != nil {
			t.Errorf("%s.ckpt.bad missing: %v", id, err)
		}
	}
	s, ok := sv.Get("s000001")
	if !ok {
		t.Fatal("healthy session not adopted")
	}
	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("adopted session: %s (%s: %s)", info.State, info.FailureClass, info.Failure)
	}
}

// TestRetryObservability checks the recovery bookkeeping a crashed-then-
// recovered session exposes: attempt count, live backoff while retrying,
// the sticky last failure class, and the server's aggregate recovery
// counters.
func TestRetryObservability(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.Backoff = 300 * time.Millisecond
	cfg.BackoffCap = 2 * time.Second
	cfg.Chaos = &Chaos{Seed: 42, PanicEvery: 1, MaxCycle: 500}
	sv := mustServer(t, cfg)

	s, err := sv.Submit("spin.wl", spinScenario(600))
	if err != nil {
		t.Fatal(err)
	}
	// Catch the session inside its first backoff window: state retrying
	// with a human-readable backoff duration.
	sawBackoff := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info := s.Info()
		if info.State == StateRetrying && info.Backoff != "" {
			sawBackoff = true
			break
		}
		if info.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawBackoff {
		t.Error("never observed state=retrying with a backoff value")
	}

	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("state %s (%s: %s)", info.State, info.FailureClass, info.Failure)
	}
	if info.Retries < 1 || info.Attempts < 2 {
		t.Errorf("retries %d attempts %d, want >= 1 and >= 2", info.Retries, info.Attempts)
	}
	if info.Attempts != info.Retries+1 {
		t.Errorf("attempts %d != retries %d + 1", info.Attempts, info.Retries)
	}
	if info.Backoff != "" {
		t.Errorf("backoff %q still set on a done session", info.Backoff)
	}
	if info.FailureClass != FailCrash {
		t.Errorf("last failure class %q, want %q (sticky after recovery)", info.FailureClass, FailCrash)
	}

	st := sv.Stats()
	if st.Retries < 1 || st.Recovered < 1 {
		t.Errorf("stats retries %d recovered %d, want >= 1 each", st.Retries, st.Recovered)
	}
	if st.Restores < 1 {
		t.Errorf("stats restores %d, want >= 1 (retry resumed from a boundary checkpoint)", st.Restores)
	}
}

// getJSON decodes the JSON body of a GET on the test server.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAgreeAfterWait: the moment /wait reports a session settled,
// /stats already counts it, for every settled state. A state published
// before its counter would let a client observe a finished session that
// the server does not yet account for.
func TestStatsAgreeAfterWait(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func(*Config)
		src   string
		act   func(sv *Server, ts *httptest.Server, s *Session)
		state State
		count func(Stats) uint64
	}{
		{
			name:  "done",
			src:   spinScenario(600),
			state: StateDone,
			count: func(st Stats) uint64 { return st.Done },
		},
		{
			// The first attempt crashes and no retry is allowed.
			name: "failed",
			cfg: func(c *Config) {
				c.Retries = -1
				c.Chaos = &Chaos{Seed: 42, PanicEvery: 1, MaxCycle: 500}
			},
			src:   spinScenario(600),
			state: StateFailed,
			count: func(st Stats) uint64 { return st.Failed },
		},
		{
			name: "canceled",
			src:  spinScenario(200000),
			act: func(_ *Server, ts *httptest.Server, s *Session) {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+s.ID, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			},
			state: StateCanceled,
			count: func(st Stats) uint64 { return st.Canceled },
		},
		{
			// The drain runs concurrently with /wait, so /wait returns on
			// the suspension itself rather than after Drain has finished.
			name: "suspended",
			src:  spinScenario(200000),
			act: func(sv *Server, _ *httptest.Server, _ *Session) {
				go sv.Drain()
			},
			state: StateSuspended,
			count: func(st Stats) uint64 { return st.Suspended },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Workers = 1
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			sv := mustServer(t, cfg)
			ts := httptest.NewServer(sv.Handler())
			defer ts.Close()
			s, err := sv.Submit("spin.wl", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if tc.act != nil {
				tc.act(sv, ts, s)
			}
			var info Info
			getJSON(t, ts.URL+"/api/v1/sessions/"+s.ID+"/wait?timeout=30s", &info)
			var st Stats
			getJSON(t, ts.URL+"/api/v1/stats", &st)
			if info.State != tc.state {
				t.Fatalf("state %s (%s: %s), want %s", info.State, info.FailureClass, info.Failure, tc.state)
			}
			if got := tc.count(st); got != 1 {
				t.Errorf("/stats counts %d %s sessions right after /wait, want 1 (%+v)", got, tc.state, st)
			}
			if st.Running != 0 {
				t.Errorf("/stats reports %d running after the only session settled", st.Running)
			}
		})
	}
}

// midRunCheckpoint runs src the way a session attempt does — supervised
// slices of cfg.CheckpointEvery cycles — for the given number of slices,
// and returns the boundary checkpoint the server would spool there.
func midRunCheckpoint(t *testing.T, cfg Config, id, src string, slices int) *checkpoint {
	t.Helper()
	sc, err := core.ScenarioFromDSL("spin.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sc.NewSim(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.M.Close()
	run := sc.NewRun(sim)
	for n := 0; n < slices; {
		if run.Done() {
			t.Fatalf("scenario finished after %d of %d slices", n, slices)
		}
		sup := guard.New(sim.M, guard.Options{})
		var ran bool
		if err := sup.Do(func() (e error) {
			ran, e = run.Advance(sup, cfg.CheckpointEvery)
			return e
		}); err != nil {
			t.Fatal(err)
		}
		if ran {
			n++
		}
	}
	var m bytes.Buffer
	if err := sim.M.Save(&m); err != nil {
		t.Fatal(err)
	}
	step, phaseRan := run.Pos()
	return &checkpoint{ID: id, Name: "spin.wl", Source: src,
		WallNanos: int64(30 * time.Second), CycleBudget: cfg.DefaultCycles,
		NextStep: step, PhaseRan: phaseRan,
		Checks: run.Checks(), Phases: run.Phases(), Machine: m.Bytes()}
}

// TestSpoolOldSnapshotVersion pins why bumping the machine snapshot
// version is safe for on-disk spools: a boundary checkpoint whose machine
// stream carries an older version fails Restore with the version error,
// and the existing fallback restarts the session from scratch — the same
// deterministic execution, so it still finishes on the control digest,
// with no restore counted. The same checkpoint at the current version
// resumes, which shows the fallback is the version's doing.
func TestSpoolOldSnapshotVersion(t *testing.T) {
	src := spinScenario(20000)
	want := digestOf(t, mustServer(t, testConfig(t)), "spin.wl", src)

	for _, c := range []struct {
		name     string
		version  uint64
		restores uint64
	}{
		{"current", machine.SnapshotVersion, 1},
		{"v1", 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(t)
			ck := midRunCheckpoint(t, cfg, "s000001", src, 3)
			binary.LittleEndian.PutUint64(ck.Machine[8:], c.version)
			if err := writeCheckpoint(ckptPath(cfg.Spool, ck.ID), ck); err != nil {
				t.Fatal(err)
			}
			sv := mustServer(t, cfg)
			if got := sv.Stats().Adopted; got != 1 {
				t.Fatalf("adopted %d sessions, want 1", got)
			}
			s, ok := sv.Get(ck.ID)
			if !ok {
				t.Fatalf("session %s not adopted", ck.ID)
			}
			got := waitDone(t, s)
			if got.State != StateDone {
				t.Fatalf("adopted session: %s (%s: %s)", got.State, got.FailureClass, got.Failure)
			}
			if got.Digest != want.Digest || got.TotalCycles != want.TotalCycles {
				t.Errorf("adopted session ended on digest %s after %d cycles, control %s after %d",
					got.Digest, got.TotalCycles, want.Digest, want.TotalCycles)
			}
			if st := sv.Stats(); st.Restores != c.restores {
				t.Errorf("restores %d, want %d", st.Restores, c.restores)
			}
		})
	}
}

// TestSessionRecordsNoTrace runs a message-passing scenario as a session:
// its digest and cycles must equal a traced in-process run's, and the
// attempt's machine, booted fresh or restored from a mid-run checkpoint,
// must record no trace events, since nothing reads them.
func TestSessionRecordsNoTrace(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "workloads", "ringreduce.wl"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(b)
	sc, err := core.ScenarioFromDSL("ringreduce.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	ref, traced, err := sc.RunSim(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Recorder.Events) == 0 {
		t.Fatal("the traced reference run recorded no events")
	}

	cfg := testConfig(t)
	sv := mustServer(t, cfg)
	s, err := sv.Submit("ringreduce.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("state %s, failure %q", info.State, info.Failure)
	}
	if info.Digest != ref.Digest || info.TotalCycles != ref.TotalCycles {
		t.Errorf("session digest %s cycles %d, traced run %s cycles %d",
			info.Digest, info.TotalCycles, ref.Digest, ref.TotalCycles)
	}

	// A settled session has dropped its scenario; boot a stand-in.
	attempt := &Session{ID: s.ID, sc: sc}
	for _, ck := range []*checkpoint{{ID: s.ID}, midRunCheckpoint(t, cfg, s.ID, src, 1)} {
		sim, run, resumed, err := sv.boot(attempt, ck)
		if err != nil {
			t.Fatal(err)
		}
		if resumed != (len(ck.Machine) > 0) {
			t.Errorf("boot resumed=%v from a checkpoint with %d machine bytes", resumed, len(ck.Machine))
		}
		for !run.Done() {
			sup := guard.New(sim.M, guard.Options{})
			if err := sup.Do(func() error { _, e := run.Advance(sup, 0); return e }); err != nil {
				t.Fatal(err)
			}
		}
		digest, err := machine.Digest(sim.M)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sim.Recorder.Events); n != 0 {
			t.Errorf("resumed=%v: session machine recorded %d trace events, want 0", resumed, n)
		}
		if digest != ref.Digest {
			t.Errorf("resumed=%v: digest %s, traced run %s", resumed, digest, ref.Digest)
		}
		sim.M.Close()
	}
}
