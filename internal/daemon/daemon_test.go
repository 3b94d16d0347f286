package daemon

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rts"
)

func newTestDaemon(t *testing.T, mutate func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Resource:       "supermic",
		Cores:          8,
		Walltime:       72 * time.Hour,
		TimeScale:      time.Microsecond,
		Model:          rts.FastModel(),
		ReconcileEvery: 10 * time.Millisecond,
		RunRetention:   time.Minute,
		Seed:           7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// testApp builds an appjson document with nPipes pipelines of nTasks tasks
// each. Identical calls produce identical pipeline/stage/task names and
// therefore identical structural UIDs and queue basenames across runs — the
// overlap the daemon's queue namespacing must keep apart.
func testApp(cores, nPipes, nTasks int, durMS int) []byte {
	doc := fmt.Sprintf(`{"resource":{"name":"supermic","cores":%d,"walltime_s":3600},"pipelines":[`, cores)
	for p := 0; p < nPipes; p++ {
		if p > 0 {
			doc += ","
		}
		doc += fmt.Sprintf(`{"name":"p%d","stages":[{"name":"s0","tasks":[{"name":"t","executable":"sleep","duration_s":%g,"cores":1,"copies":%d}]}]}`,
			p, float64(durMS)/1000, nTasks)
	}
	return []byte(doc + "]}")
}

func waitState(t *testing.T, d *Daemon, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := d.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	info, _ := d.Info(id)
	t.Fatalf("run %s never reached %s (state %s, err %q)", id, want, info.State, info.Err)
}

// holdTask is a task duration (virtual ms, ~50 ms of wall time at the test
// time scale) long enough that a blocker run's tasks are still in flight
// when the test has queued the runs it measures behind it.
const holdTask = 50_000_000

// Two concurrent runs with byte-identical applications — same structural
// UIDs, same queue basenames — must not leak messages or events across each
// other, and must finish independently.
func TestDaemonMultiRunIsolation(t *testing.T) {
	d := newTestDaemon(t, nil)
	const tasks = 12
	// A blocker claims the whole pilot, so both runs queue. A subscription
	// to a queued run attaches before its AppManager starts and sees every
	// event, however fast the run then finishes.
	blocker, err := d.Submit("carol", false, testApp(8, 1, 1, holdTask))
	if err != nil {
		t.Fatal(err)
	}
	idA, err := d.Submit("alice", false, testApp(4, 1, tasks, 5))
	if err != nil {
		t.Fatal(err)
	}
	idB, err := d.Submit("bob", false, testApp(4, 1, tasks, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, idA, StateQueued)
	waitState(t, d, idB, StateQueued)
	subA, err := d.Subscribe(idA, core.EventFilter{Kinds: []core.EventKind{core.EventTask}})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := d.Subscribe(idB, core.EventFilter{Kinds: []core.EventKind{core.EventTask}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel(blocker, "admit the measured runs"); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), idA); err != nil {
		t.Fatalf("run A: %v", err)
	}
	if err := d.Wait(context.Background(), idB); err != nil {
		t.Fatalf("run B: %v", err)
	}
	count := func(sub *core.EventSub) int {
		done := 0
		for ev := range sub.C() {
			if ev.To == "DONE" {
				done++
			}
		}
		return done
	}
	// Each run must observe exactly its own task completions: a leaked
	// message would either double-complete one run or starve the other.
	if got := count(subA); got != tasks {
		t.Fatalf("run A saw %d task completions, want %d", got, tasks)
	}
	if got := count(subB); got != tasks {
		t.Fatalf("run B saw %d task completions, want %d", got, tasks)
	}
	if leaked := d.LeakedLeases(); leaked != 0 {
		t.Fatalf("leaked leases: %d", leaked)
	}
	if claimed := d.PoolClaimed(); claimed != 0 {
		t.Fatalf("claimed cores after both runs: %d", claimed)
	}
}

// waitDispatched polls the pool until a tenant has had n tasks dispatched.
func waitDispatched(t *testing.T, d *Daemon, tenant string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, ts := range d.TenantSnapshot() {
			if ts.Tenant == tenant && ts.Dispatched >= n {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tenant %s never reached %d dispatches", tenant, n)
}

// waitPipelineState polls a run's snapshot until its named pipeline reports
// the wanted state.
func waitPipelineState(t *testing.T, d *Daemon, id, pipeUID, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		prog, err := d.Snapshot(id)
		if err == nil {
			for _, p := range prog.PerPipeline {
				if p.UID == pipeUID && p.State == want {
					return
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %s pipeline %s never reached %s", id, pipeUID, want)
}

// Pause, Resume and Cancel act on exactly one run: the sibling run with the
// same entity UIDs keeps executing to DONE.
func TestDaemonIndependentCancelPause(t *testing.T) {
	d := newTestDaemon(t, nil)
	// A runs long enough (virtual task time, ~80ms wall at this timescale)
	// to be paused mid-flight; B shares the pilot and the same entity UIDs.
	a, err := d.Submit("alice", false, testApp(4, 1, 64, 5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Submit("bob", false, testApp(4, 1, 64, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	waitPipelineState(t, d, a, "pipeline.000", "SCHEDULING")
	if err := d.Pause(a, "pipeline.000"); err != nil {
		t.Fatalf("pause: %v", err)
	}
	waitPipelineState(t, d, a, "pipeline.000", "SUSPENDED")
	// B is untouched by A's pause: it runs to DONE.
	if err := d.Wait(context.Background(), b); err != nil {
		t.Fatalf("sibling run while A paused: %v", err)
	}
	waitState(t, d, b, StateDone)
	if err := d.Resume(a, "pipeline.000"); err != nil {
		t.Fatalf("resume: %v", err)
	}
	waitPipelineState(t, d, a, "pipeline.000", "SCHEDULING")
	if err := d.Cancel(a, "test"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitState(t, d, a, StateCanceled)
	if claimed := d.PoolClaimed(); claimed != 0 {
		t.Fatalf("claimed cores after cancel: %d", claimed)
	}
}

// Admission: a claim larger than the pilot rejects permanently; saturation
// with a full queue rejects; saturation with queue room parks the run in
// QUEUED and admits it when cores free up.
func TestDaemonAdmissionControl(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.AdmissionQueueLen = 1
		cfg.Tenants = map[string]TenantConfig{"capped": {Weight: 1, MaxCores: 2}}
	})
	if _, err := d.Submit("alice", false, testApp(16, 1, 1, 1)); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("oversized claim: want ErrAdmissionRejected, got %v", err)
	}
	if _, err := d.Submit("capped", false, testApp(4, 1, 1, 1)); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("quota claim: want ErrAdmissionRejected, got %v", err)
	}
	// The hog claims the whole pilot and runs long (virtual task time) so
	// the saturation assertions below see a stable picture.
	hog, err := d.Submit("alice", false, testApp(8, 1, 64, 12_000_000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, hog, StateRunning)
	// Pool is saturated: the next submission queues...
	queued, err := d.Submit("bob", false, testApp(4, 1, 4, 5))
	if err != nil {
		t.Fatalf("queue-then-admit submit: %v", err)
	}
	waitState(t, d, queued, StateQueued)
	// ...and with the one queue slot taken, the next is rejected.
	if _, err := d.Submit("carol", false, testApp(4, 1, 1, 1)); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("queue full: want ErrAdmissionRejected, got %v", err)
	}
	// Freeing the hog's cores admits the queued run, which then completes.
	if err := d.Cancel(hog, "make room"); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), queued); err != nil {
		t.Fatalf("queued run after admit: %v", err)
	}
	waitState(t, d, queued, StateDone)
}

// The reconciler prunes terminal runs past retention and the daemon's List
// reflects it; a healthy lifecycle leaks no leases.
func TestDaemonReconcilerPrunesTerminalRuns(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.RunRetention = 30 * time.Millisecond
	})
	id, err := d.Submit("alice", false, testApp(2, 1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(d.List()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("terminal run never pruned: %+v", d.List())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := d.Info(id); err == nil {
		t.Fatal("pruned run still resolvable")
	}
	if leaked := d.LeakedLeases(); leaked != 0 {
		t.Fatalf("leaked leases: %d", leaked)
	}
}

// Weighted fairness survives the full daemon path: two tenants with 3:1
// weights submitting identical backlogged runs see ~3:1 dispatch.
func TestDaemonWeightedFairness(t *testing.T) {
	d := newTestDaemon(t, func(cfg *Config) {
		cfg.Cores = 4
		cfg.OvercommitFactor = 2
		cfg.TraceDispatch = true
		cfg.Tenants = map[string]TenantConfig{
			"heavy": {Weight: 3},
			"light": {Weight: 1},
		}
	})
	// Both runs must be backlogged before the pool dispatches either, or
	// the first one admitted runs alone until the second starts. A
	// blocker's tasks occupy every physical core; heavy is admitted beside
	// it and light queues until the blocker is canceled. Its tasks stay in
	// flight a while longer, and by then both backlogs wait in the pool.
	blocker, err := d.Submit("carol", false, testApp(4, 1, 4, holdTask))
	if err != nil {
		t.Fatal(err)
	}
	waitDispatched(t, d, "carol", 4)
	h, err := d.Submit("heavy", false, testApp(4, 1, 60, 20))
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Submit("light", false, testApp(4, 1, 60, 20))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, l, StateQueued)
	if err := d.Cancel(blocker, "admit the measured runs"); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), l); err != nil {
		t.Fatal(err)
	}
	var heavy, light uint64
	for _, ts := range d.TenantSnapshot() {
		switch ts.Tenant {
		case "heavy":
			heavy = ts.Dispatched
		case "light":
			light = ts.Dispatched
		}
	}
	if heavy != 60 || light != 60 {
		t.Fatalf("dispatch totals heavy=%d light=%d, want 60 each", heavy, light)
	}
	// Measure the ratio over an early window where both tenants still had
	// backlog (the tail degenerates to whichever has tasks left).
	var trace []string
	for _, tn := range d.DispatchTrace() {
		if tn != "carol" {
			trace = append(trace, tn)
		}
	}
	if len(trace) < 40 {
		t.Fatalf("dispatch trace too short: %d", len(trace))
	}
	hc, lc := 0, 0
	for _, tn := range trace[:40] {
		if tn == "heavy" {
			hc++
		} else {
			lc++
		}
	}
	ratio := float64(hc) / float64(lc)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("dispatch ratio %.2f (heavy=%d light=%d), want ~3:1", ratio, hc, lc)
	}
}
