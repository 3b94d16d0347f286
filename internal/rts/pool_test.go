package rts

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func newPoolHarness(t *testing.T, mutate func(*PoolConfig)) *Pool {
	t.Helper()
	clock := vclock.NewScaled(time.Microsecond)
	session := saga.NewSession()
	t.Cleanup(session.Close)
	for _, ci := range hpc.Names() {
		a, err := saga.NewCatalogAdapter(ci, clock)
		if err != nil {
			t.Fatal(err)
		}
		session.Register(a)
	}
	cfg := PoolConfig{
		Base: Config{
			Resource: core.ResourceDesc{Resource: "supermic", Cores: 8, Walltime: 72 * time.Hour},
			Clock:    clock,
			Session:  session,
			Registry: workload.NewRegistry(),
			Model:    FastModel(),
			Seed:     7,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

func drainLease(t *testing.T, l *Lease, n int) []core.TaskResult {
	t.Helper()
	var out []core.TaskResult
	timeout := time.After(30 * time.Second)
	for len(out) < n {
		select {
		case res, ok := <-l.Completions():
			if !ok {
				t.Fatalf("lease %s completions closed after %d of %d", l.RunID(), len(out), n)
			}
			out = append(out, res)
		case <-timeout:
			t.Fatalf("lease %s timed out with %d of %d results", l.RunID(), len(out), n)
		}
	}
	return out
}

// Two leases share one pilot; every completion must come back on the
// submitting lease with its original (unprefixed) UID.
func TestPoolRoutesCompletionsPerLease(t *testing.T) {
	p := newPoolHarness(t, nil)
	a, err := p.Admit(LeaseSpec{RunID: "run-a", Tenant: "alice", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Admit(LeaseSpec{RunID: "run-b", Tenant: "bob", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping UIDs on purpose: routing must rely on the lease prefix.
	var ta, tb []core.TaskDescription
	for i := 0; i < 10; i++ {
		ta = append(ta, sleepTask("t"+string(rune('0'+i)), 10*time.Millisecond, 1))
		tb = append(tb, sleepTask("t"+string(rune('0'+i)), 10*time.Millisecond, 1))
	}
	if err := a.Submit(ta); err != nil {
		t.Fatal(err)
	}
	if err := b.Submit(tb); err != nil {
		t.Fatal(err)
	}
	ra := drainLease(t, a, 10)
	rb := drainLease(t, b, 10)
	for _, res := range append(ra, rb...) {
		if res.ExitCode != 0 {
			t.Fatalf("task %s failed: exit %d", res.UID, res.ExitCode)
		}
		if len(res.UID) != 2 || res.UID[0] != 't' {
			t.Fatalf("routing leaked a prefixed UID: %q", res.UID)
		}
	}
	if got := p.Orphans(); got != 0 {
		t.Fatalf("orphan completions: %d", got)
	}
	a.Stop()
	b.Stop()
	if got := p.Claimed(); got != 0 {
		t.Fatalf("claimed cores after release: %d", got)
	}
	if got := p.LiveLeases(); got != 0 {
		t.Fatalf("live leases after release: %d", got)
	}
}

// Admission: the ledger rejects claims past capacity with ErrPoolSaturated,
// clears after a release, and enforces per-tenant quotas with QuotaError.
func TestPoolAdmissionLedger(t *testing.T) {
	p := newPoolHarness(t, func(cfg *PoolConfig) {
		cfg.Tenants = map[string]TenantLimits{"capped": {Weight: 1, MaxCores: 2}}
	})
	a, err := p.Admit(LeaseSpec{RunID: "r1", Tenant: "alice", Cores: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(LeaseSpec{RunID: "r2", Tenant: "bob", Cores: 4}); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("want ErrPoolSaturated, got %v", err)
	}
	// Quota is checked before the ledger: a capped tenant gets the typed
	// quota error even while the pool is saturated.
	var qe *QuotaError
	if _, err := p.Admit(LeaseSpec{RunID: "r3", Tenant: "capped", Cores: 3}); !errors.As(err, &qe) {
		t.Fatalf("want QuotaError, got %v", err)
	} else if qe.Quota != 2 || qe.Requested != 3 {
		t.Fatalf("QuotaError fields: %+v", qe)
	}
	// Release frees the ledger and signals waiters; the queued claim admits.
	a.Stop()
	select {
	case <-p.Releases():
	case <-time.After(5 * time.Second):
		t.Fatal("no release signal")
	}
	b, err := p.Admit(LeaseSpec{RunID: "r2", Tenant: "bob", Cores: 4})
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	b.Stop()
}

// Stride scheduling: with both tenants backlogged at 3:1 weights, the
// dispatch order interleaves at ~3:1. The ratio is measured over the prefix
// where both tenants still have queued work (the tail degenerates to
// whichever tenant has tasks left).
func TestPoolWeightedFairDispatch(t *testing.T) {
	p := newPoolHarness(t, func(cfg *PoolConfig) {
		cfg.Base.Resource.Cores = 4
		cfg.MaxClaimFactor = 3
		cfg.TraceDispatch = true
		cfg.Tenants = map[string]TenantLimits{
			"heavy": {Weight: 3},
			"light": {Weight: 1},
		}
	})
	// Both tenants must be backlogged before either dispatches, or the
	// first to submit runs alone until the second does. A blocker's tasks
	// (~50 ms of wall time each) hold every physical core while both
	// submit; once they finish, the stride scheduler serves both backlogs.
	b, err := p.Admit(LeaseSpec{RunID: "rb", Tenant: "blocker", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	var hold []core.TaskDescription
	for i := 0; i < 4; i++ {
		hold = append(hold, sleepTask("b-"+time.Duration(i).String(), 50_000*time.Second, 1))
	}
	if err := b.Submit(hold); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !blockerDispatched(p, len(hold)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("blocker tasks never dispatched")
		}
	}
	h, err := p.Admit(LeaseSpec{RunID: "rh", Tenant: "heavy", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := p.Admit(LeaseSpec{RunID: "rl", Tenant: "light", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	mk := func(tag string) []core.TaskDescription {
		var out []core.TaskDescription
		for i := 0; i < n; i++ {
			out = append(out, sleepTask(tag+"-"+time.Duration(i).String(), 20*time.Millisecond, 1))
		}
		return out
	}
	if err := h.Submit(mk("h")); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit(mk("l")); err != nil {
		t.Fatal(err)
	}
	drainLease(t, b, len(hold))
	drainLease(t, h, n)
	drainLease(t, l, n)

	var trace []string
	for _, tn := range p.DispatchTrace() {
		if tn != "blocker" {
			trace = append(trace, tn)
		}
	}
	if len(trace) != 2*n {
		t.Fatalf("trace length %d, want %d", len(trace), 2*n)
	}
	// Count the first 40 dispatches: both tenants were backlogged there.
	heavy, light := 0, 0
	for _, tn := range trace[:40] {
		if tn == "heavy" {
			heavy++
		} else {
			light++
		}
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("dispatch ratio %.2f (heavy=%d light=%d), want ~3:1", ratio, heavy, light)
	}
}

// blockerDispatched reports whether the "blocker" tenant has had n tasks
// dispatched.
func blockerDispatched(p *Pool, n int) bool {
	for _, ts := range p.TenantSnapshot() {
		if ts.Tenant == "blocker" {
			return ts.Dispatched >= uint64(n)
		}
	}
	return false
}

// A revoked lease flips Alive and returns its claim; queued-but-undispatched
// tasks are dropped, late completions of in-flight tasks become orphans.
func TestPoolRevokeReleasesClaim(t *testing.T) {
	p := newPoolHarness(t, nil)
	l, err := p.Admit(LeaseSpec{RunID: "r1", Tenant: "alice", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Alive() {
		t.Fatal("fresh lease not alive")
	}
	if err := l.Submit([]core.TaskDescription{sleepTask("t1", 5*time.Second, 1)}); err != nil {
		t.Fatal(err)
	}
	l.Revoke()
	if l.Alive() {
		t.Fatal("revoked lease still alive")
	}
	if err := l.Submit([]core.TaskDescription{sleepTask("t2", time.Millisecond, 1)}); err == nil {
		t.Fatal("submit on revoked lease succeeded")
	}
	if got := p.Claimed(); got != 0 {
		t.Fatalf("claimed after revoke: %d", got)
	}
	if _, ok := <-l.Completions(); ok {
		t.Fatal("completions not closed after revoke")
	}
}
