package entk

import (
	"strings"
	"testing"
)

func TestTuningValidate(t *testing.T) {
	if err := (Tuning{}).Validate(); err != nil {
		t.Fatalf("zero tuning must be valid: %v", err)
	}
	ok := Tuning{
		Version:          CurrentTuningVersion,
		BatchSize:        64,
		QueueShards:      4,
		SchedulerWorkers: 2,
		SnapshotEvery:    -1, // negative disables snapshots — legal
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid tuning rejected: %v", err)
	}
	cases := []struct {
		name string
		tun  Tuning
		want string
	}{
		{"future version", Tuning{Version: CurrentTuningVersion + 1}, "version"},
		{"negative batch", Tuning{BatchSize: -1}, "BatchSize"},
		{"negative shards", Tuning{QueueShards: -1}, "QueueShards"},
		{"negative schedulers", Tuning{SchedulerWorkers: -1}, "SchedulerWorkers"},
	}
	for _, c := range cases {
		err := c.tun.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error mentioning %q", c.name, err, c.want)
		}
	}
}

// The embedded Tuning is the only place knobs are set; AppConfig reads of
// a knob resolve to it through field promotion, and resolveTuning carries
// the set values through unchanged.
func TestTuningFieldPromotion(t *testing.T) {
	cfg := AppConfig{Tuning: Tuning{
		BatchSize:        10,
		QueueShards:      2,
		SchedulerWorkers: 2,
		SnapshotEvery:    100,
	}}
	if cfg.BatchSize != 10 || cfg.QueueShards != 2 || cfg.SchedulerWorkers != 2 || cfg.SnapshotEvery != 100 {
		t.Fatalf("promoted reads drifted from Tuning: %+v", cfg.Tuning)
	}
	rt, err := cfg.resolveTuning()
	if err != nil {
		t.Fatal(err)
	}
	if rt.batch != 10 || rt.shards != 2 || rt.scheds != 2 || rt.tun.SnapshotEvery != 100 {
		t.Fatalf("resolved tuning drifted: %+v", rt)
	}
}

// An invalid tuning is rejected at AppManager construction, before any
// infrastructure is built.
func TestTuningRejectedAtConstruction(t *testing.T) {
	_, err := NewAppManager(AppConfig{
		Resource: Resource{Name: "supermic", Cores: 4, Walltime: 3600e9},
		Tuning:   Tuning{BatchSize: -1},
	})
	if err == nil || !strings.Contains(err.Error(), "BatchSize") {
		t.Fatalf("want BatchSize rejection, got %v", err)
	}
}
