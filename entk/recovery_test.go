package entk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// The chaos harness: run a durable application, kill it at a randomized
// point (Run.Cancel force-states without journaling — indistinguishable
// from a crash to the journal), resume from the journal directory, repeat
// until an incarnation completes uninterrupted. After every scenario the
// harness asserts the durability contract of docs/recovery.md:
//
//   - conservation: every task ends DONE and reconstruction from the
//     directory alone (snapshot + journal tail) agrees;
//   - exactly-once: no task recorded DONE before a kill is ever pushed to
//     the RTS again, proven against the store's audit records.
//
// Seeds are fixed so CI failures reproduce; each seed drives one full
// multi-incarnation scenario.

// chaosApp builds the scenario's application with deterministic structural
// UIDs, so every incarnation names each entity identically.
func chaosApp() []*Pipeline {
	var pipes []*Pipeline
	for pi := 0; pi < 2; pi++ {
		p := NewPipeline(fmt.Sprintf("chaos-p%d", pi))
		p.UID = fmt.Sprintf("pipeline.%03d", pi)
		for si := 0; si < 2; si++ {
			s := NewStage(fmt.Sprintf("s%d", si))
			s.UID = fmt.Sprintf("stage.%03d.%03d", pi, si)
			for ti := 0; ti < 6; ti++ {
				task := NewTask(fmt.Sprintf("t%02d", ti))
				task.UID = fmt.Sprintf("task.%03d.%03d.%05d", pi, si, ti)
				task.Executable = "sleep"
				task.Duration = 20 * time.Second
				s.AddTask(task) //nolint:errcheck
			}
			p.AddStage(s) //nolint:errcheck
		}
		pipes = append(pipes, p)
	}
	return pipes
}

const chaosTasks = 2 * 2 * 6

// reconstructDone rebuilds the DONE-task set from the journal directory the
// way Resume does: newest snapshot, then journal records above its
// watermark.
func reconstructDone(t *testing.T, dir string) map[string]bool {
	t.Helper()
	final := map[string]string{}
	snap, haveSnap, err := statedb.LoadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if haveSnap {
		for _, e := range snap.Entries {
			if e.Entity == "task" {
				final[e.UID] = e.State
			}
		}
	}
	err = journal.ReplayDir(dir, func(rec journal.Record) error {
		if rec.Type != "state" {
			return nil
		}
		if haveSnap && rec.Seq <= snap.Watermark {
			return nil
		}
		sr, derr := msgcodec.DecodeStateRec(rec.Data)
		if derr != nil {
			return derr
		}
		if sr.Entity == "task" {
			final[sr.UID] = sr.State
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]bool{}
	for uid, state := range final {
		if TaskState(state) == TaskDone {
			done[uid] = true
		}
	}
	return done
}

// auditPushes replays the RTS audit log and returns, for records with
// seq > afterSeq, the pushed task UIDs, plus the log's final seq.
func auditPushes(t *testing.T, dir string, afterSeq uint64) ([]string, uint64) {
	t.Helper()
	var uids []string
	var last uint64
	err := journal.Replay(filepath.Join(dir, "rts-audit.log"), func(rec journal.Record) error {
		last = rec.Seq
		if rec.Type != "rts.store" || rec.Seq <= afterSeq {
			return nil
		}
		sr, err := msgcodec.DecodeStoreRec(rec.Data)
		if err != nil {
			return err
		}
		if sr.Op == "push" {
			uids = append(uids, sr.UIDs...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return uids, last
}

func chaosConfig(dir string) AppConfig {
	return AppConfig{
		Resource:     Resource{Name: "supermic", Cores: 16, Walltime: time.Hour},
		TimeScale:    50 * time.Microsecond,
		HostName:     "null",
		JournalDir:   dir,
		Tuning:       Tuning{SnapshotEvery: 8},
		SegmentBytes: 2048,
	}
}

// runIncarnation starts (or resumes) one incarnation and kills it after
// killAfter task events; killAfter <= 0 lets it run to completion. It
// returns whether the run completed.
func runIncarnation(t *testing.T, dir string, killAfter int) bool {
	t.Helper()
	am, err := NewAppManager(chaosConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(chaosApp()...); err != nil {
		t.Fatal(err)
	}
	var sub *EventSub
	if killAfter > 0 {
		sub = am.Subscribe(EventFilter{Kinds: []EventKind{EventTask}})
		defer sub.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := am.Resume(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sub != nil {
		go func() {
			seen := 0
			for range sub.C() {
				seen++
				if seen >= killAfter {
					run.Cancel("chaos kill")
					return
				}
			}
		}()
	}
	err = run.Wait()
	if err == nil {
		return true
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("incarnation failed with %v, want completion or chaos kill", err)
	}
	return false
}

func chaosScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	const maxIncarnations = 12
	var auditSeq uint64
	completed := false
	for inc := 0; inc < maxIncarnations && !completed; inc++ {
		// What the journal says is DONE before this incarnation: the
		// exactly-once baseline.
		doneBefore := reconstructDone(t, dir)

		// Kill somewhere in the remaining work's event stream; the final
		// allowed incarnation runs uninterrupted so the scenario terminates.
		killAfter := 1 + rng.Intn(3*chaosTasks)
		if inc == maxIncarnations-1 {
			killAfter = 0
		}
		completed = runIncarnation(t, dir, killAfter)

		// Exactly-once: nothing DONE before this incarnation was pushed to
		// the RTS during it.
		pushed, last := auditPushes(t, dir, auditSeq)
		auditSeq = last
		for _, uid := range pushed {
			if doneBefore[uid] {
				t.Fatalf("seed %d incarnation %d: task %s was DONE before the kill but was re-pushed",
					seed, inc, uid)
			}
		}
	}
	if !completed {
		t.Fatalf("seed %d: no incarnation completed within %d attempts", seed, maxIncarnations)
	}

	// Conservation: the directory alone reconstructs all tasks DONE.
	done := reconstructDone(t, dir)
	if len(done) != chaosTasks {
		t.Fatalf("seed %d: reconstructed %d DONE tasks, want %d", seed, len(done), chaosTasks)
	}
}

// TestChaosResume is the crash-recovery acceptance harness (fixed seeds;
// -short trims the sweep). Each seed kills a durable run at randomized
// points across incarnations and proves conservation and exactly-once
// semantics on every resume.
func TestChaosResume(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			chaosScenario(t, seed)
		})
	}
}

// TestDurabilityProgressSurface pins the public Progress.Durability surface
// through the entk façade.
func TestDurabilityProgressSurface(t *testing.T) {
	dir := t.TempDir()
	am, err := NewAppManager(chaosConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := am.AddPipelines(chaosApp()...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := am.Run(ctx); err != nil {
		t.Fatal(err)
	}
	d := am.Snapshot().Durability
	if d == nil {
		t.Fatal("Durability nil for a durable run")
	}
	if d.Snapshots == 0 || d.JournalSeq == 0 {
		t.Fatalf("durability counters did not advance: %+v", d)
	}

	// Non-durable runs must not grow the surface.
	am2, err := NewAppManager(AppConfig{
		Resource:  Resource{Name: "supermic", Cores: 8, Walltime: time.Hour},
		TimeScale: 50 * time.Microsecond,
		HostName:  "null",
	})
	if err != nil {
		t.Fatal(err)
	}
	if am2.Snapshot().Durability != nil {
		t.Fatal("Durability non-nil for a non-durable run")
	}
	am2.teardown()
}

// TestPackageLevelResume pins the entk.Resume convenience: build, register,
// resume in one call.
func TestPackageLevelResume(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := Resume(ctx, chaosConfig(dir), chaosApp()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ctx, AppConfig{Resource: Resource{Name: "supermic", Cores: 8, Walltime: time.Hour}}); err == nil {
		t.Fatal("Resume without JournalDir accepted")
	}
}
