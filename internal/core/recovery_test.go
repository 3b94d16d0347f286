package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
	"repro/internal/vclock"
)

// stampUIDs assigns deterministic structural UIDs — what the appjson Build
// path does for documents — so two incarnations of the same description
// name every entity identically, the property cross-process Resume needs.
func stampUIDs(pipes []*Pipeline) {
	for pi, p := range pipes {
		p.UID = fmt.Sprintf("pipeline.%03d", pi)
		for si, s := range p.Stages() {
			s.UID = fmt.Sprintf("stage.%03d.%03d", pi, si)
			for ti, task := range s.Tasks() {
				task.UID = fmt.Sprintf("task.%03d.%03d.%05d", pi, si, ti)
			}
		}
	}
}

func TestJournalPathAndDirAreMutuallyExclusive(t *testing.T) {
	_, err := NewAppManager(Config{
		Clock:       vclock.NewScaled(time.Microsecond),
		JournalPath: "a.journal",
		JournalDir:  "jdir",
	})
	if err == nil {
		t.Fatal("NewAppManager accepted JournalPath + JournalDir")
	}
}

// TestDurableRunJournalsSnapshotsAndCompacts pins the tentpole's happy path:
// a durable run writes segments, snapshots at the configured cadence,
// compacts below the watermark, and reports it all through
// Progress.Durability. The journal must afterwards reconstruct every entity
// as DONE.
func TestDurableRunJournalsSnapshotsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	am, _ := testApp(t, Config{
		JournalDir:    dir,
		SnapshotEvery: 8,
		SegmentBytes:  512,
	})
	pipes := buildApp(2, 2, 8, 50*time.Second)
	stampUIDs(pipes)
	am.AddPipelines(pipes...)
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}

	prog := am.Snapshot()
	if prog.Durability == nil {
		t.Fatal("Progress.Durability is nil for a durable run")
	}
	d := prog.Durability
	if d.Snapshots == 0 {
		t.Fatalf("no snapshots written (stats %+v)", d)
	}
	if d.CompactedSegments == 0 {
		t.Fatalf("no segments compacted (stats %+v)", d)
	}
	if d.SnapshotFailures != 0 {
		t.Fatalf("%d snapshot failures", d.SnapshotFailures)
	}
	if d.Resumed {
		t.Fatal("fresh durable run reported Resumed")
	}
	if d.JournalSeq == 0 {
		t.Fatal("JournalSeq not advanced")
	}

	// The directory alone must reconstruct the terminal state: snapshot +
	// tail yields DONE for all 32 tasks.
	final := reconstruct(t, dir)
	done := 0
	for k, state := range final {
		if k.entity == "task" && TaskState(state) == TaskDone {
			done++
		}
	}
	if done != 32 {
		t.Fatalf("reconstructed %d DONE tasks, want 32", done)
	}
}

// reconstruct replays snapshot + journal tail the way openDurable does,
// returning the final state map.
func reconstruct(t *testing.T, dir string) map[struct{ entity, uid string }]string {
	t.Helper()
	final := map[struct{ entity, uid string }]string{}
	snapSeq := loadSnapshotInto(t, dir, final)
	err := journal.ReplayDir(dir, func(rec journal.Record) error {
		if rec.Type != "state" {
			return nil
		}
		if rec.Seq <= snapSeq {
			return nil
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		final[struct{ entity, uid string }{sr.Entity, sr.UID}] = sr.State
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return final
}

func loadSnapshotInto(t *testing.T, dir string, final map[struct{ entity, uid string }]string) uint64 {
	t.Helper()
	snap, ok, err := statedb.LoadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0
	}
	for _, e := range snap.Entries {
		final[struct{ entity, uid string }{e.Entity, e.UID}] = e.State
	}
	return snap.Watermark
}

// TestResumeDoesNotRerunCompletedTasks is the §II-B4 contract test: a run
// killed mid-flight resumes from its journal directory without re-executing
// the tasks the first incarnation completed.
func TestResumeDoesNotRerunCompletedTasks(t *testing.T) {
	dir := t.TempDir()
	build := func() []*Pipeline {
		pipes := buildApp(1, 3, 4, 50*time.Second)
		stampUIDs(pipes)
		return pipes
	}

	// Incarnation 1: run until the first stage commits DONE, then cancel.
	// Run.Cancel force-states the remaining entities without journaling —
	// from the journal's point of view this is a crash.
	am1, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4, SegmentBytes: 512})
	pipes1 := build()
	am1.AddPipelines(pipes1...)
	sub := am1.Subscribe(EventFilter{Kinds: []EventKind{EventStage}})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run1, err := am1.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for ev := range sub.C() {
			if ev.To == string(StageDone) {
				run1.Cancel("chaos")
				return
			}
		}
	}()
	if err := run1.Wait(); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("incarnation 1 finished with %v, want cancellation", err)
	}
	sub.Close()

	// The journal must already record some DONE tasks (stage 1 completed).
	preDone := map[string]bool{}
	for k, state := range reconstruct(t, dir) {
		if k.entity == "task" && TaskState(state) == TaskDone {
			preDone[k.uid] = true
		}
	}
	if len(preDone) < 4 {
		t.Fatalf("incarnation 1 journaled %d DONE tasks, want >= 4 (one stage)", len(preDone))
	}

	// Incarnation 2: same description, fresh AppManager and RTS, Resume.
	am2, rts2 := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4, SegmentBytes: 512})
	pipes2 := build()
	am2.AddPipelines(pipes2...)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	run2, err := am2.Resume(ctx2, dir)
	if err != nil {
		t.Fatal(err)
	}
	ri := am2.RecoveryInfo()
	if !ri.Resumed {
		t.Fatal("incarnation 2 did not report Resumed")
	}
	if ri.TasksRecovered != len(preDone) {
		t.Fatalf("recovered %d tasks, journal says %d", ri.TasksRecovered, len(preDone))
	}
	if err := run2.Wait(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once: no task the journal recorded DONE was re-executed.
	for _, uid := range rts2.log() {
		if preDone[uid] {
			t.Fatalf("task %s was DONE before the crash but re-executed on resume", uid)
		}
	}
	// Conservation: every task ends DONE.
	for _, p := range pipes2 {
		if p.State() != PipelineDone {
			t.Fatalf("pipeline state = %s after resume", p.State())
		}
		for _, s := range p.Stages() {
			for _, task := range s.Tasks() {
				if task.State() != TaskDone {
					t.Fatalf("task %s state = %s after resume", task.UID, task.State())
				}
			}
		}
	}
	// The resumed run really did skip work: it executed only the complement.
	if got, want := len(rts2.log()), 12-len(preDone); got != want {
		t.Fatalf("incarnation 2 executed %d tasks, want %d", got, want)
	}
}

// TestResumeFreshDirectoryIsDurableStart pins the uniform incarnation loop:
// resuming an empty directory is just a durable first run.
func TestResumeFreshDirectoryIsDurableStart(t *testing.T) {
	dir := t.TempDir()
	am, _ := testApp(t, Config{JournalDir: dir})
	pipes := buildApp(1, 1, 2, 10*time.Second)
	stampUIDs(pipes)
	am.AddPipelines(pipes...)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run, err := am.Resume(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if am.RecoveryInfo().Resumed {
		t.Fatal("fresh directory reported Resumed")
	}
	if am.RecoveryInfo().TasksRecovered != 0 {
		t.Fatal("fresh directory recovered tasks")
	}
}

func TestResumeRequiresDirectory(t *testing.T) {
	am, _ := testApp(t, Config{})
	if _, err := am.Resume(context.Background(), ""); err == nil {
		t.Fatal("Resume(\"\") succeeded")
	}
}

// TestResumedSnapshotCoversPreCrashState pins the mirror-seeding rule: the
// first snapshot a resumed run writes must include the pre-crash DONE
// states, or compaction could discard the only record of them.
func TestResumedSnapshotCoversPreCrashState(t *testing.T) {
	dir := t.TempDir()
	build := func() []*Pipeline {
		pipes := buildApp(1, 2, 4, 20*time.Second)
		stampUIDs(pipes)
		return pipes
	}
	am1, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 2, SegmentBytes: 256})
	am1.AddPipelines(build()...)
	sub := am1.Subscribe(EventFilter{Kinds: []EventKind{EventStage}})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run1, err := am1.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for ev := range sub.C() {
			if ev.To == string(StageDone) {
				run1.Cancel("chaos")
				return
			}
		}
	}()
	run1.Wait() //nolint:errcheck
	sub.Close()

	am2, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 2, SegmentBytes: 256})
	am2.AddPipelines(build()...)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	run2, err := am2.Resume(ctx2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := run2.Wait(); err != nil {
		t.Fatal(err)
	}
	// With SnapshotEvery=2 and aggressive segment rotation, incarnation 2
	// snapshotted and compacted heavily; reconstruction must still see all
	// 8 tasks DONE — including the ones only incarnation 1 executed.
	done := 0
	for k, state := range reconstruct(t, dir) {
		if k.entity == "task" && TaskState(state) == TaskDone {
			done++
		}
	}
	if done != 8 {
		t.Fatalf("reconstructed %d DONE tasks after compacting resume, want 8", done)
	}
}

// TestDurableRunBinaryAndJSONFormats pins both sides of the wire-format
// boundary: a durable run's binary journal reconstructs every task, and a
// journal directory left by a JSON-format build makes Resume fail with an
// error, leaving the segment untouched, instead of silently starting over.
func TestDurableRunBinaryAndJSONFormats(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		dir := t.TempDir()
		am, _ := testApp(t, Config{JournalDir: dir, SnapshotEvery: 4, SegmentBytes: 512})
		pipes := buildApp(1, 2, 4, 20*time.Second)
		stampUIDs(pipes)
		am.AddPipelines(pipes...)
		if err := runApp(t, am); err != nil {
			t.Fatal(err)
		}
		done := 0
		for k, state := range reconstruct(t, dir) {
			if k.entity == "task" && TaskState(state) == TaskDone {
				done++
			}
		}
		if done != 8 {
			t.Fatalf("reconstructed %d DONE tasks, want 8", done)
		}
	})
	t.Run("json", func(t *testing.T) {
		dir := t.TempDir()
		// One JSON-framed state record, exactly as a JSON-format build
		// wrote it: [len][CRC32] around a {"seq","type","data"} document.
		payload := []byte(`{"seq":1,"type":"state","data":{"entity":"task","uid":"task.000.000.00000","state":"DONE"}}`)
		seg := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(seg[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(seg[4:8], crc32.ChecksumIEEE(payload))
		copy(seg[8:], payload)
		path := filepath.Join(dir, journal.SegmentName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		am, _ := testApp(t, Config{})
		pipes := buildApp(1, 1, 2, 10*time.Second)
		stampUIDs(pipes)
		am.AddPipelines(pipes...)
		if run, err := am.Resume(context.Background(), dir); err == nil {
			run.Cancel("test")
			run.Wait() //nolint:errcheck
			t.Fatal("Resume accepted a JSON-format journal")
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
			t.Fatalf("segment changed by a failed Resume (err=%v)", err)
		}
	})
}
