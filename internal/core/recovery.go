package core

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/statedb"
)

// Crash-recoverable runs (paper §II-B4: "applications can be executed on
// multiple attempts, without restarting completed tasks"). In JournalDir
// mode every committed transition is appended to a segmented journal and
// mirrored into an in-process statedb; the synchronizer periodically writes
// the mirror as a snapshot at the journal's current watermark and compacts
// segments wholly below it. Resume inverts the pipeline: load the newest
// valid snapshot, overlay the journal tail, restore DONE tasks, and let the
// normal scheduling pass recompute stage and pipeline progression. The full
// contract — what is journaled vs snapshotted, the watermark invariant, the
// crash matrix — lives in docs/recovery.md.

// RecoveryInfo summarizes what a durable run reconstructed at startup. It
// is populated during setup (before any component spawns) and exposed via
// Progress.Durability.
type RecoveryInfo struct {
	// Resumed reports whether any prior state (snapshot or journal records)
	// was found in the journal directory.
	Resumed bool
	// SnapshotSeq is the watermark of the snapshot recovery loaded (0 when
	// recovery replayed the journal alone).
	SnapshotSeq uint64
	// ReplayedRecords counts the journal-tail state records replayed on top
	// of the snapshot.
	ReplayedRecords int
	// TasksRecovered counts the tasks restored as DONE — work the resumed
	// run will not re-execute.
	TasksRecovered int
}

// DurabilityStats is the Progress view of the durability subsystem: the
// startup RecoveryInfo plus this run's live snapshot/compaction counters.
type DurabilityStats struct {
	RecoveryInfo
	// JournalSeq is the last journaled sequence number.
	JournalSeq uint64
	// Snapshots and SnapshotFailures count this run's snapshot writes.
	Snapshots        int
	SnapshotFailures int
	// CompactedSegments counts journal segments deleted below snapshot
	// watermarks this run.
	CompactedSegments int
}

// Resume is Start for a previously journaled run: it points the engine at
// journalDir (overriding Config.JournalDir and JournalPath), reconstructs
// the committed state from the newest valid snapshot plus the journal tail,
// and continues the run — tasks recorded DONE are not re-executed, tasks
// caught mid-flight are rescheduled from scratch, and stages and pipelines
// are recomputed from task states by the normal scheduling pass. The
// application description must be registered (AddPipelines) with the same
// UIDs as the original run before calling Resume. Resuming an empty or
// fresh directory is equivalent to a durable Start. Like Start, Resume is
// single-shot.
func (am *AppManager) Resume(ctx context.Context, journalDir string) (*Run, error) {
	if journalDir == "" {
		return nil, errors.New("core: Resume requires a journal directory")
	}
	am.mu.Lock()
	if am.running {
		am.mu.Unlock()
		return nil, ErrAlreadyRan
	}
	am.cfg.JournalDir = journalDir
	am.cfg.JournalPath = ""
	am.mu.Unlock()
	return am.Start(ctx)
}

// RecoveryInfo returns what this run reconstructed at startup. Zero value
// for non-durable or not-yet-started runs.
func (am *AppManager) RecoveryInfo() RecoveryInfo { return am.recov }

// openDurable opens the segmented journal in Config.JournalDir and
// reconstructs committed state: newest valid snapshot first, then every
// journal record above its watermark (records at or below it are skipped —
// the snapshot already reflects them; segments not yet compacted replay as
// harmless no-ops). Tasks whose final recorded state is DONE are restored;
// the statedb mirror is seeded with the full reconstructed map so the first
// post-resume snapshot covers pre-crash history before compaction can
// discard it.
func (am *AppManager) openDurable() error {
	dir := am.cfg.JournalDir
	snap, haveSnap, err := statedb.LoadLatestSnapshot(dir)
	if err != nil {
		return err
	}
	j, err := journal.OpenDir(dir, journal.Options{SegmentBytes: am.cfg.SegmentBytes})
	if err != nil {
		return err
	}
	am.jrn = j
	am.mirror = statedb.New()

	final := make(map[statedb.Key]string, len(snap.Entries))
	if haveSnap {
		for _, e := range snap.Entries {
			final[statedb.Key{Entity: e.Entity, UID: e.UID}] = e.State
		}
		am.recov.SnapshotSeq = snap.Watermark
	}
	replayed := 0
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
		final[statedb.Key{Entity: sr.Entity, UID: sr.UID}] = sr.State
		replayed++
		return nil
	})
	if err != nil {
		am.closeJournal()
		am.jrn = nil
		return err
	}
	for k, state := range final {
		if err := am.mirror.SaveState(k.Entity, k.UID, state); err != nil {
			am.closeJournal()
			am.jrn = nil
			return err
		}
		if k.Entity == "task" && TaskState(state) == TaskDone {
			if t, ok := am.Task(k.UID); ok && !t.State().Terminal() {
				t.forceState(TaskDone)
				am.recov.TasksRecovered++
			}
		}
	}
	am.recov.ReplayedRecords = replayed
	am.recov.Resumed = haveSnap || replayed > 0
	return nil
}

// maybeSnapshot is the synchronizer's commit hook: it accumulates committed
// state records and, every Config.SnapshotEvery, persists the mirror at the
// journal's current watermark and compacts segments below it. Called only
// from the synchronizer loop goroutine — the sole journal writer — so the
// watermark read here exactly bounds the records the snapshot covers.
func (am *AppManager) maybeSnapshot(committed int) {
	if am.mirror == nil || am.cfg.SnapshotEvery <= 0 {
		return
	}
	am.snapPending += committed
	if am.snapPending < am.cfg.SnapshotEvery {
		return
	}
	am.snapPending = 0
	am.writeSnapshot()
}

// writeSnapshot persists one snapshot and compacts below its watermark.
// Failures are counted, not fatal: the journal remains authoritative, so a
// failed snapshot only delays compaction.
func (am *AppManager) writeSnapshot() {
	wm := am.jrn.Seq()
	snap := msgcodec.Snapshot{Watermark: wm, Entries: am.mirror.SnapshotEntries()}
	if _, err := statedb.WriteSnapshot(am.cfg.JournalDir, snap); err != nil {
		atomic.AddInt64(&am.snapshotFailures, 1)
		return
	}
	atomic.AddInt64(&am.snapshotsWritten, 1)
	if n, err := am.jrn.Compact(wm); err == nil && n > 0 {
		atomic.AddInt64(&am.segmentsCompacted, int64(n))
	}
}

// durabilityStats assembles the Progress.Durability view; nil for
// non-durable runs.
func (am *AppManager) durabilityStats() *DurabilityStats {
	if am.mirror == nil {
		return nil
	}
	d := &DurabilityStats{
		RecoveryInfo:      am.recov,
		Snapshots:         int(atomic.LoadInt64(&am.snapshotsWritten)),
		SnapshotFailures:  int(atomic.LoadInt64(&am.snapshotFailures)),
		CompactedSegments: int(atomic.LoadInt64(&am.segmentsCompacted)),
	}
	if am.jrn != nil {
		d.JournalSeq = am.jrn.Seq()
	}
	return d
}
