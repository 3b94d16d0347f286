package statedb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/msgcodec"
)

func TestSnapshotNameRoundTrip(t *testing.T) {
	for _, wm := range []uint64{0, 1, 1000, 1 << 60} {
		name := SnapshotName(wm)
		got, ok := parseSnapshotName(name)
		if !ok || got != wm {
			t.Fatalf("parse(%q) = %d, %v; want %d", name, got, ok, wm)
		}
	}
	for _, bad := range []string{"snapshot-.snap", "snapshot-123.snap", "journal-000001.seg",
		"snapshot-00000000000000zz.snap"} {
		if _, ok := parseSnapshotName(bad); ok {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
}

// TestSnapshotRoundTrip pins the full disk round trip: a DB's entries
// written with WriteSnapshot load back identically via LoadLatestSnapshot
// and seed a fresh DB via Restore.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := New()
	saves := []struct{ entity, uid, state string }{
		{"task", "task.1", "SCHEDULED"},
		{"task", "task.1", "DONE"}, // latest wins
		{"task", "task.2", "FAILED"},
		{"stage", "stage.1", "DONE"},
		{"pipeline", "pipe.1", "SCHEDULING"},
	}
	for _, s := range saves {
		if err := db.SaveState(s.entity, s.uid, s.state); err != nil {
			t.Fatal(err)
		}
	}
	snap := msgcodec.Snapshot{Watermark: 42, Entries: db.SnapshotEntries()}
	if _, err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}

	got, ok, err := LoadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("LoadLatestSnapshot: ok=%v err=%v", ok, err)
	}
	if got.Watermark != 42 || len(got.Entries) != 4 {
		t.Fatalf("snapshot drifted: %+v", got)
	}

	db2 := New()
	if err := db2.Restore(got.Entries); err != nil {
		t.Fatal(err)
	}
	states, err := db2.LoadTaskStates()
	if err != nil {
		t.Fatal(err)
	}
	if states["task.1"] != "DONE" || states["task.2"] != "FAILED" || len(states) != 2 {
		t.Fatalf("restored task states drifted: %v", states)
	}
}

// TestSnapshotEntriesDeterministic pins the sorted-entries property: two
// DBs reaching the same final state through different write orders export
// byte-identical snapshots.
func TestSnapshotEntriesDeterministic(t *testing.T) {
	a, b := New(), New()
	a.SaveState("task", "t.1", "DONE")   //nolint:errcheck
	a.SaveState("task", "t.2", "FAILED") //nolint:errcheck
	a.SaveState("stage", "s.1", "DONE")  //nolint:errcheck
	b.SaveState("stage", "s.1", "DONE")  //nolint:errcheck
	b.SaveState("task", "t.2", "SCHED")  //nolint:errcheck
	b.SaveState("task", "t.2", "FAILED") //nolint:errcheck
	b.SaveState("task", "t.1", "DONE")   //nolint:errcheck
	ea := msgcodec.FormatBinary.EncodeSnapshot(msgcodec.Snapshot{Watermark: 1, Entries: a.SnapshotEntries()})
	eb := msgcodec.FormatBinary.EncodeSnapshot(msgcodec.Snapshot{Watermark: 1, Entries: b.SnapshotEntries()})
	if string(ea) != string(eb) {
		t.Fatal("snapshots of identical state differ")
	}
}

func TestWriteSnapshotPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	db := New()
	db.SaveState("task", "t.1", "DONE") //nolint:errcheck
	for wm := uint64(1); wm <= 5; wm++ {
		if _, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: wm, Entries: db.SnapshotEntries()}); err != nil {
			t.Fatal(err)
		}
	}
	wms, _ := listSnapshots(dir)
	if len(wms) != keepSnapshots {
		t.Fatalf("%d snapshots retained, want %d", len(wms), keepSnapshots)
	}
	if wms[0] != 5 || wms[1] != 4 {
		t.Fatalf("retained watermarks %v, want [5 4]", wms)
	}
}

// TestLoadLatestSkipsTornSnapshot pins the crash-mid-snapshot fallback: a
// truncated or corrupted newest snapshot is skipped in favor of its
// predecessor.
func TestLoadLatestSkipsTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := New()
	db.SaveState("task", "t.1", "DONE") //nolint:errcheck
	if _, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: 10, Entries: db.SnapshotEntries()}); err != nil {
		t.Fatal(err)
	}
	db.SaveState("task", "t.2", "DONE") //nolint:errcheck
	path, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: 20, Entries: db.SnapshotEntries()})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest snapshot mid-file.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	snap, ok, err := LoadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if snap.Watermark != 10 || len(snap.Entries) != 1 {
		t.Fatalf("fallback snapshot drifted: %+v", snap)
	}

	// Corrupt (bit-flip) instead of truncate: same fallback.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, ok, err = LoadLatestSnapshot(dir)
	if err != nil || !ok || snap.Watermark != 10 {
		t.Fatalf("corrupted-newest fallback drifted: %+v ok=%v err=%v", snap, ok, err)
	}
}

func TestLoadLatestSnapshotEmptyDir(t *testing.T) {
	_, ok, err := LoadLatestSnapshot(filepath.Join(t.TempDir(), "absent"))
	if err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}

// TestSnapshotUnderConcurrentWrites exercises SnapshotEntries racing
// SaveState — the synchronizer snapshots while other components mutate
// nothing (single committer), but the DB itself must stay race-free for the
// statestore path where Progress snapshots race commits. Run under -race.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.SaveState("task", "t.1", "STATE") //nolint:errcheck
		}
	}()
	for i := 0; i < 100; i++ {
		db.SnapshotEntries()
	}
	close(stop)
	wg.Wait()
}

// framedSnapshot wraps payload in the snapshot file's [len][CRC32] framing,
// so the payload passes its CRC whatever it holds.
func framedSnapshot(payload []byte) []byte {
	buf := make([]byte, snapHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[snapHeaderLen:], payload)
	return buf
}

// legacyJSONSnapshot is a snapshot file as a JSON-format build wrote it.
var legacyJSONSnapshot = framedSnapshot([]byte(`{"watermark":20,"entries":[{"entity":"task","uid":"t.1","state":"DONE"}]}`))

// futureVersionSnapshot is a snapshot file whose frame carries a version
// byte one past what this build speaks.
func futureVersionSnapshot() []byte {
	payload := msgcodec.FormatBinary.EncodeSnapshot(msgcodec.Snapshot{Watermark: 20})
	payload[1] = msgcodec.Version + 1
	return framedSnapshot(payload)
}

// TestLoadLatestRejectsUndecodableSnapshot pins the other half of the
// fallback rule: a newest snapshot that is intact (length and CRC check
// out) but does not decode is an error, not a torn file to skip — its
// predecessor may cover less than the journal tail compaction kept.
func TestLoadLatestRejectsUndecodableSnapshot(t *testing.T) {
	for name, body := range map[string][]byte{"legacy JSON": legacyJSONSnapshot, "version 2": futureVersionSnapshot()} {
		dir := t.TempDir()
		db := New()
		db.SaveState("task", "t.1", "DONE") //nolint:errcheck
		if _, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: 10, Entries: db.SnapshotEntries()}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, SnapshotName(20))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, ok, err := LoadLatestSnapshot(dir); err == nil {
			t.Fatalf("%s: LoadLatestSnapshot = %+v, ok=%v; want an error", name, snap, ok)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: snapshot file changed (err=%v)", name, err)
		}
	}
}

// FuzzLoadLatestSnapshot feeds arbitrary bytes to LoadLatestSnapshot as
// the newest snapshot file, with a valid predecessor beside it. It must
// never panic, never allocate beyond a small multiple of the file size, and
// when it returns no error it finds a snapshot (the predecessor at worst).
func FuzzLoadLatestSnapshot(f *testing.F) {
	valid := framedSnapshot(msgcodec.FormatBinary.EncodeSnapshot(msgcodec.Snapshot{Watermark: 20, Entries: []msgcodec.SnapEntry{
		{Entity: "task", UID: "t.1", State: "DONE"}, {Entity: "task", UID: "t.2", State: "DONE"}}}))
	f.Add(valid)
	f.Add(legacyJSONSnapshot)
	f.Add(valid[:len(valid)-3])
	f.Add(futureVersionSnapshot())

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if _, err := WriteSnapshot(dir, msgcodec.Snapshot{Watermark: 10}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, SnapshotName(20)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok, err := LoadLatestSnapshot(dir)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data)+64<<10); got > limit {
			t.Fatalf("allocated %d bytes for a %d-byte file (limit %d)", got, len(data), limit)
		}
		if err == nil && !ok {
			t.Fatal("valid predecessor not found")
		}
	})
}
