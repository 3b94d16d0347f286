package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/msgcodec"
)

// appendState writes one binary state record and returns its seq.
func appendState(t *testing.T, j *Journal, uid string) uint64 {
	t.Helper()
	seq, err := j.AppendRaw("state", msgcodec.FormatBinary.EncodeStateRec("task", uid, "DONE"))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// stateUIDs replays dir and returns the UIDs of its state records in order.
func stateUIDs(t *testing.T, dir string) []string {
	t.Helper()
	var uids []string
	err := ReplayDir(dir, func(rec Record) error {
		if rec.Type != "state" {
			return nil
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		uids = append(uids, sr.UID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return uids
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, idx := range []uint64{1, 42, 999999, 1000000} {
		name := SegmentName(idx)
		got, ok := parseSegmentName(name)
		if !ok || got != idx {
			t.Fatalf("parse(%q) = %d, %v; want %d", name, got, ok, idx)
		}
	}
	for _, bad := range []string{"journal-.seg", "journal-01a.seg", "snapshot-000001.seg", "journal-000001.snap"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
}

func TestOpenDirRotatesAtThreshold(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		appendState(t, j, uidN(i))
	}
	segs := j.Segments()
	if len(segs) < 3 {
		t.Fatalf("got %d segments after %d records at a 256-byte threshold, want >= 3", len(segs), n)
	}
	for i, s := range segs {
		if s.Index != uint64(i+1) {
			t.Fatalf("segment %d has index %d", i, s.Index)
		}
		if i > 0 && s.FirstSeq <= segs[i-1].LastSeq && s.FirstSeq != 0 {
			t.Fatalf("segment %d first seq %d overlaps previous last %d", i, s.FirstSeq, segs[i-1].LastSeq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	uids := stateUIDs(t, dir)
	if len(uids) != n {
		t.Fatalf("replayed %d state records, want %d", len(uids), n)
	}
	for i, uid := range uids {
		if uid != uidN(i) {
			t.Fatalf("record %d replayed as %q", i, uid)
		}
	}
}

func uidN(i int) string {
	return "task." + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestOpenDirResumesSequenceAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 20; i++ {
		last = appendState(t, j, uidN(i))
	}
	j.Close()

	j2, err := OpenDir(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	seq := appendState(t, j2, "task.resumed")
	if seq != last+1 {
		t.Fatalf("resumed seq = %d, want %d", seq, last+1)
	}
	uids := stateUIDs(t, dir)
	if len(uids) != 21 || uids[20] != "task.resumed" {
		t.Fatalf("post-reopen replay drifted: %d records, last %q", len(uids), uids[len(uids)-1])
	}
}

// TestOpenDirTruncatesTornActiveTail pins crash recovery for segmented
// journals: a torn final record in the newest segment is truncated on reopen
// and the journal appends cleanly after it.
func TestOpenDirTruncatesTornActiveTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendState(t, j, uidN(i))
	}
	j.Close()

	active := filepath.Join(dir, SegmentName(1))
	fi, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenDir(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if seq := appendState(t, j2, "task.post"); seq != 6 {
		// seq 1 is the segment header record.
		t.Fatalf("post-truncation seq = %d, want 6", seq)
	}
	uids := stateUIDs(t, dir)
	want := []string{uidN(0), uidN(1), uidN(2), uidN(3), "task.post"}
	if len(uids) != len(want) {
		t.Fatalf("replayed %d state records, want %d (%q)", len(uids), len(want), uids)
	}
	for i := range want {
		if uids[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, uids[i], want[i])
		}
	}
}

// TestCompactWatermarkInvariant pins the compaction contract: only sealed
// segments whose every record lies strictly below the watermark are removed;
// a segment holding any record at or above the watermark survives, and the
// active segment survives regardless.
func TestCompactWatermarkInvariant(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 40; i++ {
		appendState(t, j, uidN(i))
	}
	segs := j.Segments()
	if len(segs) < 4 {
		t.Fatalf("need >= 4 segments for the invariant test, got %d", len(segs))
	}
	// Watermark inside the second sealed segment: segment 1 is wholly below
	// it, segment 2 straddles it, everything later is above.
	wm := segs[1].FirstSeq + 1
	removed, err := j.Compact(wm)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("Compact(%d) removed %d segments, want 1", wm, removed)
	}
	for _, s := range j.Segments() {
		if s.LastSeq >= wm && s.LastSeq > 0 {
			if _, err := os.Stat(s.Path); err != nil {
				t.Fatalf("segment %d (seqs %d-%d) at/above watermark %d was removed: %v",
					s.Index, s.FirstSeq, s.LastSeq, wm, err)
			}
		}
	}
	if _, err := os.Stat(segs[0].Path); !os.IsNotExist(err) {
		t.Fatalf("segment below watermark not removed (err=%v)", err)
	}

	// Replay after compaction yields a contiguous suffix of the original
	// stream, ending at the newest record — compaction loses only prefix.
	uids := stateUIDs(t, dir)
	if len(uids) == 0 || uids[len(uids)-1] != uidN(39) {
		t.Fatalf("post-compaction replay drifted: %q", uids)
	}
	for i, uid := range uids {
		if want := uidN(40 - len(uids) + i); uid != want {
			t.Fatalf("post-compaction record %d = %q, want %q (non-contiguous suffix)", i, uid, want)
		}
	}

	// Compacting at a watermark past everything still keeps the active
	// segment.
	if _, err := j.Compact(j.Seq() + 100); err != nil {
		t.Fatal(err)
	}
	segs = j.Segments()
	if len(segs) != 1 {
		t.Fatalf("%d segments after full compaction, want 1 (the active one)", len(segs))
	}
	if _, err := os.Stat(segs[0].Path); err != nil {
		t.Fatalf("active segment removed by compaction: %v", err)
	}
}

func TestCompactFlatJournalFails(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "flat.journal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Compact(1); err == nil {
		t.Fatal("Compact on a flat journal succeeded")
	}
}

// TestReplayDirMixedFormats pins the upgrade boundary for segmented
// journals: a directory whose active segment ends in a record from a
// JSON-format build fails ReplayDir and OpenDir, and OpenDir does not
// truncate that record away as a torn tail.
func TestReplayDirMixedFormats(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendState(t, j, uidN(0))
	// Force the next records into their own fresh segment.
	if err := func() error { j.mu.Lock(); defer j.mu.Unlock(); return j.rotateLocked() }(); err != nil {
		t.Fatal(err)
	}
	appendState(t, j, uidN(1))
	j.Close()
	active := filepath.Join(dir, SegmentName(2))
	appendBytes(t, active, framed(legacyJSONRecord(5, "state", `{"entity":"task","uid":"t.json","state":"DONE"}`)))
	before, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}

	if err := ReplayDir(dir, func(Record) error { return nil }); err == nil {
		t.Fatal("ReplayDir accepted a legacy JSON record")
	}
	if j, err := OpenDir(dir, Options{}); err == nil {
		j.Close()
		t.Fatal("OpenDir accepted a legacy JSON record")
	}
	if after, err := os.ReadFile(active); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("active segment changed from %d bytes to %d (err=%v)", len(before), len(after), err)
	}
}

// The torn-write sweep: Replay and Open must survive every shape of torn or
// garbage tail — a zero-length final record, a partial header, and a header
// whose length field is garbage (which must not drive a giant allocation) —
// recovering everything before the tear.
func TestReplayTornFinalRecordShapes(t *testing.T) {
	writeValid := func(t *testing.T) (string, int) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "torn.journal")
		j, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			appendState(t, j, uidN(i))
		}
		j.Close()
		return path, 3
	}
	replayCount := func(t *testing.T, path string) int {
		t.Helper()
		n := 0
		if err := Replay(path, func(Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}

	t.Run("zero-length record", func(t *testing.T) {
		path, n := writeValid(t)
		// A header announcing a zero-length payload with a CRC that cannot
		// match (CRC of empty payload is 0, write nonzero).
		hdr := make([]byte, headerLen)
		binary.LittleEndian.PutUint32(hdr[4:8], 0xdeadbeef)
		appendBytes(t, path, hdr)
		if got := replayCount(t, path); got != n {
			t.Fatalf("replayed %d, want %d", got, n)
		}
	})
	t.Run("zero header", func(t *testing.T) {
		path, n := writeValid(t)
		// All-zero header: zero length, CRC 0 — matches the empty payload,
		// but the payload decodes to nothing valid.
		appendBytes(t, path, make([]byte, headerLen))
		if got := replayCount(t, path); got != n {
			t.Fatalf("replayed %d, want %d", got, n)
		}
	})
	t.Run("partial header", func(t *testing.T) {
		path, n := writeValid(t)
		appendBytes(t, path, []byte{0x10, 0x00, 0x00})
		if got := replayCount(t, path); got != n {
			t.Fatalf("replayed %d, want %d", got, n)
		}
	})
	t.Run("garbage length field", func(t *testing.T) {
		path, n := writeValid(t)
		// A torn header whose length bytes are garbage: claims ~4 GiB. The
		// reader must treat it as a torn tail, not attempt the allocation.
		hdr := make([]byte, headerLen)
		binary.LittleEndian.PutUint32(hdr[0:4], 0xfffffff0)
		binary.LittleEndian.PutUint32(hdr[4:8], 0x12345678)
		appendBytes(t, path, hdr)
		if got := replayCount(t, path); got != n {
			t.Fatalf("replayed %d, want %d", got, n)
		}
	})
	t.Run("partial payload", func(t *testing.T) {
		path, n := writeValid(t)
		hdr := make([]byte, headerLen+4)
		binary.LittleEndian.PutUint32(hdr[0:4], 64) // claims 64 bytes, provides 4
		appendBytes(t, path, hdr)
		if got := replayCount(t, path); got != n {
			t.Fatalf("replayed %d, want %d", got, n)
		}
	})

	// Every shape must also reopen cleanly, truncating the tear.
	t.Run("reopen after garbage length", func(t *testing.T) {
		path, _ := writeValid(t)
		hdr := make([]byte, headerLen)
		binary.LittleEndian.PutUint32(hdr[0:4], 0xfffffff0)
		appendBytes(t, path, hdr)
		j, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if seq := appendState(t, j, "task.post"); seq != 4 {
			t.Fatalf("post-recovery seq = %d, want 4", seq)
		}
	})
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentHeaderRecords pins that every segment starts with a decodable
// header record naming its index and base sequence.
func TestSegmentHeaderRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		appendState(t, j, uidN(i))
	}
	j.Close()

	var headers []msgcodec.SegmentHeader
	err = ReplayDir(dir, func(rec Record) error {
		if rec.Type != segTypeName {
			return nil
		}
		h, err := msgcodec.DecodeSegmentHeader(rec.Data)
		if err != nil {
			return err
		}
		if h.BaseSeq != rec.Seq {
			return nil // header records claim the seq they were assigned
		}
		headers = append(headers, h)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) < 2 {
		t.Fatalf("found %d segment headers, want >= 2", len(headers))
	}
	for i, h := range headers {
		if h.Index != uint64(i+1) {
			t.Fatalf("header %d has index %d", i, h.Index)
		}
	}
}
