package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/msgcodec"
)

// appendRec appends one record with an opaque payload and returns its seq.
func appendRec(t *testing.T, j *Journal, recType, data string) uint64 {
	t.Helper()
	seq, err := j.AppendRaw(recType, []byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.journal")
}

func TestAppendAndReplay(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if seq := appendRec(t, j, "task.state", fmt.Sprintf("t%d", i)); seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var got []string
	err = Replay(path, func(rec Record) error {
		if rec.Type != "task.state" {
			t.Fatalf("unexpected type %q", rec.Type)
		}
		got = append(got, string(rec.Data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, data := range got {
		if want := fmt.Sprintf("t%d", i); data != want {
			t.Fatalf("record %d has data %q, want %q", i, data, want)
		}
	}
}

func TestReplayMissingFileIsNoop(t *testing.T) {
	err := Replay(filepath.Join(t.TempDir(), "absent.journal"), func(Record) error {
		t.Fatal("callback invoked for missing file")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReopenResumesSequence(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, j, "a", "1")
	appendRec(t, j, "a", "2")
	j.Close()

	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if seq := appendRec(t, j2, "a", "3"); seq != 3 {
		t.Fatalf("resumed seq = %d, want 3", seq)
	}
}

func TestTornTailIsDiscarded(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendRec(t, j, "x", fmt.Sprint(i))
	}
	j.Close()

	// Simulate a crash mid-append: truncate the file inside the last record.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	var count int
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", count)
	}

	// Reopening must resume at seq 4 and append cleanly.
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if seq := appendRec(t, j2, "x", "99"); seq != 5 {
		t.Fatalf("post-recovery seq = %d, want 5", seq)
	}
	count = 0
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("replayed %d records after recovery append, want 5", count)
	}
}

func TestCorruptedPayloadStopsReplay(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, j, "x", "1")
	appendRec(t, j, "x", "2")
	j.Close()

	// Flip a byte inside the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var count int
	if err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records with corrupt tail, want 1", count)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := j.AppendRaw("x", nil); err != ErrClosed {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := j.AppendRaw("c", []byte(fmt.Sprintf("w%d.%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()

	var count int
	seqs := map[uint64]bool{}
	err = Replay(path, func(rec Record) error {
		count++
		if seqs[rec.Seq] {
			t.Fatalf("duplicate seq %d", rec.Seq)
		}
		seqs[rec.Seq] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != writers*perWriter {
		t.Fatalf("replayed %d, want %d", count, writers*perWriter)
	}
}

// Property: any sequence of appended payloads replays back identically, in
// order, regardless of content.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, types []string) bool {
		path := filepath.Join(t.TempDir(), "prop.journal")
		j, err := Open(path, Options{})
		if err != nil {
			return false
		}
		for i, data := range payloads {
			recType := "p"
			if i < len(types) {
				recType = types[i]
			}
			if _, err := j.AppendRaw(recType, data); err != nil {
				return false
			}
		}
		j.Close()
		var got []Record
		if err := Replay(path, func(rec Record) error {
			got = append(got, rec)
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(payloads) {
			return false
		}
		for i, rec := range got {
			if rec.Seq != uint64(i+1) || !bytes.Equal(rec.Data, payloads[i]) ||
				(i < len(types) && rec.Type != types[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// framed wraps an arbitrary payload in the journal's [len][CRC32] outer
// framing, so the payload passes its CRC whatever it holds.
func framed(payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerLen:], payload)
	return buf
}

// legacyJSONRecord is a record payload in the JSON framing older builds
// wrote: a {"seq","type","data"} document with the data embedded verbatim.
func legacyJSONRecord(seq uint64, recType, data string) []byte {
	return []byte(fmt.Sprintf(`{"seq":%d,"type":%q,"data":%s}`, seq, recType, data))
}

// futureVersionRecord is a binary journal record whose version byte is one
// past what this build speaks.
func futureVersionRecord(seq uint64) []byte {
	rec := msgcodec.AppendJournalRec(nil, seq, "state", msgcodec.FormatBinary.EncodeStateRec("task", "t.x", "DONE"))
	rec[1] = msgcodec.Version + 1
	return rec
}

// assertRejected checks that Replay and Open both fail on the journal at
// path after replaying its valid prefix of want records, and that neither
// changes the file.
func assertRejected(t *testing.T, path string, want int) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Replay(path, func(Record) error { n++; return nil }); err == nil {
		t.Fatal("Replay accepted an intact record it cannot decode")
	}
	if n != want {
		t.Fatalf("Replay delivered %d records before the error, want %d", n, want)
	}
	if j, err := Open(path, Options{}); err == nil {
		j.Close()
		t.Fatal("Open accepted an intact record it cannot decode")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("journal changed from %d to %d bytes", len(before), len(after))
	}
}

// TestJSONJournalReplayCompat pins the upgrade boundary: a journal holding
// a record in the JSON framing older builds wrote fails Replay and Open with
// an error instead of being truncated away as a torn tail.
func TestJSONJournalReplayCompat(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, j, "state", "binary")
	j.Close()
	appendBytes(t, path, framed(legacyJSONRecord(2, "state", `{"entity":"task","uid":"task.0001","state":"DONE"}`)))
	assertRejected(t, path, 1)
}

// TestMixedFramingJournal pins the same boundary for a record from a build
// with a newer wire version: it is an error, not a torn tail.
func TestMixedFramingJournal(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, j, "state", "a")
	appendRec(t, j, "state", "b")
	j.Close()
	appendBytes(t, path, framed(futureVersionRecord(3)))
	assertRejected(t, path, 2)
}
