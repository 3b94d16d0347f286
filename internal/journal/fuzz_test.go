package journal

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/msgcodec"
)

// allocSlack bounds the fixed allocations of one ReplayDir or OpenDir call
// (directory listing, file handles, error values), beyond the per-record
// buffers that the file size bounds.
const allocSlack = 256 << 10

// FuzzReplayDir feeds arbitrary bytes to ReplayDir and OpenDir as the only
// segment of a journal directory. Neither may panic, and neither may
// allocate beyond a small multiple of the file size: a garbage length field
// must never drive an allocation. When both succeed they agree on the
// resume sequence.
func FuzzReplayDir(f *testing.F) {
	rec := func(seq uint64, recType string, data []byte) []byte {
		return framed(msgcodec.AppendJournalRec(nil, seq, recType, data))
	}
	var valid []byte
	valid = append(valid, rec(1, segTypeName, msgcodec.FormatBinary.EncodeSegmentHeader(msgcodec.SegmentHeader{Index: 1, BaseSeq: 1}))...)
	valid = append(valid, rec(2, "state", msgcodec.FormatBinary.EncodeStateRec("task", "t.1", "DONE"))...)
	valid = append(valid, rec(3, "state", msgcodec.FormatBinary.EncodeStateRec("task", "t.2", "DONE"))...)
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), framed(legacyJSONRecord(4, "state", `{"entity":"task","uid":"t.3","state":"DONE"}`))...))
	f.Add(valid[:len(valid)-5])
	f.Add(append(append([]byte(nil), valid...), framed(futureVersionRecord(4))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var last uint64
		replayErr := boundAllocs(t, len(data), func() error {
			return ReplayDir(dir, func(r Record) error { last = r.Seq; return nil })
		})
		var j *Journal
		openErr := boundAllocs(t, len(data), func() (err error) {
			j, err = OpenDir(dir, Options{})
			return err
		})
		if (replayErr == nil) != (openErr == nil) {
			t.Fatalf("ReplayDir err=%v but OpenDir err=%v", replayErr, openErr)
		}
		if j != nil {
			if got := j.Seq(); got != last {
				t.Fatalf("OpenDir resumes at seq %d, ReplayDir ended at %d", got, last)
			}
			j.Close()
		}
	})
}

// boundAllocs runs fn and fails t if it allocated more than twice size
// plus allocSlack bytes.
func boundAllocs(t *testing.T, size int, fn func() error) error {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*size+allocSlack); got > limit {
		t.Fatalf("allocated %d bytes for a %d-byte file (limit %d)", got, size, limit)
	}
	return err
}
