// Package journal implements the append-only transactional log that backs
// EnTK's fault-tolerance guarantees (paper §II-B4: "All state updates in EnTK
// are transactional ... EnTK can reacquire upon restarting information about
// the state of the execution up to the latest successful transaction").
//
// The journal substitutes both RabbitMQ's message durability and the external
// database the paper mentions as a hook. Records are length-prefixed and
// CRC-protected so a partially written trailing record (a crash mid-append)
// is detected and discarded during replay instead of corrupting recovery.
// Each CRC-protected payload is a msgcodec journal-record frame (0x06). A
// payload that passes its CRC but does not decode — a record written by a
// JSON-format build, or by a build with a newer wire version — fails replay
// and Open with an error and leaves the file untouched.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/msgcodec"
)

// Record is a single journal entry. Type namespaces the payload (for example
// "task.state" or "broker.publish"); Seq is assigned by the journal and is
// strictly increasing within a file. Data holds the record's opaque payload,
// usually a msgcodec frame decoded by the matching msgcodec decoder (for
// example DecodeStateRec).
type Record struct {
	Seq  uint64
	Type string
	Data []byte
}

// Journal is an append-only, crash-consistent record log. It is safe for
// concurrent use. A journal opened with Open writes one flat file; one
// opened with OpenDir writes numbered segment files that rotate at
// Options.SegmentBytes and can be compacted below a snapshot watermark.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	seq    uint64
	sync   bool
	buf    []byte // scratch for header + payload, reused under mu
	closed bool

	// Segmented (OpenDir) state. dir is empty for flat journals.
	dir      string
	segBytes int64
	segIndex uint64        // index of the active segment
	segFirst uint64        // first record seq in the active segment (0: none)
	size     int64         // bytes written to the active segment
	sealed   []SegmentInfo // closed segments, ascending index
}

// Options configure journal behaviour.
type Options struct {
	// Sync forces an fsync after every append. Slower, but a crash loses at
	// most the record being written. Off by default: the OS flushes on close.
	Sync bool
	// SegmentBytes is the rotation threshold for segmented journals
	// (OpenDir): once the active segment reaches this many bytes, it is
	// sealed and a fresh segment opened. 0 selects DefaultSegmentBytes.
	// Ignored by Open.
	SegmentBytes int64
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

const headerLen = 4 + 4 // payload length + CRC32 of payload

// maxRetainedScratch bounds the append scratch buffer kept across records.
const maxRetainedScratch = 64 << 10

// Open creates or opens the journal file at path for appending. Existing
// records are preserved; the sequence counter resumes after the last valid
// record, and a torn tail is truncated. An intact record that does not
// decode fails Open and leaves the file untouched.
func Open(path string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: mkdir: %w", err)
	}
	// Determine the resume sequence (and truncate a torn tail if present).
	last, validLen, err := scan(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seek: %w", err)
	}
	return &Journal{f: f, path: path, seq: last, sync: opts.Sync}, nil
}

// fileInfo summarizes one journal file's valid prefix.
type fileInfo struct {
	firstSeq uint64 // 0 when the file holds no valid record
	lastSeq  uint64
	validLen int64
}

// scanFile walks the journal file at path, invoking fn (when non-nil) for
// every valid record, and returns the file's valid-prefix summary. A torn
// tail — truncated header, truncated payload, a length field pointing past
// the end of the file (a crash can tear the header itself, leaving garbage
// bytes where the length lives), an empty payload (an all-zero header) or a
// CRC mismatch — terminates the walk at the last valid record instead of
// failing it. The length field is validated against the bytes actually
// remaining before the payload is allocated, so a garbage length can never
// drive a multi-gigabyte allocation. A non-empty payload that passes its
// CRC but does not decode was written whole by an incompatible build; it is
// an error, never a torn tail, so callers stop before truncating it away.
func scanFile(path string, fn func(Record) error) (fileInfo, error) {
	var info fileInfo
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, fmt.Errorf("journal: scan: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return info, fmt.Errorf("journal: scan: %w", err)
	}
	size := st.Size()
	hdr := make([]byte, headerLen)
	for {
		if size-info.validLen < int64(headerLen) {
			return info, nil // clean EOF or torn header: stop here
		}
		if _, err := io.ReadFull(f, hdr); err != nil {
			return info, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || int64(n) > size-info.validLen-int64(headerLen) {
			return info, nil // empty, torn or garbage length: treat as tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return info, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return info, nil // corrupted record: treat as tail
		}
		seq, recType, data, err := msgcodec.DecodeJournalRec(payload)
		if err != nil {
			return info, fmt.Errorf("journal: %s: intact record at offset %d does not decode: %w", path, info.validLen, err)
		}
		if fn != nil {
			if err := fn(Record{Seq: seq, Type: recType, Data: data}); err != nil {
				return info, err
			}
		}
		if info.firstSeq == 0 {
			info.firstSeq = seq
		}
		info.lastSeq = seq
		info.validLen += int64(headerLen) + int64(n)
	}
}

// scan returns the last valid sequence number and the byte length of the
// valid prefix of the journal file at path.
func scan(path string) (lastSeq uint64, validLen int64, err error) {
	info, err := scanFile(path, nil)
	return info.lastSeq, info.validLen, err
}

// AppendRaw appends a record whose payload is already encoded (usually a
// msgcodec frame), returning the assigned sequence number. The record
// framing reuses the journal's scratch buffer, so the append allocates
// nothing in steady state.
func (j *Journal) AppendRaw(recType string, data []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq, err := j.appendLocked(recType, data)
	if err != nil {
		return 0, err
	}
	// Rotate after the append so the record that crossed the threshold
	// stays in the segment it was assigned to.
	if j.dir != "" && j.size >= j.segBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// appendLocked writes one record to the active file; j.mu must be held.
func (j *Journal) appendLocked(recType string, data []byte) (uint64, error) {
	if j.closed {
		return 0, ErrClosed
	}
	seq := j.seq + 1
	// Build header + payload in one scratch buffer and write once.
	buf := append(j.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	buf = msgcodec.AppendJournalRec(buf, seq, recType, data)
	payload := buf[headerLen:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	// Retain the scratch only while it is modestly sized: one oversized
	// record (a large durable publish batch) must not pin its buffer for
	// the journal's lifetime.
	if cap(buf) <= maxRetainedScratch {
		j.buf = buf
	} else {
		j.buf = nil
	}
	if _, err := j.f.Write(buf); err != nil {
		return 0, fmt.Errorf("journal: write: %w", err)
	}
	j.seq = seq
	j.size += int64(len(buf))
	if j.segFirst == 0 {
		j.segFirst = seq
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return 0, fmt.Errorf("journal: sync: %w", err)
		}
	}
	return j.seq, nil
}

// Seq returns the sequence number of the most recently appended record.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Replay reads every valid record in the journal at path, in order,
// invoking fn for each. A zero-length, torn or corrupted tail (including a
// torn header whose length field is garbage) terminates replay silently at
// the last valid record, matching crash-recovery semantics. An intact
// record that does not decode is an error (see scanFile). Replay of a
// non-existent file is a no-op.
func Replay(path string, fn func(Record) error) error {
	_, err := scanFile(path, fn)
	return err
}
