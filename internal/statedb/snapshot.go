package statedb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/msgcodec"
)

// Snapshot persistence: the durability layer's periodic image of the
// database's latest states, written next to the journal segments it makes
// compactable. A snapshot file holds one length-prefixed, CRC-protected
// msgcodec Snapshot frame (0x09) — the same [len][crc32][payload] framing
// journal records use — and is written to a temporary file and renamed into
// place, so a crash mid-snapshot leaves either the previous snapshot or a
// stray .tmp file, never a half-readable one. Loaders additionally validate
// the length and CRC and skip torn files, falling back to the next-newest
// snapshot; an intact file that does not decode is an error.

// snapPrefix/snapSuffix define the snapshot naming scheme,
// "snapshot-<watermark>.snap" with the watermark as fixed-width hex so
// lexical order equals watermark order (docs/wire-format.md).
const (
	snapPrefix = "snapshot-"
	snapSuffix = ".snap"
)

// snapHeaderLen is the payload length + CRC32 prefix of a snapshot file.
const snapHeaderLen = 4 + 4

// keepSnapshots is how many generations WriteSnapshot retains: the new
// snapshot plus one predecessor, so a reader racing the pruner (or a torn
// newest file after a crash) still finds a valid fallback.
const keepSnapshots = 2

// SnapshotName returns the file name of the snapshot at the given
// watermark: snapshot-00000000000003e8.snap.
func SnapshotName(watermark uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, watermark, snapSuffix)
}

// parseSnapshotName extracts the watermark from a snapshot file name.
func parseSnapshotName(name string) (uint64, bool) {
	if len(name) != len(snapPrefix)+16+len(snapSuffix) ||
		name[:len(snapPrefix)] != snapPrefix ||
		name[len(name)-len(snapSuffix):] != snapSuffix {
		return 0, false
	}
	var wm uint64
	for _, c := range []byte(name[len(snapPrefix) : len(snapPrefix)+16]) {
		switch {
		case c >= '0' && c <= '9':
			wm = wm<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			wm = wm<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return wm, true
}

// SnapshotEntries exports the database's latest state per entity as
// snapshot entries, sorted by entity kind then UID so snapshots of the same
// state are byte-identical.
func (db *DB) SnapshotEntries() []msgcodec.SnapEntry {
	db.mu.Lock()
	entries := make([]msgcodec.SnapEntry, 0, len(db.latest))
	for k, rec := range db.latest {
		entries = append(entries, msgcodec.SnapEntry{Entity: k.Entity, UID: k.UID, State: rec.State})
	}
	db.mu.Unlock()
	sort.Slice(entries, func(i, k int) bool {
		if entries[i].Entity != entries[k].Entity {
			return entries[i].Entity < entries[k].Entity
		}
		return entries[i].UID < entries[k].UID
	})
	return entries
}

// Restore seeds the database with snapshot entries (committed in order).
// Typically called on a fresh DB before overlaying the journal tail.
func (db *DB) Restore(entries []msgcodec.SnapEntry) error {
	for _, e := range entries {
		if err := db.SaveState(e.Entity, e.UID, e.State); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot atomically persists snap into dir, returning the snapshot
// file's path. On success, snapshot generations older than the newest
// keepSnapshots are pruned (best effort).
func WriteSnapshot(dir string, snap msgcodec.Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("statedb: snapshot mkdir: %w", err)
	}
	payload := msgcodec.FormatBinary.EncodeSnapshot(snap)
	buf := make([]byte, snapHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[snapHeaderLen:], payload)

	path := filepath.Join(dir, SnapshotName(snap.Watermark))
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("statedb: snapshot create: %w", err)
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("statedb: snapshot write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("statedb: snapshot sync: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("statedb: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("statedb: snapshot rename: %w", err)
	}
	pruneSnapshots(dir)
	return path, nil
}

// pruneSnapshots removes all but the newest keepSnapshots snapshot files.
// Best effort: pruning failures leave extra files, never lose data.
func pruneSnapshots(dir string) {
	watermarks, byWM := listSnapshots(dir)
	for i, wm := range watermarks {
		if i >= keepSnapshots {
			os.Remove(byWM[wm]) //nolint:errcheck
		}
	}
}

// listSnapshots returns the snapshot watermarks in dir, newest first, and
// the path per watermark.
func listSnapshots(dir string) ([]uint64, map[uint64]string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	byWM := map[uint64]string{}
	var wms []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		wm, ok := parseSnapshotName(e.Name())
		if !ok {
			continue
		}
		byWM[wm] = filepath.Join(dir, e.Name())
		wms = append(wms, wm)
	}
	sort.Slice(wms, func(i, k int) bool { return wms[i] > wms[k] })
	return wms, byWM
}

// LoadLatestSnapshot returns the newest valid snapshot in dir. A torn or
// truncated snapshot file is skipped in favor of the next-newest one — the
// crash-mid-snapshot fallback. An intact file (length and CRC check out)
// that does not decode was written by an incompatible build; it is an
// error, because its predecessor may cover less than the journal tail that
// compaction kept. ok is false when no valid snapshot exists (including a
// missing directory).
func LoadLatestSnapshot(dir string) (snap msgcodec.Snapshot, ok bool, err error) {
	wms, byWM := listSnapshots(dir)
	for _, wm := range wms {
		s, valid, err := readSnapshot(byWM[wm])
		if err != nil {
			return msgcodec.Snapshot{}, false, err
		}
		if valid {
			return s, true, nil
		}
	}
	return msgcodec.Snapshot{}, false, nil
}

// readSnapshot decodes one snapshot file, reporting validity. A torn file
// is invalid; an intact one that does not decode is an error.
func readSnapshot(path string) (msgcodec.Snapshot, bool, error) {
	buf, err := os.ReadFile(path)
	if err != nil || len(buf) < snapHeaderLen {
		return msgcodec.Snapshot{}, false, nil
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if n == 0 || int(n) != len(buf)-snapHeaderLen {
		return msgcodec.Snapshot{}, false, nil
	}
	payload := buf[snapHeaderLen:]
	if crc32.ChecksumIEEE(payload) != crc {
		return msgcodec.Snapshot{}, false, nil
	}
	s, err := msgcodec.DecodeSnapshot(payload)
	if err != nil {
		return msgcodec.Snapshot{}, false, fmt.Errorf("statedb: snapshot %s is intact but does not decode: %w", path, err)
	}
	return s, true, nil
}
