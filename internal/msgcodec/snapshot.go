package msgcodec

// ---- statedb snapshots ---------------------------------------------------

// SnapEntry is one entity's latest committed state inside a snapshot.
type SnapEntry struct {
	Entity string // "task" | "stage" | "pipeline"
	UID    string
	State  string
}

// Snapshot is the durable image of every entity's latest committed state as
// of journal sequence Watermark: replaying the snapshot and then the journal
// records with seq > Watermark reconstructs exactly the state an unbroken
// replay of the full journal would have produced — which is the invariant
// that makes compacting segments wholly below the watermark safe.
type Snapshot struct {
	Watermark uint64
	Entries   []SnapEntry
}

// EncodeSnapshot encodes a snapshot.
func (Format) EncodeSnapshot(s Snapshot) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameSnapshot)
	buf = appendUvarint(buf, s.Watermark)
	buf = appendUvarint(buf, uint64(len(s.Entries)))
	for i := range s.Entries {
		e := &s.Entries[i]
		buf = appendString(buf, e.Entity)
		buf = appendString(buf, e.UID)
		buf = appendString(buf, e.State)
	}
	return putBuf(bp, buf)
}

// DecodeSnapshot decodes a snapshot.
func DecodeSnapshot(body []byte) (Snapshot, error) {
	var s Snapshot
	r, err := frameReader(body, FrameSnapshot)
	if err != nil {
		return Snapshot{}, err
	}
	if s.Watermark, err = r.uvarint(); err != nil {
		return Snapshot{}, err
	}
	n, err := r.count()
	if err != nil {
		return Snapshot{}, err
	}
	if n > 0 {
		s.Entries = make([]SnapEntry, n)
		for i := range s.Entries {
			e := &s.Entries[i]
			if e.Entity, err = r.str(); err != nil {
				return Snapshot{}, err
			}
			if e.UID, err = r.str(); err != nil {
				return Snapshot{}, err
			}
			if e.State, err = r.str(); err != nil {
				return Snapshot{}, err
			}
		}
	}
	return s, nil
}

// ---- journal segment headers ---------------------------------------------

// SegmentHeader is the payload of the first record of every journal
// segment: the segment's index (also encoded in its file name) and the
// journal sequence number of the header record itself. Replay uses it to
// sanity-label segments; recovery tooling uses it to tell where a segment
// sits in the sequence space without scanning the predecessor.
type SegmentHeader struct {
	Index   uint64
	BaseSeq uint64
}

// EncodeSegmentHeader encodes a segment header.
func (Format) EncodeSegmentHeader(h SegmentHeader) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameSegmentHdr)
	buf = appendUvarint(buf, h.Index)
	buf = appendUvarint(buf, h.BaseSeq)
	return putBuf(bp, buf)
}

// DecodeSegmentHeader decodes a segment header.
func DecodeSegmentHeader(body []byte) (SegmentHeader, error) {
	var h SegmentHeader
	r, err := frameReader(body, FrameSegmentHdr)
	if err != nil {
		return SegmentHeader{}, err
	}
	if h.Index, err = r.uvarint(); err != nil {
		return SegmentHeader{}, err
	}
	if h.BaseSeq, err = r.uvarint(); err != nil {
		return SegmentHeader{}, err
	}
	return h, nil
}
