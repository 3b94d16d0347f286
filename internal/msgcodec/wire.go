package msgcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// ---- binary primitives ---------------------------------------------------
//
// Fields are varints (unsigned for counts/sequence numbers, zigzag for
// signed values), length-prefixed byte strings, single-byte booleans and a
// flagged varint for timestamps (so the zero time round-trips exactly).

var errTruncated = errors.New("msgcodec: truncated frame")

func appendHeader(buf []byte, typ byte) []byte {
	return append(buf, Magic, Version, typ)
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = appendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendTime encodes a timestamp as a zero flag plus Unix nanoseconds. The
// zero time gets its own flag because time.Time{}.UnixNano() does not
// round-trip.
func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return appendVarint(buf, t.UnixNano())
}

// reader walks a binary frame payload with exhaustive bounds checking: a
// malformed or truncated frame yields an error from every method, never a
// panic (FuzzDecodeFrame pins this).
type reader struct{ b []byte }

// frameReader validates the three-byte header and positions a reader at the
// payload.
func frameReader(body []byte, want byte) (reader, error) {
	if len(body) < 3 {
		return reader{}, errTruncated
	}
	if body[0] != Magic {
		return reader{}, fmt.Errorf("msgcodec: bad magic byte 0x%02x", body[0])
	}
	if body[1] == 0 || body[1] > Version {
		return reader{}, fmt.Errorf("msgcodec: unsupported wire version %d (this build speaks <= %d)", body[1], Version)
	}
	if body[2] != want {
		return reader{}, fmt.Errorf("msgcodec: frame type 0x%02x, want 0x%02x", body[2], want)
	}
	return reader{b: body[3:]}, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, errTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads an element count, bounding it by the bytes remaining so a
// hostile length prefix cannot drive an over-allocation.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)) {
		return 0, fmt.Errorf("msgcodec: element count %d exceeds remaining frame (%d bytes)", v, len(r.b))
	}
	return int(v), nil
}

// bytes returns the next length-prefixed field, aliasing the frame.
func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, errTruncated
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *reader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *reader) bool() (bool, error) {
	if len(r.b) < 1 {
		return false, errTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0, nil
}

func (r *reader) time() (time.Time, error) {
	set, err := r.bool()
	if err != nil || !set {
		return time.Time{}, err
	}
	ns, err := r.varint()
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(0, ns), nil
}

// ---- synchronizer transition frames -------------------------------------

// SyncRequest asks the Synchronizer to move one entity — or (UIDs) a batch
// of entities, EnTK's bulk state updates — along an ordered transition
// path: every entity takes Path[0], then every entity takes Path[1], and
// so on. A path names its UID list once however many steps it has, so the
// paired bulk transitions (SCHEDULING then SCHEDULED, SUBMITTING then
// SUBMITTED, EXECUTED then DONE) cost one list, not two.
type SyncRequest struct {
	Entity string // "task" | "stage" | "pipeline"
	UID    string
	UIDs   []string
	Path   []string // target states, applied in order
	// Result metadata piggybacked on task transitions.
	ExitCode int
	ExecErr  string
}

// SyncFrame carries one component's transition requests to the Synchronizer
// in a single message with a single acknowledgement. Batching requests into
// one frame is what turns a stage's synchronization traffic from O(tasks)
// round-trips into O(1): a 64-task stage schedules with one frame holding
// its stage and bulk-task transitions.
type SyncFrame struct {
	Reply string // ack queue
	Seq   uint64
	Reqs  []SyncRequest
}

// SyncAck is the Synchronizer's acknowledgement of one frame: OK when every
// request committed (or was absorbed as a documented no-op), otherwise the
// first failure.
type SyncAck struct {
	Seq uint64
	OK  bool
	Err string
}

// EncodeSyncFrame encodes a transition frame.
func (Format) EncodeSyncFrame(fr SyncFrame) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameSyncFrame)
	buf = appendString(buf, fr.Reply)
	buf = appendUvarint(buf, fr.Seq)
	buf = appendUvarint(buf, uint64(len(fr.Reqs)))
	for i := range fr.Reqs {
		req := &fr.Reqs[i]
		buf = appendString(buf, req.Entity)
		buf = appendUvarint(buf, uint64(len(req.Path)))
		for _, to := range req.Path {
			buf = appendString(buf, to)
		}
		buf = appendString(buf, req.UID)
		buf = appendUvarint(buf, uint64(len(req.UIDs)))
		for _, uid := range req.UIDs {
			buf = appendString(buf, uid)
		}
		buf = appendVarint(buf, int64(req.ExitCode))
		buf = appendString(buf, req.ExecErr)
	}
	return putBuf(bp, buf)
}

// DecodeSyncFrame decodes a transition frame.
func DecodeSyncFrame(body []byte) (SyncFrame, error) {
	var fr SyncFrame
	r, err := frameReader(body, FrameSyncFrame)
	if err != nil {
		return SyncFrame{}, err
	}
	if fr.Reply, err = r.str(); err != nil {
		return SyncFrame{}, err
	}
	if fr.Seq, err = r.uvarint(); err != nil {
		return SyncFrame{}, err
	}
	n, err := r.count()
	if err != nil {
		return SyncFrame{}, err
	}
	fr.Reqs = make([]SyncRequest, n)
	for i := range fr.Reqs {
		req := &fr.Reqs[i]
		if req.Entity, err = r.str(); err != nil {
			return SyncFrame{}, err
		}
		steps, err := r.count()
		if err != nil {
			return SyncFrame{}, err
		}
		if steps > 0 {
			req.Path = make([]string, steps)
			for k := range req.Path {
				if req.Path[k], err = r.str(); err != nil {
					return SyncFrame{}, err
				}
			}
		}
		if req.UID, err = r.str(); err != nil {
			return SyncFrame{}, err
		}
		m, err := r.count()
		if err != nil {
			return SyncFrame{}, err
		}
		if m > 0 {
			req.UIDs = make([]string, m)
			for k := range req.UIDs {
				if req.UIDs[k], err = r.str(); err != nil {
					return SyncFrame{}, err
				}
			}
		}
		ec, err := r.varint()
		if err != nil {
			return SyncFrame{}, err
		}
		req.ExitCode = int(ec)
		if req.ExecErr, err = r.str(); err != nil {
			return SyncFrame{}, err
		}
	}
	return fr, nil
}

// EncodeSyncAck encodes an acknowledgement.
func (Format) EncodeSyncAck(ack SyncAck) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameSyncAck)
	buf = appendUvarint(buf, ack.Seq)
	buf = appendBool(buf, ack.OK)
	buf = appendString(buf, ack.Err)
	return putBuf(bp, buf)
}

// DecodeSyncAck decodes an acknowledgement.
func DecodeSyncAck(body []byte) (SyncAck, error) {
	var ack SyncAck
	r, err := frameReader(body, FrameSyncAck)
	if err != nil {
		return SyncAck{}, err
	}
	if ack.Seq, err = r.uvarint(); err != nil {
		return SyncAck{}, err
	}
	if ack.OK, err = r.bool(); err != nil {
		return SyncAck{}, err
	}
	if ack.Err, err = r.str(); err != nil {
		return SyncAck{}, err
	}
	return ack, nil
}

// ---- done-queue task-result batches -------------------------------------

// TaskResult is the RTS's report of one finished task attempt, as carried
// on the done queue.
type TaskResult struct {
	UID      string
	ExitCode int
	Error    string
	Canceled bool
	// Started and Finished bound the executable's run (virtual time).
	Started  time.Time
	Finished time.Time
	// StagingTime is the virtual time spent staging this task's data.
	StagingTime time.Duration
}

// EncodeTaskResults encodes a done-queue result batch. The error is always
// nil; the signature predates the binary-only codec and is kept for callers.
func (Format) EncodeTaskResults(rs []TaskResult) ([]byte, error) {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameTaskResults)
	buf = appendUvarint(buf, uint64(len(rs)))
	for i := range rs {
		res := &rs[i]
		buf = appendString(buf, res.UID)
		buf = appendVarint(buf, int64(res.ExitCode))
		buf = appendString(buf, res.Error)
		buf = appendBool(buf, res.Canceled)
		buf = appendTime(buf, res.Started)
		buf = appendTime(buf, res.Finished)
		buf = appendVarint(buf, int64(res.StagingTime))
	}
	return putBuf(bp, buf), nil
}

// DecodeTaskResults decodes a done-queue result batch.
func DecodeTaskResults(body []byte) ([]TaskResult, error) {
	r, err := frameReader(body, FrameTaskResults)
	if err != nil {
		return nil, err
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	rs := make([]TaskResult, n)
	for i := range rs {
		res := &rs[i]
		if res.UID, err = r.str(); err != nil {
			return nil, err
		}
		ec, err := r.varint()
		if err != nil {
			return nil, err
		}
		res.ExitCode = int(ec)
		if res.Error, err = r.str(); err != nil {
			return nil, err
		}
		if res.Canceled, err = r.bool(); err != nil {
			return nil, err
		}
		if res.Started, err = r.time(); err != nil {
			return nil, err
		}
		if res.Finished, err = r.time(); err != nil {
			return nil, err
		}
		st, err := r.varint()
		if err != nil {
			return nil, err
		}
		res.StagingTime = time.Duration(st)
	}
	return rs, nil
}

// ---- Fig 6 prototype task bodies ----------------------------------------

// Fig6Task is the task object the Fig 6 prototype benchmark pushes through
// the queues, shaped like an EnTK task description.
type Fig6Task struct {
	UID        string
	Executable string
	Arguments  []string
	Cores      int
}

// EncodeFig6Task encodes one prototype task body.
func (Format) EncodeFig6Task(t *Fig6Task) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameFig6Task)
	buf = appendString(buf, t.UID)
	buf = appendString(buf, t.Executable)
	buf = appendUvarint(buf, uint64(len(t.Arguments)))
	for _, a := range t.Arguments {
		buf = appendString(buf, a)
	}
	buf = appendVarint(buf, int64(t.Cores))
	return putBuf(bp, buf)
}

// DecodeFig6Task decodes one prototype task body into t.
func DecodeFig6Task(body []byte, t *Fig6Task) error {
	r, err := frameReader(body, FrameFig6Task)
	if err != nil {
		return err
	}
	if t.UID, err = r.str(); err != nil {
		return err
	}
	if t.Executable, err = r.str(); err != nil {
		return err
	}
	n, err := r.count()
	if err != nil {
		return err
	}
	t.Arguments = nil
	if n > 0 {
		t.Arguments = make([]string, n)
		for i := range t.Arguments {
			if t.Arguments[i], err = r.str(); err != nil {
				return err
			}
		}
	}
	c, err := r.varint()
	if err != nil {
		return err
	}
	t.Cores = int(c)
	return nil
}

// ---- journaled state-transition records ---------------------------------

// StateRec is the journal payload of one committed state transition.
type StateRec struct {
	Entity string
	UID    string
	State  string
}

// EncodeStateRec encodes one state record.
func (Format) EncodeStateRec(entity, uid, state string) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameStateRec)
	buf = appendString(buf, entity)
	buf = appendString(buf, uid)
	buf = appendString(buf, state)
	return putBuf(bp, buf)
}

// DecodeStateRec decodes a state record.
func DecodeStateRec(body []byte) (StateRec, error) {
	var sr StateRec
	r, err := frameReader(body, FrameStateRec)
	if err != nil {
		return StateRec{}, err
	}
	if sr.Entity, err = r.str(); err != nil {
		return StateRec{}, err
	}
	if sr.UID, err = r.str(); err != nil {
		return StateRec{}, err
	}
	if sr.State, err = r.str(); err != nil {
		return StateRec{}, err
	}
	return sr, nil
}

// ---- journaled RTS task-store audit records -----------------------------

// StoreRec is the journal payload of one RTS task-store operation: one
// record per Push or Pull batch, covering every task the call moved.
type StoreRec struct {
	UIDs []string
	Op   string // "push" | "pull"
}

// EncodeStoreRec encodes one store audit record.
func (Format) EncodeStoreRec(op string, uids []string) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameStoreRec)
	buf = appendString(buf, op)
	buf = appendUvarint(buf, uint64(len(uids)))
	for _, uid := range uids {
		buf = appendString(buf, uid)
	}
	return putBuf(bp, buf)
}

// DecodeStoreRec decodes a store audit record.
func DecodeStoreRec(body []byte) (StoreRec, error) {
	var sr StoreRec
	r, err := frameReader(body, FrameStoreRec)
	if err != nil {
		return StoreRec{}, err
	}
	if sr.Op, err = r.str(); err != nil {
		return StoreRec{}, err
	}
	n, err := r.count()
	if err != nil {
		return StoreRec{}, err
	}
	if n > 0 {
		sr.UIDs = make([]string, n)
		for i := range sr.UIDs {
			if sr.UIDs[i], err = r.str(); err != nil {
				return StoreRec{}, err
			}
		}
	}
	return sr, nil
}

// ---- journal record framing ---------------------------------------------

// AppendJournalRec appends the binary framing of one journal record
// (sequence number, type, opaque payload) to dst and returns the extended
// slice. The journal owns the destination buffer, so the append itself
// allocates nothing in steady state.
func AppendJournalRec(dst []byte, seq uint64, recType string, data []byte) []byte {
	dst = appendHeader(dst, FrameJournalRec)
	dst = appendUvarint(dst, seq)
	dst = appendString(dst, recType)
	return appendBytes(dst, data)
}

// DecodeJournalRec decodes a binary journal record. data aliases payload.
func DecodeJournalRec(payload []byte) (seq uint64, recType string, data []byte, err error) {
	r, err := frameReader(payload, FrameJournalRec)
	if err != nil {
		return 0, "", nil, err
	}
	if seq, err = r.uvarint(); err != nil {
		return 0, "", nil, err
	}
	if recType, err = r.str(); err != nil {
		return 0, "", nil, err
	}
	if data, err = r.bytes(); err != nil {
		return 0, "", nil, err
	}
	return seq, recType, data, nil
}

// ---- broker durability records ------------------------------------------

// BrokerMsg is one message of a batched durable publish record.
type BrokerMsg struct {
	ID   uint64
	Body []byte
}

// BrokerPublish is the durable-queue record of one published message.
type BrokerPublish struct {
	Queue string
	ID    uint64
	Body  []byte
}

// BrokerAck is the durable-queue record of one settled message.
type BrokerAck struct {
	Queue string
	ID    uint64
}

// BrokerPublishBatch is the durable-queue record of one publish batch.
type BrokerPublishBatch struct {
	Queue string
	Msgs  []BrokerMsg
}

// BrokerAckBatch is the durable-queue record of one ack batch.
type BrokerAckBatch struct {
	Queue string
	IDs   []uint64
}

// EncodeBrokerPublish encodes a publish record.
func (Format) EncodeBrokerPublish(queue string, id uint64, body []byte) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameBrokerPublish)
	buf = appendString(buf, queue)
	buf = appendUvarint(buf, id)
	buf = appendBytes(buf, body)
	return putBuf(bp, buf)
}

// DecodeBrokerPublish decodes a publish record.
func DecodeBrokerPublish(payload []byte) (BrokerPublish, error) {
	var p BrokerPublish
	r, err := frameReader(payload, FrameBrokerPublish)
	if err != nil {
		return BrokerPublish{}, err
	}
	if p.Queue, err = r.str(); err != nil {
		return BrokerPublish{}, err
	}
	if p.ID, err = r.uvarint(); err != nil {
		return BrokerPublish{}, err
	}
	if p.Body, err = r.bytes(); err != nil {
		return BrokerPublish{}, err
	}
	return p, nil
}

// EncodeBrokerAck encodes an ack record.
func (Format) EncodeBrokerAck(queue string, id uint64) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameBrokerAck)
	buf = appendString(buf, queue)
	buf = appendUvarint(buf, id)
	return putBuf(bp, buf)
}

// DecodeBrokerAck decodes an ack record.
func DecodeBrokerAck(payload []byte) (BrokerAck, error) {
	var a BrokerAck
	r, err := frameReader(payload, FrameBrokerAck)
	if err != nil {
		return BrokerAck{}, err
	}
	if a.Queue, err = r.str(); err != nil {
		return BrokerAck{}, err
	}
	if a.ID, err = r.uvarint(); err != nil {
		return BrokerAck{}, err
	}
	return a, nil
}

// EncodeBrokerPublishBatch encodes a batched publish record.
func (Format) EncodeBrokerPublishBatch(queue string, msgs []BrokerMsg) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameBrokerPublishBatch)
	buf = appendString(buf, queue)
	buf = appendUvarint(buf, uint64(len(msgs)))
	for i := range msgs {
		buf = appendUvarint(buf, msgs[i].ID)
		buf = appendBytes(buf, msgs[i].Body)
	}
	return putBuf(bp, buf)
}

// DecodeBrokerPublishBatch decodes a batched publish record.
func DecodeBrokerPublishBatch(payload []byte) (BrokerPublishBatch, error) {
	var p BrokerPublishBatch
	r, err := frameReader(payload, FrameBrokerPublishBatch)
	if err != nil {
		return BrokerPublishBatch{}, err
	}
	if p.Queue, err = r.str(); err != nil {
		return BrokerPublishBatch{}, err
	}
	n, err := r.count()
	if err != nil {
		return BrokerPublishBatch{}, err
	}
	p.Msgs = make([]BrokerMsg, n)
	for i := range p.Msgs {
		if p.Msgs[i].ID, err = r.uvarint(); err != nil {
			return BrokerPublishBatch{}, err
		}
		if p.Msgs[i].Body, err = r.bytes(); err != nil {
			return BrokerPublishBatch{}, err
		}
	}
	return p, nil
}

// EncodeBrokerAckBatch encodes a batched ack record.
func (Format) EncodeBrokerAckBatch(queue string, ids []uint64) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameBrokerAckBatch)
	buf = appendString(buf, queue)
	buf = appendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendUvarint(buf, id)
	}
	return putBuf(bp, buf)
}

// DecodeBrokerAckBatch decodes a batched ack record.
func DecodeBrokerAckBatch(payload []byte) (BrokerAckBatch, error) {
	var a BrokerAckBatch
	r, err := frameReader(payload, FrameBrokerAckBatch)
	if err != nil {
		return BrokerAckBatch{}, err
	}
	if a.Queue, err = r.str(); err != nil {
		return BrokerAckBatch{}, err
	}
	n, err := r.count()
	if err != nil {
		return BrokerAckBatch{}, err
	}
	a.IDs = make([]uint64, n)
	for i := range a.IDs {
		if a.IDs[i], err = r.uvarint(); err != nil {
			return BrokerAckBatch{}, err
		}
	}
	return a, nil
}
