package msgcodec

// ---- entkd daemon frames -------------------------------------------------
//
// The daemon's unix-socket protocol reuses the control-plane wire layer:
// every message on the socket is one length-prefixed frame of one of two
// types. FrameDaemonSubmit carries a new-run submission; FrameDaemonRunOp
// carries everything else — run operations, their responses, and streamed
// events — as one generic shape, so the protocol stays at exactly two frame
// types (see docs/wire-format.md and docs/daemon.md).

// DaemonSubmit is a client's request to start a new run from an appjson
// document.
type DaemonSubmit struct {
	// Tenant names the submitting tenant for fairness and quota accounting;
	// empty selects the daemon's default tenant.
	Tenant string
	// Journal asks the daemon to give the run a durable per-run journal
	// directory, making it individually resumable.
	Journal bool
	// AppJSON is the raw appjson document (internal/appjson schema).
	AppJSON []byte
}

// RunOp is the daemon protocol's generic operation frame. Requests set Op
// ("list", "info", "wait", "cancel", "pause", "resume", "events") and
// usually RunID; responses echo Op semantics through OK/Err plus the
// repeated Strs/Ints payload fields; streamed events arrive as Op "event"
// frames terminated by an Op "end" frame. Keeping one frame shape for all
// of these is what holds the wire surface to two new frame types.
type RunOp struct {
	Op    string
	RunID string
	OK    bool
	Err   string
	Strs  []string
	Ints  []int64
	Data  []byte
}

// EncodeDaemonSubmit encodes a submission request.
func (Format) EncodeDaemonSubmit(s DaemonSubmit) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameDaemonSubmit)
	buf = appendString(buf, s.Tenant)
	buf = appendBool(buf, s.Journal)
	buf = appendBytes(buf, s.AppJSON)
	return putBuf(bp, buf)
}

// DecodeDaemonSubmit decodes a submission request.
func DecodeDaemonSubmit(body []byte) (DaemonSubmit, error) {
	var s DaemonSubmit
	r, err := frameReader(body, FrameDaemonSubmit)
	if err != nil {
		return DaemonSubmit{}, err
	}
	if s.Tenant, err = r.str(); err != nil {
		return DaemonSubmit{}, err
	}
	if s.Journal, err = r.bool(); err != nil {
		return DaemonSubmit{}, err
	}
	if s.AppJSON, err = r.bytes(); err != nil {
		return DaemonSubmit{}, err
	}
	return s, nil
}

// EncodeRunOp encodes a run-operation frame.
func (Format) EncodeRunOp(op RunOp) []byte {
	bp, buf := getBuf()
	buf = appendHeader(buf, FrameDaemonRunOp)
	buf = appendString(buf, op.Op)
	buf = appendString(buf, op.RunID)
	buf = appendBool(buf, op.OK)
	buf = appendString(buf, op.Err)
	buf = appendUvarint(buf, uint64(len(op.Strs)))
	for _, s := range op.Strs {
		buf = appendString(buf, s)
	}
	buf = appendUvarint(buf, uint64(len(op.Ints)))
	for _, v := range op.Ints {
		buf = appendVarint(buf, v)
	}
	buf = appendBytes(buf, op.Data)
	return putBuf(bp, buf)
}

// DecodeRunOp decodes a run-operation frame.
func DecodeRunOp(body []byte) (RunOp, error) {
	var op RunOp
	r, err := frameReader(body, FrameDaemonRunOp)
	if err != nil {
		return RunOp{}, err
	}
	if op.Op, err = r.str(); err != nil {
		return RunOp{}, err
	}
	if op.RunID, err = r.str(); err != nil {
		return RunOp{}, err
	}
	if op.OK, err = r.bool(); err != nil {
		return RunOp{}, err
	}
	if op.Err, err = r.str(); err != nil {
		return RunOp{}, err
	}
	n, err := r.count()
	if err != nil {
		return RunOp{}, err
	}
	if n > 0 {
		op.Strs = make([]string, n)
		for i := range op.Strs {
			if op.Strs[i], err = r.str(); err != nil {
				return RunOp{}, err
			}
		}
	}
	if n, err = r.count(); err != nil {
		return RunOp{}, err
	}
	if n > 0 {
		op.Ints = make([]int64, n)
		for i := range op.Ints {
			if op.Ints[i], err = r.varint(); err != nil {
				return RunOp{}, err
			}
		}
	}
	if op.Data, err = r.bytes(); err != nil {
		return RunOp{}, err
	}
	return op, nil
}
