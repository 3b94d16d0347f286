package entk

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/msgcodec"
	"repro/internal/transport"
)

// ErrAdmissionRejected is returned by Client.Submit when the daemon cannot
// and will never admit the run: the claim exceeds the shared pilot, the
// tenant quota is exhausted, or the admission queue is full. A saturated
// pool with queue space is not a rejection — the run is accepted in state
// "QUEUED" and starts when cores free up.
var ErrAdmissionRejected = daemon.ErrAdmissionRejected

// RunInfo is the daemon's view of one hosted run.
type RunInfo = daemon.RunInfo

// Client talks to an entkd daemon over its unix socket, using the same
// [0xBF] wire frames as the in-process control plane (docs/daemon.md). The
// protocol is one request per connection, so a Client carries no connection
// state and is safe for concurrent use.
type Client struct {
	socket string
}

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// Tenant names the submitting tenant for fairness weights and quota
	// accounting; empty selects the daemon's default tenant.
	Tenant string
	// Journal gives the run a durable per-run journal directory under the
	// daemon's journal root, making it individually resumable.
	Journal bool
}

// Dial returns a client for the daemon at socketPath, verifying the daemon
// answers. No connection is retained.
func Dial(socketPath string) (*Client, error) {
	conn, err := net.DialTimeout("unix", socketPath, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("entk: daemon at %s: %w", socketPath, err)
	}
	conn.Close() //nolint:errcheck // probe connection
	return &Client{socket: socketPath}, nil
}

// roundTrip dials, sends one request frame and reads one reply frame. ctx
// cancellation closes the connection, unblocking the read.
func (c *Client) roundTrip(ctx context.Context, req []byte) (msgcodec.RunOp, error) {
	conn, err := net.Dial("unix", c.socket)
	if err != nil {
		return msgcodec.RunOp{}, err
	}
	defer conn.Close() //nolint:errcheck // single-request protocol
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				conn.Close() //nolint:errcheck // unblocks the pending read
			case <-stop:
			}
		}()
	}
	if err := transport.WriteFrame(conn, req); err != nil {
		return msgcodec.RunOp{}, err
	}
	body, err := transport.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		if ctx.Err() != nil {
			return msgcodec.RunOp{}, ctx.Err()
		}
		return msgcodec.RunOp{}, err
	}
	return msgcodec.DecodeRunOp(body)
}

// opError converts a daemon-reported error string back into a typed error
// where the type matters to callers.
func opError(msg string) error {
	if strings.Contains(msg, daemon.ErrAdmissionRejected.Error()) {
		return fmt.Errorf("%w: %s", ErrAdmissionRejected, msg)
	}
	return errors.New(msg)
}

// Submit sends an appjson document to the daemon and returns a reference to
// the new run. The run may start immediately or sit queued behind the
// admission ledger; rejection surfaces as ErrAdmissionRejected.
func (c *Client) Submit(ctx context.Context, appJSON []byte, opts SubmitOptions) (*RunRef, error) {
	req := msgcodec.FormatBinary.EncodeDaemonSubmit(msgcodec.DaemonSubmit{
		Tenant:  opts.Tenant,
		Journal: opts.Journal,
		AppJSON: appJSON,
	})
	reply, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if !reply.OK {
		return nil, opError(reply.Err)
	}
	ref := &RunRef{c: c, ID: reply.RunID}
	if len(reply.Strs) > 0 {
		ref.State = reply.Strs[0]
	}
	return ref, nil
}

// Attach returns a reference to an already-submitted run by ID. The ID is
// not validated until the first operation.
func (c *Client) Attach(runID string) *RunRef { return &RunRef{c: c, ID: runID} }

// List returns every run the daemon currently tracks, oldest first.
func (c *Client) List(ctx context.Context) ([]RunInfo, error) {
	req := msgcodec.FormatBinary.EncodeRunOp(msgcodec.RunOp{Op: "list"})
	reply, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if !reply.OK {
		return nil, opError(reply.Err)
	}
	var out []RunInfo
	for i := 0; i+4 <= len(reply.Strs); i += 4 {
		info := RunInfo{ID: reply.Strs[i], Tenant: reply.Strs[i+1], State: reply.Strs[i+2], Err: reply.Strs[i+3]}
		if k := i / 4; k < len(reply.Ints) {
			info.Cores = int(reply.Ints[k])
		}
		out = append(out, info)
	}
	return out, nil
}

// Events streams a run's lifecycle transitions over a dedicated connection.
// kinds filters by entity ("task", "stage", "pipeline"); empty receives all.
// The returned cancel function closes the stream; the channel also closes
// when the run finishes.
func (c *Client) Events(ctx context.Context, runID string, kinds ...EventKind) (<-chan Event, func(), error) {
	strs := make([]string, len(kinds))
	for i, k := range kinds {
		strs[i] = string(k)
	}
	req := msgcodec.FormatBinary.EncodeRunOp(msgcodec.RunOp{Op: "events", RunID: runID, Strs: strs})
	conn, err := net.Dial("unix", c.socket)
	if err != nil {
		return nil, nil, err
	}
	if err := transport.WriteFrame(conn, req); err != nil {
		conn.Close() //nolint:errcheck // dial-and-fail path
		return nil, nil, err
	}
	r := bufio.NewReader(conn)
	// The first frame is either the first event, "end", or an error ack —
	// read it synchronously so subscription errors surface here.
	first, err := transport.ReadFrame(r)
	if err != nil {
		conn.Close() //nolint:errcheck // dial-and-fail path
		return nil, nil, err
	}
	firstOp, err := msgcodec.DecodeRunOp(first)
	if err != nil {
		conn.Close() //nolint:errcheck // dial-and-fail path
		return nil, nil, err
	}
	if firstOp.Err != "" {
		conn.Close() //nolint:errcheck // dial-and-fail path
		return nil, nil, opError(firstOp.Err)
	}
	out := make(chan Event, 64)
	cancel := func() { conn.Close() } //nolint:errcheck // stream teardown
	if done := ctx.Done(); done != nil {
		go func() {
			<-done
			conn.Close() //nolint:errcheck // stream teardown
		}()
	}
	go func() {
		defer close(out)
		defer conn.Close() //nolint:errcheck // stream teardown
		op := firstOp
		for {
			if op.Op == "end" || op.Op != "event" {
				return
			}
			if ev, ok := decodeEvent(op); ok {
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
			body, err := transport.ReadFrame(r)
			if err != nil {
				return
			}
			if op, err = msgcodec.DecodeRunOp(body); err != nil {
				return
			}
		}
	}()
	return out, cancel, nil
}

// decodeEvent unpacks the wire shape produced by the daemon's event stream.
func decodeEvent(op msgcodec.RunOp) (Event, bool) {
	if len(op.Strs) < 7 || len(op.Ints) < 2 {
		return Event{}, false
	}
	return Event{
		Kind:     EventKind(op.Strs[0]),
		UID:      op.Strs[1],
		Name:     op.Strs[2],
		Pipeline: op.Strs[3],
		Stage:    op.Strs[4],
		From:     op.Strs[5],
		To:       op.Strs[6],
		VTime:    time.Unix(0, op.Ints[0]),
		Attempt:  int(op.Ints[1]),
	}, true
}

// RunRef is a client-side reference to one daemon-hosted run.
type RunRef struct {
	c *Client
	// ID is the daemon-assigned run identifier.
	ID string
	// State is the admission state reported at submission ("RUNNING" or
	// "QUEUED"); use Info for the live state.
	State string
}

// Wait blocks until the run reaches a terminal state. It returns nil for a
// successful run and the run's error otherwise.
func (r *RunRef) Wait(ctx context.Context) error {
	req := msgcodec.FormatBinary.EncodeRunOp(msgcodec.RunOp{Op: "wait", RunID: r.ID})
	reply, err := r.c.roundTrip(ctx, req)
	if err != nil {
		return err
	}
	if len(reply.Strs) > 0 {
		r.State = reply.Strs[0]
	}
	if !reply.OK {
		return opError(reply.Err)
	}
	return nil
}

// Info returns the run's current daemon-side view.
func (r *RunRef) Info(ctx context.Context) (RunInfo, error) {
	req := msgcodec.FormatBinary.EncodeRunOp(msgcodec.RunOp{Op: "info", RunID: r.ID})
	reply, err := r.c.roundTrip(ctx, req)
	if err != nil {
		return RunInfo{}, err
	}
	if !reply.OK {
		return RunInfo{}, opError(reply.Err)
	}
	info := RunInfo{ID: reply.RunID}
	if len(reply.Strs) >= 3 {
		info.Tenant, info.State, info.Err = reply.Strs[0], reply.Strs[1], reply.Strs[2]
	}
	if len(reply.Ints) >= 1 {
		info.Cores = int(reply.Ints[0])
	}
	return info, nil
}

// Cancel aborts the run (queued or running).
func (r *RunRef) Cancel(ctx context.Context, reason string) error {
	return r.unary(ctx, "cancel", reason)
}

// Pause suspends one pipeline of the run at its next stage boundary.
func (r *RunRef) Pause(ctx context.Context, pipelineUID string) error {
	return r.unary(ctx, "pause", pipelineUID)
}

// Resume reactivates a paused pipeline of the run.
func (r *RunRef) Resume(ctx context.Context, pipelineUID string) error {
	return r.unary(ctx, "resume", pipelineUID)
}

// Events streams this run's lifecycle transitions (see Client.Events).
func (r *RunRef) Events(ctx context.Context, kinds ...EventKind) (<-chan Event, func(), error) {
	return r.c.Events(ctx, r.ID, kinds...)
}

func (r *RunRef) unary(ctx context.Context, op, arg string) error {
	var strs []string
	if arg != "" {
		strs = []string{arg}
	}
	req := msgcodec.FormatBinary.EncodeRunOp(msgcodec.RunOp{Op: op, RunID: r.ID, Strs: strs})
	reply, err := r.c.roundTrip(ctx, req)
	if err != nil {
		return err
	}
	if !reply.OK {
		return opError(reply.Err)
	}
	return nil
}
