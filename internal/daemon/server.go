package daemon

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/msgcodec"
	"repro/internal/transport"
)

// Server accepts entk.Client connections on a unix socket and drives the
// daemon. The protocol is one request per connection: the client sends one
// frame (FrameDaemonSubmit or FrameDaemonRunOp), the server answers with
// run-op frames — exactly one for unary operations, a stream of "event"
// frames terminated by "end" for subscriptions — and the connection closes.
// Frames ride internal/transport's uvarint length-prefixed framing.
type Server struct {
	d *Daemon
	l net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve listens on the daemon's configured unix socket and handles
// connections until Close. A stale socket file from a dead daemon is
// removed before binding.
func (d *Daemon) Serve() (*Server, error) {
	if d.cfg.SocketPath == "" {
		return nil, errors.New("daemon: no socket path configured")
	}
	if _, err := os.Stat(d.cfg.SocketPath); err == nil {
		// Probe before unlinking: refuse to steal a live daemon's socket.
		if c, err := net.Dial("unix", d.cfg.SocketPath); err == nil {
			c.Close()
			return nil, fmt.Errorf("daemon: socket %s already served", d.cfg.SocketPath)
		}
		os.Remove(d.cfg.SocketPath) //nolint:errcheck // bind reports the real failure
	}
	l, err := net.Listen("unix", d.cfg.SocketPath)
	if err != nil {
		return nil, err
	}
	s := &Server{d: d, l: l, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Close stops accepting, closes in-flight connections and waits for
// handlers to drain. The daemon itself keeps running — call Daemon.Stop.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.l.Close() //nolint:errcheck // listener close on shutdown
	for _, c := range conns {
		c.Close() //nolint:errcheck // connection close on shutdown
	}
	s.wg.Wait()
}

// Addr returns the socket path being served.
func (s *Server) Addr() string { return s.l.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close() //nolint:errcheck // racing shutdown
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close() //nolint:errcheck // single-request protocol
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	body, err := transport.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		return // client vanished before sending a request
	}
	if typ, _ := msgcodec.FrameType(body); typ == msgcodec.FrameDaemonSubmit {
		s.handleSubmit(conn, body)
		return
	}
	op, err := msgcodec.DecodeRunOp(body)
	if err != nil {
		s.reply(conn, msgcodec.RunOp{Op: "error", Err: err.Error()})
		return
	}
	s.handleOp(conn, op)
}

func (s *Server) reply(conn net.Conn, op msgcodec.RunOp) bool {
	return transport.WriteFrame(conn, msgcodec.FormatBinary.EncodeRunOp(op)) == nil
}

func (s *Server) handleSubmit(conn net.Conn, body []byte) {
	sub, err := msgcodec.DecodeDaemonSubmit(body)
	if err != nil {
		s.reply(conn, msgcodec.RunOp{Op: "submit-ack", Err: err.Error()})
		return
	}
	id, err := s.d.Submit(sub.Tenant, sub.Journal, sub.AppJSON)
	if err != nil {
		s.reply(conn, msgcodec.RunOp{Op: "submit-ack", RunID: id, Err: err.Error()})
		return
	}
	info, _ := s.d.Info(id)
	s.reply(conn, msgcodec.RunOp{Op: "submit-ack", RunID: id, OK: true, Strs: []string{info.State}})
}

func (s *Server) handleOp(conn net.Conn, op msgcodec.RunOp) {
	fail := func(err error) {
		s.reply(conn, msgcodec.RunOp{Op: op.Op + "-ack", RunID: op.RunID, Err: err.Error()})
	}
	switch op.Op {
	case "list":
		runs := s.d.List()
		out := msgcodec.RunOp{Op: "list-ack", OK: true}
		for _, r := range runs {
			out.Strs = append(out.Strs, r.ID, r.Tenant, r.State, r.Err)
			out.Ints = append(out.Ints, int64(r.Cores))
		}
		s.reply(conn, out)
	case "info":
		info, err := s.d.Info(op.RunID)
		if err != nil {
			fail(err)
			return
		}
		s.reply(conn, msgcodec.RunOp{
			Op: "info-ack", RunID: info.ID, OK: true,
			Strs: []string{info.Tenant, info.State, info.Err},
			Ints: []int64{int64(info.Cores)},
		})
	case "wait":
		err := s.d.Wait(context.Background(), op.RunID)
		out := msgcodec.RunOp{Op: "done", RunID: op.RunID, OK: err == nil}
		if err != nil {
			out.Err = err.Error()
		}
		if info, ierr := s.d.Info(op.RunID); ierr == nil {
			out.Strs = []string{info.State}
		}
		s.reply(conn, out)
	case "cancel":
		reason := ""
		if len(op.Strs) > 0 {
			reason = op.Strs[0]
		}
		if err := s.d.Cancel(op.RunID, reason); err != nil {
			fail(err)
			return
		}
		s.reply(conn, msgcodec.RunOp{Op: "cancel-ack", RunID: op.RunID, OK: true})
	case "pause", "resume":
		if len(op.Strs) == 0 {
			fail(errors.New("daemon: pause/resume requires a pipeline UID"))
			return
		}
		var err error
		if op.Op == "pause" {
			err = s.d.Pause(op.RunID, op.Strs[0])
		} else {
			err = s.d.Resume(op.RunID, op.Strs[0])
		}
		if err != nil {
			fail(err)
			return
		}
		s.reply(conn, msgcodec.RunOp{Op: op.Op + "-ack", RunID: op.RunID, OK: true})
	case "events":
		s.handleEvents(conn, op)
	default:
		fail(fmt.Errorf("daemon: unknown operation %q", op.Op))
	}
}

// handleEvents streams a run's lifecycle transitions: one "event" frame per
// transition, an "end" frame when the run's event bus closes (run finished)
// or the client disconnects.
func (s *Server) handleEvents(conn net.Conn, op msgcodec.RunOp) {
	var filter core.EventFilter
	for _, k := range op.Strs {
		filter.Kinds = append(filter.Kinds, core.EventKind(k))
	}
	sub, err := s.d.Subscribe(op.RunID, filter)
	if err != nil {
		s.reply(conn, msgcodec.RunOp{Op: "events-ack", RunID: op.RunID, Err: err.Error()})
		return
	}
	defer sub.Close()
	for ev := range sub.C() {
		ok := s.reply(conn, msgcodec.RunOp{
			Op: "event", RunID: op.RunID, OK: true,
			Strs: []string{string(ev.Kind), ev.UID, ev.Name, ev.Pipeline, ev.Stage, ev.From, ev.To},
			Ints: []int64{ev.VTime.UnixNano(), int64(ev.Attempt)},
		})
		if !ok {
			return // client gone; Close drops the subscription
		}
	}
	s.reply(conn, msgcodec.RunOp{Op: "end", RunID: op.RunID, OK: true})
}
