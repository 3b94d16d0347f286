package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/broker"
	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// stateRequest is one transition request inside a sync frame — the message
// components push through the "states" queue to ask AppManager's
// Synchronizer for a transition (paper Fig 2, arrow 6). UIDs, when
// non-empty, moves a batch of entities in one request — EnTK's bulk state
// updates, which keep the synchronization traffic O(stages), not O(tasks)
// — and Path lists the request's steps in order, so a bulk pair such as
// SCHEDULING then SCHEDULED names its UIDs once. The wire codec lives in
// internal/msgcodec.
type stateRequest = msgcodec.SyncRequest

// stateAck is the Synchronizer's acknowledgement of one frame (Fig 2,
// arrow 7).
type stateAck = msgcodec.SyncAck

// StateStore is the external-database hook of the failure model (§II-B4).
// The Synchronizer mirrors every committed transition into it, and a
// restarted AppManager reacquires the latest task states from it when no
// journal is available. internal/statedb provides the reference
// implementation (the stack's MongoDB stand-in).
type StateStore interface {
	// SaveState commits one entity's state transition.
	SaveState(entity, uid, state string) error
	// LoadTaskStates returns the latest recorded state per task UID.
	LoadTaskStates() (map[string]string, error)
}

// synchronizer is the AppManager subcomponent that serializes every state
// transition, making AppManager "always up-to-date with any state change ...
// the only stateful component of EnTK" (§II-B3). Transitions are validated
// against the legal state machines, applied, journaled and acknowledged.
type synchronizer struct {
	am       *AppManager
	consumer *broker.Consumer
	wg       sync.WaitGroup

	// Per-request scratch, owned by the synchronizer goroutine: reused
	// across requests, and grown in one step to a wider request's size, so
	// a bulk request grows no buffer per task; cleared after each request
	// so it pins no entity between requests.
	refs    []ref     // the request's entities, resolved once
	commits []applied // one step's committed transitions
}

// ref is one entity a request names, resolved once per request. Exactly one
// field is set.
type ref struct {
	task  *Task
	stage *Stage
	pipe  *Pipeline
}

// applied is one transition a step committed (absorbed no-ops excluded),
// kept for journaling and event publication.
type applied struct {
	ref
	from string
}

func newSynchronizer(am *AppManager) *synchronizer {
	return &synchronizer{am: am}
}

func (s *synchronizer) start() error {
	// Pull mode: the loop pops each frame itself, so a frame costs one
	// goroutine wakeup here instead of a relay through a delivery loop.
	c, err := s.am.brk.ConsumeBatch(s.am.qname(QueueStates), 1)
	if err != nil {
		return err
	}
	s.consumer = c
	s.wg.Add(1)
	go s.loop()
	return nil
}

func (s *synchronizer) stop() {
	if s.consumer != nil {
		s.consumer.Cancel()
	}
	s.wg.Wait()
}

// loop drains the states queue one frame at a time. A frame carries every
// transition request one component issued in one synchronization round-trip
// (possibly several bulk requests), applied in order and answered with a
// single ack — the O(1)-per-stage sync path. Popping one frame per
// ReceiveBatch keeps the broker's modelled traversal charged once per
// frame. Cancellation (stop, broker close) surfaces as an error.
func (s *synchronizer) loop() {
	defer s.wg.Done()
	for {
		ds, err := s.consumer.ReceiveBatch(1)
		if err != nil {
			return
		}
		d := ds[0]
		frame, err := msgcodec.DecodeSyncFrame(d.Body)
		if err != nil {
			d.Nack(false) //nolint:errcheck
			continue
		}
		ack := stateAck{Seq: frame.Seq, OK: true}
		for i := range frame.Reqs {
			if a := s.apply(&frame.Reqs[i]); !a.OK {
				ack.OK, ack.Err = false, a.Err
				break
			}
		}
		body := msgcodec.FormatBinary.EncodeSyncAck(ack)
		// Best effort: the reply queue disappears during tear-down.
		s.am.brk.Publish(frame.Reply, body) //nolint:errcheck
		d.Ack()                             //nolint:errcheck
	}
}

// The Synchronizer's cancellation and suspension semantics, applied as
// silent no-op acks so concurrent requesters never observe spurious
// rejections:
//
//   - sticky cancel: a CANCELED entity absorbs every later transition
//     request (the late completion or resubmission of a task whose
//     pipeline was canceled mid-flight must not fail the run);
//   - idempotent cancel: re-canceling DONE/terminal entities is a no-op;
//   - deferred completion: a DONE request against a SUSPENDED pipeline is
//     dropped, because Pause may commit between the WFProcessor's state
//     read and its completion request — Resume's nudge re-derives the
//     completion from the cursor.

// taskSkip reports whether a task transition request is absorbed.
func taskSkip(current, target TaskState) bool {
	if current == TaskCanceled {
		return true // sticky
	}
	return target == TaskCanceled && current == TaskDone // idempotent
}

// stageSkip reports whether a stage transition request is absorbed.
func stageSkip(current, target StageState) bool {
	if current == StageCanceled {
		return true
	}
	return target == StageCanceled && current.Terminal()
}

// pipelineSkip reports whether a pipeline transition request is absorbed.
func pipelineSkip(current, target PipelineState) bool {
	if current == PipelineCanceled {
		return true
	}
	if target == PipelineCanceled && current.Terminal() {
		return true
	}
	return target == PipelineDone && current == PipelineSuspended // deferred
}

// apply validates and commits one request. Every entity is resolved once,
// and the whole path is checked for every entity before any of them
// changes, so a rejected request leaves state, journal and events as they
// were. The path is then applied step by step: each step advances every
// entity and commits what advanced — journal, state mirrors, events — in
// that order, so an event always describes a durably recorded transition.
func (s *synchronizer) apply(req *stateRequest) stateAck {
	err := s.applyPath(req)
	clear(s.refs)
	s.refs = s.refs[:0]
	if err != nil {
		return stateAck{OK: false, Err: err.Error()}
	}
	return stateAck{OK: true}
}

func (s *synchronizer) applyPath(req *stateRequest) error {
	if len(req.Path) == 0 {
		return fmt.Errorf("core: %s request with an empty transition path", req.Entity)
	}
	if err := s.resolve(req); err != nil {
		return err
	}
	// The synchronizer is the only writer of entity state once the run
	// starts, so the states read here are the states the steps start from.
	for _, r := range s.refs {
		cur := r.state()
		for _, to := range req.Path {
			if r.skip(cur, to) {
				continue
			}
			if !r.legal(cur, to) {
				return &TransitionError{Entity: req.Entity, UID: r.uid(), From: cur, To: to}
			}
			cur = to
		}
	}
	for _, to := range req.Path {
		if err := s.step(req, to); err != nil {
			return err
		}
	}
	return nil
}

// resolve looks up every entity the request names, taking the AppManager
// lock once per request rather than once per UID.
func (s *synchronizer) resolve(req *stateRequest) error {
	s.refs = slices.Grow(s.refs, len(req.UIDs))
	am := s.am
	am.mu.Lock()
	defer am.mu.Unlock()
	if len(req.UIDs) == 0 {
		return s.resolveLocked(req.Entity, req.UID)
	}
	for _, uid := range req.UIDs {
		if err := s.resolveLocked(req.Entity, uid); err != nil {
			return err
		}
	}
	return nil
}

func (s *synchronizer) resolveLocked(entity, uid string) error {
	var r ref
	var ok bool
	switch entity {
	case "task":
		r.task, ok = s.am.tasks[uid]
	case "stage":
		r.stage, ok = s.am.stages[uid]
	case "pipeline":
		r.pipe, ok = s.am.pipes[uid]
	default:
		return fmt.Errorf("core: unknown entity kind %q", entity)
	}
	if !ok {
		return fmt.Errorf("core: unknown %s %s", entity, uid)
	}
	s.refs = append(s.refs, r)
	return nil
}

// step moves every resolved entity to one target state and commits the
// transitions that advanced. A failure to advance still commits what
// advanced before it, so state, journal and events never disagree.
func (s *synchronizer) step(req *stateRequest, to string) error {
	var err error
	s.commits = slices.Grow(s.commits, len(s.refs))
	for _, r := range s.refs {
		prev := r.state()
		if r.skip(prev, to) {
			continue
		}
		if err = r.advance(to); err != nil {
			break
		}
		if t := r.task; t != nil {
			if req.ExitCode != 0 || req.ExecErr != "" {
				t.setResult(req.ExitCode, req.ExecErr)
			}
			s.trackActivity(TaskState(prev), TaskState(to))
		}
		s.commits = append(s.commits, applied{ref: r, from: prev})
	}
	cerr := s.commit(req.Entity, to)
	clear(s.commits)
	s.commits = s.commits[:0]
	if cerr != nil {
		return cerr
	}
	return err
}

// commit journals, mirrors and publishes one step's committed transitions.
func (s *synchronizer) commit(entity, to string) error {
	am := s.am
	if len(s.commits) == 0 {
		return nil
	}
	if am.jrn != nil || am.cfg.StateStore != nil {
		for _, c := range s.commits {
			uid := c.uid()
			if am.jrn != nil {
				rec := msgcodec.FormatBinary.EncodeStateRec(entity, uid, to)
				if _, err := am.jrn.AppendRaw("state", rec); err != nil {
					return err
				}
			}
			// The statedb mirror feeds durable-mode snapshots; a mirror miss
			// would snapshot stale state, so its failure rejects the frame
			// exactly like a journal or state-store failure.
			if am.mirror != nil {
				if err := am.mirror.SaveState(entity, uid, to); err != nil {
					return err
				}
			}
			if am.cfg.StateStore != nil {
				if err := am.cfg.StateStore.SaveState(entity, uid, to); err != nil {
					return err
				}
			}
		}
		// Snapshot hook: runs on the synchronizer goroutine — the sole
		// journal writer — so the watermark it reads bounds exactly the
		// records committed so far.
		am.maybeSnapshot(len(s.commits))
	}
	if am.eventsActive() {
		for _, c := range s.commits {
			c.emit(am, c.from, to)
		}
	}
	return nil
}

func (r ref) uid() string {
	switch {
	case r.task != nil:
		return r.task.UID
	case r.stage != nil:
		return r.stage.UID
	}
	return r.pipe.UID
}

func (r ref) state() string {
	switch {
	case r.task != nil:
		return string(r.task.State())
	case r.stage != nil:
		return string(r.stage.State())
	}
	return string(r.pipe.State())
}

// skip reports whether a step from one state to another is absorbed as a
// silent no-op (see taskSkip, stageSkip and pipelineSkip).
func (r ref) skip(from, to string) bool {
	switch {
	case r.task != nil:
		return taskSkip(TaskState(from), TaskState(to))
	case r.stage != nil:
		return stageSkip(StageState(from), StageState(to))
	}
	return pipelineSkip(PipelineState(from), PipelineState(to))
}

// legal reports whether the entity's state machine allows the step.
func (r ref) legal(from, to string) bool {
	switch {
	case r.task != nil:
		return legalTask(TaskState(from), TaskState(to))
	case r.stage != nil:
		return legalStage(StageState(from), StageState(to))
	}
	return legalPipeline(PipelineState(from), PipelineState(to))
}

func (r ref) advance(to string) error {
	switch {
	case r.task != nil:
		return r.task.advance(TaskState(to))
	case r.stage != nil:
		return r.stage.advance(StageState(to))
	}
	return r.pipe.advance(PipelineState(to))
}

func (r ref) emit(am *AppManager, from, to string) {
	switch {
	case r.task != nil:
		am.emitTask(r.task, TaskState(from), TaskState(to))
	case r.stage != nil:
		am.emitStage(r.stage, StageState(from), StageState(to))
	default:
		am.emitPipeline(r.pipe, PipelineState(from), PipelineState(to))
	}
}

// trackActivity maintains the count of concurrently managed tasks used for
// host strain (Fig 8's management-overhead growth past 2,048 tasks). A task
// is active from entering SCHEDULING to reaching a terminal state; a task
// canceled straight out of DESCRIBED was never active, and one canceled out
// of FAILED already left when it failed — neither may decrement the count.
func (s *synchronizer) trackActivity(from, to TaskState) {
	enters := to == TaskScheduling && (from == TaskInitial || from == "" || from == TaskFailed)
	leaves := to.Terminal() && from != TaskInitial && from != "" && from != TaskFailed
	if enters {
		atomic.AddInt64(&s.am.active, 1)
	}
	if leaves {
		atomic.AddInt64(&s.am.active, -1)
	}
}

// syncClient is a component-side handle for requesting transitions. Each
// subcomponent owns one client with a dedicated ack queue and issues frames
// serially, so acks match frames one-to-one. A frame is built with begin
// and the add* methods and sent with flush; related transitions a component
// used to issue as consecutive round-trips ride one frame, which is what
// keeps a stage's synchronization cost at O(1) frames instead of O(tasks).
type syncClient struct {
	am    *AppManager
	reply string
	cons  *broker.Consumer
	seq   uint64
	reqs  []stateRequest // frame under construction (reused across frames)
	// uids backs the frame's UID lists (reused across frames, grown once
	// per request). A request's list stays valid when a later request
	// moves the backing array: the old array is left as it was until begin
	// starts the next frame.
	uids []string
}

func newSyncClient(am *AppManager, replyQueue string) (*syncClient, error) {
	// The reply queue name travels inside the frame, so it is stored (and
	// consumed) fully namespaced; callers pass the bare Fig 2 name. Pull
	// mode: flush pops the ack itself, with no relay goroutine between
	// the Synchronizer's publish and the waiting component.
	reply := am.qname(replyQueue)
	c, err := am.brk.ConsumeBatch(reply, 1)
	if err != nil {
		return nil, err
	}
	return &syncClient{am: am, reply: reply, cons: c}, nil
}

func (c *syncClient) close() {
	if c.cons != nil {
		c.cons.Cancel()
	}
}

// begin starts a fresh frame.
func (c *syncClient) begin() {
	c.reqs = c.reqs[:0]
	c.uids = c.uids[:0]
}

// add appends one transition request to the frame under construction.
func (c *syncClient) add(req stateRequest) { c.reqs = append(c.reqs, req) }

// addTasks appends one request moving every task in ts along path. An empty
// batch contributes nothing to the frame.
func (c *syncClient) addTasks(ts []*Task, path ...TaskState) {
	c.addTaskResult(ts, 0, "", path...)
}

// addTaskResult appends one request moving every task in ts along path,
// piggybacking result metadata.
func (c *syncClient) addTaskResult(ts []*Task, exitCode int, execErr string, path ...TaskState) {
	if len(ts) == 0 {
		return
	}
	base := len(c.uids)
	c.uids = slices.Grow(c.uids, len(ts))
	for _, t := range ts {
		c.uids = append(c.uids, t.UID)
	}
	steps := make([]string, len(path))
	for i, to := range path {
		steps[i] = string(to)
	}
	c.add(stateRequest{
		Entity: "task", UIDs: c.uids[base:len(c.uids):len(c.uids)], Path: steps,
		ExitCode: exitCode, ExecErr: execErr,
	})
}

// flush sends the frame under construction and waits for the ack. An empty
// frame is a no-op. Encode failures surface as errors — a dropped frame
// would otherwise silently wedge the component.
func (c *syncClient) flush() error {
	if len(c.reqs) == 0 {
		return nil
	}
	c.seq++
	body := msgcodec.FormatBinary.EncodeSyncFrame(msgcodec.SyncFrame{
		Reply: c.reply, Seq: c.seq, Reqs: c.reqs,
	})
	if err := c.am.brk.Publish(c.am.qname(QueueStates), body); err != nil {
		return err
	}
	ds, err := c.cons.ReceiveBatch(1)
	if err != nil {
		return err // broker.ErrClosed: the client was closed or the broker shut down
	}
	d := ds[0]
	defer d.Ack() //nolint:errcheck
	ack, err := msgcodec.DecodeSyncAck(d.Body)
	if err != nil {
		return fmt.Errorf("core: decode sync ack: %w", err)
	}
	if ack.Seq != c.seq {
		return fmt.Errorf("core: ack sequence mismatch: got %d want %d", ack.Seq, c.seq)
	}
	if !ack.OK {
		return fmt.Errorf("core: transition rejected: %s", ack.Err)
	}
	return nil
}

// request sends one transition as its own frame and waits for the ack.
func (c *syncClient) request(req stateRequest) error {
	c.begin()
	c.add(req)
	return c.flush()
}

// Convenience wrappers for single-request frames.

// tasks moves every task in ts along path in a single frame.
func (c *syncClient) tasks(ts []*Task, path ...TaskState) error {
	c.begin()
	c.addTasks(ts, path...)
	return c.flush()
}

func (c *syncClient) stage(s *Stage, to StageState) error {
	return c.request(stateRequest{Entity: "stage", UID: s.UID, Path: []string{string(to)}})
}

func (c *syncClient) pipeline(p *Pipeline, to PipelineState) error {
	return c.request(stateRequest{Entity: "pipeline", UID: p.UID, Path: []string{string(to)}})
}

// recoverFromJournal replays the state journal, restoring DONE tasks so a
// restarted application does not re-execute completed work (paper §II-B4:
// "applications can be executed on multiple attempts, without restarting
// completed tasks"). Tasks caught mid-flight are reset to the initial state
// for re-scheduling; stages and pipelines are recomputed from task states by
// the normal scheduling path.
func (am *AppManager) recoverFromJournal() error {
	final := map[string]string{}
	err := journal.Replay(am.cfg.JournalPath, func(rec journal.Record) error {
		if rec.Type != "state" {
			return nil
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		if sr.Entity == "task" {
			final[sr.UID] = sr.State
		}
		return nil
	})
	if err != nil {
		return err
	}
	for uid, state := range final {
		if TaskState(state) != TaskDone {
			continue
		}
		if t, ok := am.Task(uid); ok {
			t.forceState(TaskDone)
		}
	}
	return nil
}

// recoverFromStateStore reacquires the latest task states from the external
// database (§II-B4). As with journal recovery, only DONE tasks are restored;
// everything caught mid-flight is re-scheduled by the normal path.
func (am *AppManager) recoverFromStateStore() error {
	states, err := am.cfg.StateStore.LoadTaskStates()
	if err != nil {
		return fmt.Errorf("core: state-store recovery: %w", err)
	}
	for uid, state := range states {
		if TaskState(state) != TaskDone {
			continue
		}
		if t, ok := am.Task(uid); ok && !t.State().Terminal() {
			t.forceState(TaskDone)
		}
	}
	return nil
}
