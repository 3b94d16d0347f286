package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/broker"
	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// stateRequest is one transition request inside a sync frame — the message
// components push through the "states" queue to ask AppManager's
// Synchronizer for a transition (paper Fig 2, arrow 6). UIDs, when
// non-empty, applies the same transition to a batch of entities in one
// request — EnTK's bulk state updates, which keep the synchronization
// traffic O(stages), not O(tasks). The wire codec lives in
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
}

func newSynchronizer(am *AppManager) *synchronizer {
	return &synchronizer{am: am}
}

func (s *synchronizer) start() error {
	c, err := s.am.brk.Consume(s.am.qname(QueueStates), 64)
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
// single ack — the O(1)-per-stage sync path.
func (s *synchronizer) loop() {
	defer s.wg.Done()
	for d := range s.consumer.Deliveries() {
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

// apply validates and commits one transition (or one batch of identical
// task transitions). Committed transitions are journaled, mirrored to the
// state store, and published on the event bus — in that order, so an event
// always describes a transition that was durably recorded.
func (s *synchronizer) apply(req *stateRequest) stateAck {
	// applied collects the transitions that actually advanced (cancel
	// no-ops are excluded), for journaling and event publication.
	type applied struct {
		task  *Task
		stage *Stage
		pipe  *Pipeline
		uid   string
		from  string
	}
	var commits []applied
	var err error
	switch req.Entity {
	case "task":
		uids := req.UIDs
		if len(uids) == 0 {
			uids = []string{req.UID}
		}
		for _, uid := range uids {
			t, ok := s.am.Task(uid)
			if !ok {
				err = fmt.Errorf("core: unknown task %s", uid)
				break
			}
			prev := t.State()
			if taskSkip(prev, TaskState(req.Target)) {
				continue
			}
			err = t.advance(TaskState(req.Target))
			if err != nil {
				break
			}
			if req.ExitCode != 0 || req.ExecErr != "" {
				t.setResult(req.ExitCode, req.ExecErr)
			}
			s.trackActivity(prev, TaskState(req.Target))
			commits = append(commits, applied{task: t, uid: uid, from: string(prev)})
		}
	case "stage":
		s.am.mu.Lock()
		st, ok := s.am.stages[req.UID]
		s.am.mu.Unlock()
		if !ok {
			err = fmt.Errorf("core: unknown stage %s", req.UID)
			break
		}
		prev := st.State()
		if stageSkip(prev, StageState(req.Target)) {
			break
		}
		if err = st.advance(StageState(req.Target)); err == nil {
			commits = append(commits, applied{stage: st, uid: req.UID, from: string(prev)})
		}
	case "pipeline":
		s.am.mu.Lock()
		p, ok := s.am.pipes[req.UID]
		s.am.mu.Unlock()
		if !ok {
			err = fmt.Errorf("core: unknown pipeline %s", req.UID)
			break
		}
		prev := p.State()
		if pipelineSkip(prev, PipelineState(req.Target)) {
			break
		}
		if err = p.advance(PipelineState(req.Target)); err == nil {
			commits = append(commits, applied{pipe: p, uid: req.UID, from: string(prev)})
		}
	default:
		err = fmt.Errorf("core: unknown entity kind %q", req.Entity)
	}
	if err != nil {
		return stateAck{OK: false, Err: err.Error()}
	}
	if s.am.jrn != nil || s.am.cfg.StateStore != nil {
		for _, c := range commits {
			if s.am.jrn != nil {
				rec := msgcodec.FormatBinary.EncodeStateRec(req.Entity, c.uid, req.Target)
				if _, jerr := s.am.jrn.AppendRaw("state", rec); jerr != nil {
					return stateAck{OK: false, Err: jerr.Error()}
				}
			}
			// The statedb mirror feeds durable-mode snapshots; a mirror miss
			// would snapshot stale state, so its failure rejects the frame
			// exactly like a journal or state-store failure.
			if s.am.mirror != nil {
				if derr := s.am.mirror.SaveState(req.Entity, c.uid, req.Target); derr != nil {
					return stateAck{OK: false, Err: derr.Error()}
				}
			}
			if s.am.cfg.StateStore != nil {
				if derr := s.am.cfg.StateStore.SaveState(req.Entity, c.uid, req.Target); derr != nil {
					return stateAck{OK: false, Err: derr.Error()}
				}
			}
		}
		if len(commits) > 0 {
			// Snapshot hook: runs on the synchronizer goroutine — the sole
			// journal writer — so the watermark it reads bounds exactly the
			// records committed so far.
			s.am.maybeSnapshot(len(commits))
		}
	}
	if s.am.eventsActive() {
		for _, c := range commits {
			switch {
			case c.task != nil:
				s.am.emitTask(c.task, TaskState(c.from), TaskState(req.Target))
			case c.stage != nil:
				s.am.emitStage(c.stage, StageState(c.from), StageState(req.Target))
			case c.pipe != nil:
				s.am.emitPipeline(c.pipe, PipelineState(c.from), PipelineState(req.Target))
			}
		}
	}
	return stateAck{OK: true}
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
}

func newSyncClient(am *AppManager, replyQueue string) (*syncClient, error) {
	// The reply queue name travels inside the frame, so it is stored (and
	// consumed) fully namespaced; callers pass the bare Fig 2 name.
	reply := am.qname(replyQueue)
	c, err := am.brk.Consume(reply, 1)
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
func (c *syncClient) begin() { c.reqs = c.reqs[:0] }

// add appends one transition request to the frame under construction.
func (c *syncClient) add(req stateRequest) { c.reqs = append(c.reqs, req) }

// addTask appends a single-entity task transition.
func (c *syncClient) addTask(t *Task, to TaskState) {
	c.add(stateRequest{Entity: "task", UID: t.UID, Target: string(to)})
}

// addTaskBatch appends one transition applied to many tasks. An empty batch
// contributes nothing to the frame.
func (c *syncClient) addTaskBatch(ts []*Task, to TaskState) {
	if len(ts) == 0 {
		return
	}
	uids := make([]string, len(ts))
	for i, t := range ts {
		uids[i] = t.UID
	}
	c.add(stateRequest{Entity: "task", UIDs: uids, Target: string(to)})
}

// addTaskResult appends a task transition piggybacking result metadata.
func (c *syncClient) addTaskResult(t *Task, to TaskState, exitCode int, execErr string) {
	c.add(stateRequest{
		Entity: "task", UID: t.UID, Target: string(to),
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
	d, ok := <-c.cons.Deliveries()
	if !ok {
		return broker.ErrClosed
	}
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

// Convenience wrappers for single-transition frames.

func (c *syncClient) task(t *Task, to TaskState) error {
	c.begin()
	c.addTask(t, to)
	return c.flush()
}

// taskBatch applies one transition to many tasks in a single frame.
func (c *syncClient) taskBatch(ts []*Task, to TaskState) error {
	c.begin()
	c.addTaskBatch(ts, to)
	return c.flush()
}

func (c *syncClient) taskResult(t *Task, to TaskState, exitCode int, execErr string) error {
	c.begin()
	c.addTaskResult(t, to, exitCode, execErr)
	return c.flush()
}

func (c *syncClient) stage(s *Stage, to StageState) error {
	return c.request(stateRequest{Entity: "stage", UID: s.UID, Target: string(to)})
}

func (c *syncClient) pipeline(p *Pipeline, to PipelineState) error {
	return c.request(stateRequest{Entity: "pipeline", UID: p.UID, Target: string(to)})
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
