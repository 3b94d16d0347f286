package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/broker"
	"repro/internal/msgcodec"
	"repro/internal/profiler"
)

// The pending-queue bodies are task references that the Emgr resolves
// against AppManager's registry before translating them to RTS
// descriptions. A message may carry a whole stage's tasks — EnTK's bulk
// messages keep queue traffic O(stages), not O(tasks). The wire codec
// (with its pooled encode buffers) lives in internal/msgcodec.

// dequeueBatch bounds how many done-queue messages Dequeue settles per
// broker round-trip (it is a message bound, not a task bound: each message
// may carry a whole stage's results).
const dequeueBatch = 512

// wfProcessor is the Workflow-Management-layer component with the Enqueue
// and Dequeue subcomponents (paper Fig 2). Enqueue walks the application,
// tags runnable tasks and pushes them to the pending queue; Dequeue pulls
// completed tasks from the done queue, finalizes their states, applies the
// resubmission policy and advances stages and pipelines.
type wfProcessor struct {
	am *AppManager

	nudgeCh chan struct{}
	doneC   *broker.Consumer
	pendP   *broker.Producer
	enqSync *syncClient
	deqSync *syncClient

	// uidScratch is the enqueue loop's reusable chunk buffer for pending
	// message encoding (scheduleStage runs only on that goroutine).
	uidScratch []string
	// resUIDs and resTasks are the dequeue loop's reusable buffers for
	// resolving one result message's UIDs (handleResultBatch runs only on
	// that goroutine).
	resUIDs  []string
	resTasks []*Task

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

func newWFProcessor(am *AppManager) *wfProcessor {
	return &wfProcessor{
		am:      am,
		nudgeCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
	}
}

func (w *wfProcessor) start(ctx context.Context) error {
	var err error
	if w.enqSync, err = newSyncClient(w.am, ackPrefix+"-enq"); err != nil {
		return err
	}
	if w.deqSync, err = newSyncClient(w.am, ackPrefix+"-deq"); err != nil {
		return err
	}
	// Pull-mode consumer: Dequeue drains completions in batches, paying one
	// broker round-trip per drained batch instead of one per message.
	if w.doneC, err = w.am.brk.ConsumeBatch(w.am.qname(QueueDone), dequeueBatch); err != nil {
		return err
	}
	// Shard-pinned producer: on a sharded pending queue, everything Enqueue
	// publishes lands on one shard in call order, so the Emgr observes this
	// producer's messages in publish order (per-producer FIFO).
	if w.pendP, err = w.am.brk.Producer(w.am.qname(QueuePending)); err != nil {
		return err
	}
	// The fixed application-processing cost: translating the workflow into
	// executable bookkeeping. This dominates EnTK Management Overhead and
	// is what makes it near-invariant with task count (paper Figs 7-8).
	if base := w.am.host.MgmtBase; base > 0 {
		w.am.clock.Sleep(base)
		w.am.prof.Add(profiler.EnTKManagement, base)
	}
	w.wg.Add(2)
	go w.enqueueLoop(ctx)
	go w.dequeueLoop(ctx)
	w.nudge()
	return nil
}

func (w *wfProcessor) stop() {
	w.stopOnce.Do(func() { close(w.stopCh) })
	if w.doneC != nil {
		w.doneC.Cancel()
	}
	w.wg.Wait()
	if w.enqSync != nil {
		w.enqSync.close()
	}
	if w.deqSync != nil {
		w.deqSync.close()
	}
}

// nudge wakes the enqueue loop; it is called at start, whenever a stage
// completes, and when an adaptive pipeline resumes.
func (w *wfProcessor) nudge() {
	select {
	case w.nudgeCh <- struct{}{}:
	default:
	}
}

func (w *wfProcessor) enqueueLoop(ctx context.Context) {
	defer w.wg.Done()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ctx.Done():
			return
		case <-w.nudgeCh:
			if err := w.enqueueRunnable(); err != nil {
				w.am.finish(err)
				return
			}
		}
	}
}

// enqueueRunnable walks every pipeline and schedules whatever is runnable.
func (w *wfProcessor) enqueueRunnable() error {
	for _, p := range w.am.Pipelines() {
		switch p.State() {
		case PipelineInitial:
			// Pipeline-group dependencies (§II-B1): hold the pipeline until
			// its predecessors finish; cancel it when a predecessor failed.
			ready, blocked := p.depsStatus()
			if blocked {
				if err := w.cancelUnstarted(p); err != nil {
					return err
				}
				continue
			}
			if !ready {
				continue
			}
			if err := w.enqSync.pipeline(p, PipelineScheduling); err != nil {
				return err
			}
		case PipelineScheduling:
		default:
			continue // suspended or terminal
		}
		stage := p.currentStage()
		if stage == nil {
			// Cursor past the last stage (can happen after recovery).
			if err := w.completePipeline(p, w.enqSync); err != nil {
				return err
			}
			continue
		}
		if stage.State() != StageInitial {
			continue // already scheduled; Dequeue owns its completion
		}
		if err := w.scheduleStage(p, stage); err != nil {
			return err
		}
	}
	return nil
}

// cancelUnstarted cancels a pipeline that never left its initial state
// (because a predecessor failed or was canceled), together with all its
// stages and tasks. Cancellation cascades: pipelines depending on this one
// observe its CANCELED state on the next enqueue pass.
func (w *wfProcessor) cancelUnstarted(p *Pipeline) error {
	// The whole cascade — every stage's fresh tasks, the stages themselves
	// and the pipeline — rides one sync frame.
	w.enqSync.begin()
	for _, s := range p.Stages() {
		var fresh []*Task
		for _, t := range s.Tasks() {
			if t.State() == TaskInitial {
				fresh = append(fresh, t)
			}
		}
		w.enqSync.addTasks(fresh, TaskCanceled)
		if s.State() == StageInitial {
			w.enqSync.add(stateRequest{Entity: "stage", UID: s.UID, Path: []string{string(StageCanceled)}})
		}
	}
	w.enqSync.add(stateRequest{Entity: "pipeline", UID: p.UID, Path: []string{string(PipelineCanceled)}})
	if err := w.enqSync.flush(); err != nil {
		return err
	}
	w.am.completionMu.Lock()
	defer w.am.completionMu.Unlock()
	if w.am.allPipelinesTerminal() {
		w.am.finishLocked()
	}
	w.nudge() // cascade to this pipeline's own dependents
	return nil
}

// scheduleStage tags a stage's unscheduled tasks and pushes them to the
// pending queue (paper Fig 2, arrow 1).
func (w *wfProcessor) scheduleStage(p *Pipeline, stage *Stage) error {
	var runnable []*Task
	for _, t := range stage.Tasks() {
		if t.State() == TaskInitial {
			runnable = append(runnable, t)
		} // otherwise recovered as DONE (or already processed)
	}
	// The stage's SCHEDULING, the tasks' SCHEDULING -> SCHEDULED path and
	// the stage's SCHEDULED ride a single sync frame, applied in that
	// order: scheduling a stage costs one synchronization round-trip
	// regardless of task count. Tasks must be in SCHEDULED before their
	// pending messages become visible, or the Emgr can race past its
	// transitions — the frame's ack guarantees every commit precedes the
	// publish below, so the stage is SCHEDULED before any of its tasks is
	// SUBMITTING.
	w.enqSync.begin()
	w.enqSync.add(stateRequest{Entity: "stage", UID: stage.UID, Path: []string{string(StageScheduling)}})
	w.enqSync.addTasks(runnable, TaskScheduling, TaskScheduled)
	w.enqSync.add(stateRequest{Entity: "stage", UID: stage.UID, Path: []string{string(StageScheduled)}})
	if err := w.enqSync.flush(); err != nil {
		return err
	}
	if len(runnable) > 0 {
		// The whole stage goes out as one batch publish. Task UIDs are
		// chunked into messages of at most BatchSize tasks so the Emgr's
		// batch granularity is controllable, but however many messages that
		// yields, the broker is traversed once. Encoding reuses the loop's
		// scratch UID slice and msgcodec's pooled buffers, so each chunk
		// costs exactly one allocation (its body). The chunk size is the
		// live batch knob: one atomic load per stage-scheduling decision.
		chunk := w.am.live.BatchSize()
		var bodies [][]byte
		for start := 0; start < len(runnable); start += chunk {
			end := start + chunk
			if end > len(runnable) {
				end = len(runnable)
			}
			w.uidScratch = w.uidScratch[:0]
			for _, t := range runnable[start:end] {
				w.uidScratch = append(w.uidScratch, t.UID)
			}
			bodies = append(bodies, msgcodec.FormatBinary.EncodeTaskUIDs(w.uidScratch))
		}
		if err := w.pendP.PublishBatch(bodies); err != nil {
			return err
		}
	}
	// Completion check under the stage's own sync client: a stage whose
	// tasks were all terminal before scheduling (journal recovery) has no
	// task left to run, so no Dequeue drain would ever complete it.
	return w.maybeCompleteStage(p, stage, w.enqSync)
}

func (w *wfProcessor) dequeueLoop(ctx context.Context) {
	defer w.wg.Done()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ctx.Done():
			return
		default:
		}
		// ReceiveBatch pops everything ready (up to dequeueBatch) in one
		// broker round-trip; bulk state updates then keep the dequeue path
		// from serializing tens of thousands of synchronization round trips
		// at scale. Cancellation (stop, broker close) surfaces as an error.
		batch, err := w.doneC.ReceiveBatch(dequeueBatch)
		if err != nil {
			return
		}
		if err := w.handleResultBatch(batch); err != nil {
			w.am.finish(err)
			return
		}
	}
}

// handleResultBatch finalizes a batch of task attempts and drives stage and
// pipeline progression. Successful tasks advance in bulk; failures and
// cancellations (rare) are handled individually so exit codes and the
// resubmission policy stay per-task.
func (w *wfProcessor) handleResultBatch(batch []*broker.Delivery) error {
	var succeeded []*Task
	type failure struct {
		t   *Task
		res TaskResult
	}
	var failures []failure
	var canceled []*Task
	var drops []*broker.Delivery // malformed messages: batch-dropped
	for _, d := range batch {
		results, err := msgcodec.DecodeTaskResults(d.Body)
		if err != nil {
			drops = append(drops, d)
			continue
		}
		// One registry lock resolves the whole message.
		w.resUIDs = w.resUIDs[:0]
		for _, res := range results {
			w.resUIDs = append(w.resUIDs, res.UID)
		}
		w.resTasks = w.am.appendTasks(w.resTasks[:0], w.resUIDs)
		for i, res := range results {
			t := w.resTasks[i]
			if t == nil {
				broker.NackBatch(drops, false) //nolint:errcheck
				broker.AckBatch(batch)         //nolint:errcheck
				return fmt.Errorf("core: completion for unknown task %s", res.UID)
			}
			if t.State().Terminal() {
				// Stale result: the task was canceled (e.g. CancelPipeline)
				// after submission and the RTS still reported the attempt.
				// Its stage settled through the cancellation path already.
				continue
			}
			switch {
			case res.Canceled:
				canceled = append(canceled, t)
			case res.ExitCode == 0:
				succeeded = append(succeeded, t)
			default:
				failures = append(failures, failure{t: t, res: res})
			}
		}
	}
	// Settle the whole drain in two broker round-trips (one ack batch, one
	// drop batch) instead of one per message. NackBatch/AckBatch skip
	// deliveries the other call already settled.
	if err := broker.NackBatch(drops, false); err != nil {
		return err
	}
	if err := broker.AckBatch(batch); err != nil {
		return err
	}

	// The RTS reported these attempts finished: SUBMITTED -> EXECUTED, then
	// the terminal state for this attempt, as one path per outcome. The
	// whole drain rides one sync frame — one round-trip however many tasks
	// the batch settled; failures (rare) follow individually so exit codes
	// and the resubmission policy stay per-task.
	w.deqSync.begin()
	w.deqSync.addTasks(succeeded, TaskExecuted, TaskDone)
	w.deqSync.addTasks(canceled, TaskExecuted, TaskCanceled)
	if err := w.deqSync.flush(); err != nil {
		return err
	}
	for _, f := range failures {
		w.deqSync.begin()
		w.deqSync.addTaskResult([]*Task{f.t}, f.res.ExitCode, f.res.Error, TaskExecuted, TaskFailed)
		if err := w.deqSync.flush(); err != nil {
			return err
		}
	}

	// Resubmission policy (paper §II-A): failed tasks are resubmitted up to
	// the configured budget without restarting completed tasks.
	affected := map[string]*Task{} // stage UID -> a task of that stage
	for _, t := range succeeded {
		_, stageUID := t.Parent()
		affected[stageUID] = t
	}
	for _, t := range canceled {
		_, stageUID := t.Parent()
		affected[stageUID] = t
	}
	for _, f := range failures {
		if f.t.Attempts() <= w.am.retriesFor(f.t) {
			if err := w.resubmit(f.t); err != nil {
				return err
			}
			continue // back in flight; its stage is not terminal yet
		}
		_, stageUID := f.t.Parent()
		affected[stageUID] = f.t
	}

	for _, t := range affected {
		pipelineUID, stageUID := t.Parent()
		w.am.mu.Lock()
		stage := w.am.stages[stageUID]
		pipe := w.am.pipes[pipelineUID]
		w.am.mu.Unlock()
		if stage == nil || pipe == nil {
			return fmt.Errorf("core: task %s has unknown parents", t.UID)
		}
		if err := w.maybeCompleteStage(pipe, stage, w.deqSync); err != nil {
			return err
		}
	}
	return nil
}

// resubmit re-queues a failed task attempt. As in scheduleStage, the task
// reaches SCHEDULED before its pending message is published. A concurrent
// CancelPipeline makes the whole sequence moot: the check below skips the
// common case, and if the cancel lands mid-sequence the Synchronizer's
// sticky-cancel absorbs the transitions and the Emgr drops the message.
func (w *wfProcessor) resubmit(t *Task) error {
	_, stageUID := t.Parent()
	w.am.mu.Lock()
	stage := w.am.stages[stageUID]
	w.am.mu.Unlock()
	if stage != nil && stage.State().Terminal() {
		return nil // stage canceled (or settled) under us; retry is moot
	}
	if err := w.deqSync.tasks([]*Task{t}, TaskScheduling, TaskScheduled); err != nil {
		return err
	}
	return w.pendP.Publish(msgcodec.FormatBinary.EncodeTaskUID(t.UID))
}

// maybeCompleteStage finishes a stage whose tasks are all terminal, runs its
// PostExec hook, and advances the owning pipeline.
func (w *wfProcessor) maybeCompleteStage(p *Pipeline, stage *Stage, sc *syncClient) error {
	w.am.completionMu.Lock()
	defer w.am.completionMu.Unlock()

	if stage.State().Terminal() {
		return nil
	}
	if stage.State() == StageScheduling {
		// Defensive: the stage's SCHEDULED commits in the same frame as
		// its SCHEDULING, before any task is published, so no Dequeue
		// drain can observe this state. Completing here would be an
		// illegal SCHEDULING -> DONE; Enqueue's own check after the frame
		// covers the stage instead.
		return nil
	}
	allTerminal, anyFailed, anyCanceled := stage.tasksTerminal()
	if !allTerminal {
		return nil
	}
	target := StageDone
	if anyFailed {
		target = StageFailed
	} else if anyCanceled {
		target = StageCanceled
	}
	if err := sc.stage(stage, target); err != nil {
		return err
	}
	if stage.State() != target {
		// The request was absorbed by a concurrent CancelPipeline (the
		// Synchronizer skip-acks completions of canceled stages): the
		// cancellation path owns the pipeline's terminal settlement, so
		// neither PostExec nor the cursor may run here.
		return nil
	}

	if target == StageDone && stage.PostExec != nil {
		// Adaptivity hook: the decision may append stages to the pipeline.
		before := p.StageCount()
		if err := stage.PostExec(); err != nil {
			return fmt.Errorf("core: stage %s post_exec: %w", stage.UID, err)
		}
		if p.StageCount() > before {
			for _, s := range p.Stages()[before:] {
				w.am.registerLateStage(p, s)
			}
		}
	}

	if target != StageDone {
		// A failed or canceled stage fails the pipeline: later stages
		// depend on it (the PST ordering).
		pTarget := PipelineFailed
		if target == StageCanceled {
			pTarget = PipelineCanceled
		}
		if err := sc.pipeline(p, pTarget); err != nil {
			return err
		}
		// Check the committed state, not the request: a concurrent cancel
		// absorbs the FAILED request, and a canceled pipeline is not a
		// run-failing condition.
		if p.State() == PipelineFailed {
			w.am.setErr(fmt.Errorf("core: pipeline %s (%s) failed at stage %s",
				p.UID, p.Name, stage.UID))
		}
		if w.am.allPipelinesTerminal() {
			w.am.finishLocked()
		}
		w.nudge() // dependents of p must observe its terminal state
		return nil
	}

	if next := p.advanceCursor(); next != nil {
		w.nudge()
		return nil
	}
	return w.completePipelineLocked(p, sc)
}

// completePipeline finishes a pipeline whose cursor is exhausted.
func (w *wfProcessor) completePipeline(p *Pipeline, sc *syncClient) error {
	w.am.completionMu.Lock()
	defer w.am.completionMu.Unlock()
	return w.completePipelineLocked(p, sc)
}

func (w *wfProcessor) completePipelineLocked(p *Pipeline, sc *syncClient) error {
	if p.State().Terminal() {
		return nil
	}
	if p.State() == PipelineSuspended {
		// The last stage finished while the pipeline was paused: completion
		// is deferred until Resume, whose nudge re-runs the enqueue pass
		// that lands here again with the pipeline back in SCHEDULING.
		return nil
	}
	if err := sc.pipeline(p, PipelineDone); err != nil {
		return err
	}
	if w.am.allPipelinesTerminal() {
		w.am.finishLocked()
	}
	w.nudge() // wake pipelines that declared p as a predecessor
	return nil
}
