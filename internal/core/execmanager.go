package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/broker"
	"repro/internal/msgcodec"
)

// execManager is the Workload-Management-layer component (paper Fig 2) with
// four subcomponents:
//
//   - Rmgr acquires resources by instantiating and starting the RTS.
//   - Emgr pulls tasks from the pending queue, translates them to
//     RTS-specific descriptions and submits them (Fig 2, arrows 2-3).
//   - RTS Callback pushes completed tasks to the done queue (arrow 4).
//   - Heartbeat probes RTS liveness and drives tear-down/restart of a
//     failed RTS, re-executing only the tasks lost in flight (§II-B4).
type execManager struct {
	am *AppManager

	mu       sync.Mutex
	rts      RTS
	restarts int

	pendC    *broker.Consumer
	emgrSync *syncClient
	hbSync   *syncClient

	// scheduled and submitting sort one Emgr batch by the state its tasks
	// are in (Emgr goroutine only; reused across batches).
	scheduled, submitting []*Task

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// inflight tracks task UIDs submitted to the current RTS instance and
	// not yet reported back; on RTS failure these are the lost tasks.
	inflightMu sync.Mutex
	inflight   map[string]bool
}

func newExecManager(am *AppManager) *execManager {
	return &execManager{
		am:       am,
		stopCh:   make(chan struct{}),
		inflight: make(map[string]bool),
	}
}

// start brings up Rmgr (RTS acquisition), Emgr, Callback and Heartbeat.
func (e *execManager) start(ctx context.Context) error {
	var err error
	if e.emgrSync, err = newSyncClient(e.am, ackPrefix+"-emgr"); err != nil {
		return err
	}
	if e.hbSync, err = newSyncClient(e.am, ackPrefix+"-hb"); err != nil {
		return err
	}

	// Rmgr: instantiate and start the RTS (resource acquisition).
	rts, err := e.am.rtsFactory(e.am.res)
	if err != nil {
		return fmt.Errorf("core: rts factory: %w", err)
	}
	if err := rts.Start(ctx); err != nil {
		return fmt.Errorf("core: rts start: %w", err)
	}
	e.mu.Lock()
	e.rts = rts
	e.mu.Unlock()

	// Pull-mode consumer: the Emgr pops whole batches of pending messages
	// per broker round-trip instead of draining a delivery channel. The
	// consumer prefetch caps the realizable batch size, so it registers at
	// the live knob's upper bound; with autotune disabled the bound
	// collapses onto the configured EmgrBatch.
	if e.pendC, err = e.am.brk.ConsumeBatch(e.am.qname(QueuePending), e.am.live.MaxBatch()); err != nil {
		return err
	}

	e.wg.Add(3)
	go e.emgrLoop(ctx)
	go e.callbackLoop(rts)
	go e.heartbeatLoop(ctx)
	return nil
}

// currentRTS returns the live RTS instance.
func (e *execManager) currentRTS() RTS {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rts
}

// emgrLoop drains the pending queue in batches and submits to the RTS.
func (e *execManager) emgrLoop(ctx context.Context) {
	defer e.wg.Done()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ctx.Done():
			return
		default:
		}
		// One broker round-trip per batch; cancellation (stop, broker
		// close) surfaces as an error from ReceiveBatch. The batch bound is
		// the live knob: one atomic load per broker round-trip.
		batch, err := e.pendC.ReceiveBatch(e.am.live.BatchSize())
		if err != nil {
			return
		}
		if err := e.submitBatch(batch); err != nil {
			e.am.finish(err)
			return
		}
	}
}

// submitBatch translates and submits one batch of pending tasks. All
// settlement happens through the broker's batch API: malformed messages are
// dropped as one nack batch, and the live remainder is acked or requeued as
// one batch per outcome.
func (e *execManager) submitBatch(batch []*broker.Delivery) error {
	// Decode every message first, so the descriptions and tasks are sized
	// once for the whole batch and filled in place.
	lists := make([][]string, len(batch))
	var drops []*broker.Delivery
	n := 0
	for i, d := range batch {
		uids, err := msgcodec.DecodeTaskUIDs(d.Body)
		if err != nil {
			drops = append(drops, d)
			continue
		}
		lists[i] = uids
		n += len(uids)
	}
	descs := make([]TaskDescription, 0, n)
	tasks := make([]*Task, 0, n)
	live := make([]*broker.Delivery, 0, len(batch))
	for i, d := range batch {
		if lists[i] == nil {
			continue // malformed: dropped above
		}
		bad := false
		kept := len(tasks)
		tasks = e.am.appendTasks(tasks, lists[i])
		for _, t := range tasks[kept:] {
			switch {
			case t == nil:
				bad = true
			case t.State().Terminal():
				// The task was canceled (or recovered as DONE) after its
				// pending message was published; submitting it would only
				// burn pilot cores on a result the Dequeue will discard.
			default:
				tasks[kept] = t
				kept++
				descs = append(descs, describeTask(t))
			}
		}
		tasks = tasks[:kept]
		// Resolvable tasks are submitted even when the message also named
		// unknown ones; the message itself is then dropped, not requeued.
		if bad {
			drops = append(drops, d)
			continue
		}
		live = append(live, d)
	}
	if err := broker.NackBatch(drops, false); err != nil {
		return err
	}
	// Both transitions are applied before the RTS sees the batch: a fast
	// RTS may otherwise report completion before SUBMITTED is recorded.
	// Fresh tasks take the SUBMITTING -> SUBMITTED path in one request;
	// redelivered tasks (the RTS refused a previous batch) skip the step
	// they already made.
	e.scheduled, e.submitting = e.scheduled[:0], e.submitting[:0]
	for _, t := range tasks {
		switch t.State() {
		case TaskScheduled:
			e.scheduled = append(e.scheduled, t)
		case TaskSubmitting:
			e.submitting = append(e.submitting, t)
		}
	}
	e.emgrSync.begin()
	e.emgrSync.addTasks(e.scheduled, TaskSubmitting, TaskSubmitted)
	e.emgrSync.addTasks(e.submitting, TaskSubmitted)
	if err := e.emgrSync.flush(); err != nil {
		broker.NackBatch(live, true) //nolint:errcheck
		return err
	}
	if len(descs) == 0 {
		return broker.AckBatch(live)
	}
	e.inflightMu.Lock()
	for _, t := range tasks {
		e.inflight[t.UID] = true
	}
	e.inflightMu.Unlock()
	rts := e.currentRTS()
	if rts == nil {
		// Mid-failover: the dead RTS is purged and its replacement is
		// still starting (a remote RTS may spend seconds dialing its
		// agents). The batch is not lost work — requeue it and drop the
		// inflight marks so a later failover cannot re-inject tasks that
		// were never actually submitted.
		e.inflightMu.Lock()
		for _, t := range tasks {
			delete(e.inflight, t.UID)
		}
		e.inflightMu.Unlock()
		return broker.NackBatch(live, true)
	}
	if err := rts.Submit(descs); err != nil {
		// The RTS refused the batch; requeue and let the heartbeat decide
		// whether the RTS is dead.
		e.inflightMu.Lock()
		for _, t := range tasks {
			delete(e.inflight, t.UID)
		}
		e.inflightMu.Unlock()
		return broker.NackBatch(live, true)
	}
	return broker.AckBatch(live)
}

// callbackLoop forwards one RTS instance's completions to the done queue,
// coalescing bursts into one bulk message per drain. Each RTS generation
// publishes through its own shard-pinned producer, so on a sharded done
// queue the Dequeue subcomponent observes one generation's results in
// publish order.
func (e *execManager) callbackLoop(rts RTS) {
	defer e.wg.Done()
	doneP, err := e.am.brk.Producer(e.am.qname(QueueDone))
	if err != nil {
		return // broker closed: tearing down
	}
	for res := range rts.Completions() {
		results := []TaskResult{res}
	drain:
		for len(results) < 256 {
			select {
			case more, ok := <-rts.Completions():
				if !ok {
					break drain
				}
				results = append(results, more)
			default:
				break drain
			}
		}
		e.inflightMu.Lock()
		for _, r := range results {
			delete(e.inflight, r.UID)
		}
		e.inflightMu.Unlock()
		body, err := msgcodec.FormatBinary.EncodeTaskResults(results)
		if err != nil {
			// A result batch that cannot be encoded would vanish and leave
			// its tasks in flight forever: surface the failure as a
			// component error instead of silently dropping completions.
			e.am.finish(fmt.Errorf("core: encode result batch: %w", err))
			return
		}
		if err := doneP.Publish(body); err != nil {
			return // broker closed: tearing down
		}
	}
}

// heartbeatLoop probes RTS liveness every HeartbeatInterval of virtual time.
func (e *execManager) heartbeatLoop(ctx context.Context) {
	defer e.wg.Done()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ctx.Done():
			return
		case <-e.am.clock.After(e.am.cfg.HeartbeatInterval):
			rts := e.currentRTS()
			if rts == nil || rts.Alive() {
				continue
			}
			if err := e.failover(ctx, rts); err != nil {
				e.am.finish(err)
				return
			}
		}
	}
}

// failover implements the paper's RTS failure model: "EnTK purges any
// process left over by the failed RTS, starts a new instance of the RTS,
// acquires new pilot resources, and restarts executing the ensemble until
// completion", losing "only those tasks that were in execution at the time
// of the RTS failure".
func (e *execManager) failover(ctx context.Context, failed RTS) error {
	e.mu.Lock()
	if e.rts != failed {
		e.mu.Unlock()
		return nil // already replaced
	}
	e.restarts++
	if e.restarts > e.am.cfg.RTSRestarts {
		e.mu.Unlock()
		return fmt.Errorf("core: RTS failed %d times; restart budget exhausted", e.restarts)
	}
	e.rts = nil
	e.mu.Unlock()

	failed.Stop() //nolint:errcheck // purge the dead RTS

	// The lost tasks: submitted to the dead RTS, never reported back.
	e.inflightMu.Lock()
	lost := make([]string, 0, len(e.inflight))
	for uid := range e.inflight {
		lost = append(lost, uid)
	}
	e.inflight = make(map[string]bool)
	e.inflightMu.Unlock()

	fresh, err := e.am.rtsFactory(e.am.res)
	if err != nil {
		return fmt.Errorf("core: rts factory on restart: %w", err)
	}
	if err := fresh.Start(ctx); err != nil {
		return fmt.Errorf("core: rts restart: %w", err)
	}
	e.mu.Lock()
	e.rts = fresh
	e.mu.Unlock()
	e.wg.Add(1)
	go e.callbackLoop(fresh)

	// Re-inject lost tasks through the normal path: their in-flight
	// attempt failed through no fault of their own, so the RTS restart
	// does not consume the tasks' own retry budget — they are marked
	// failed by the restart and rescheduled immediately.
	for _, uid := range lost {
		t, ok := e.am.Task(uid)
		if !ok {
			continue
		}
		// The whole failed-attempt/reschedule sequence is one path.
		e.hbSync.begin()
		e.hbSync.addTaskResult([]*Task{t}, -1, "rts failure",
			TaskExecuted, TaskFailed, TaskScheduling, TaskScheduled)
		if err := e.hbSync.flush(); err != nil {
			return err
		}
		if err := e.am.brk.Publish(e.am.qname(QueuePending), msgcodec.FormatBinary.EncodeTaskUID(uid)); err != nil {
			return err
		}
	}
	return nil
}

// Restarts reports how many times the RTS was restarted.
func (e *execManager) Restarts() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restarts
}

// stop tears down subcomponents and the RTS.
func (e *execManager) stop() {
	e.stopComponentsOnly()
	e.stopRTS()
}

// stopComponentsOnly cancels the Emgr/Callback/Heartbeat subcomponents but
// leaves the RTS running (its tear-down is measured separately).
func (e *execManager) stopComponentsOnly() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	if e.pendC != nil {
		e.pendC.Cancel()
	}
	// Callback loops exit when the RTS closes Completions (stopRTS) or the
	// broker closes. Sync clients are closed after the wait in stopRTS.
}

// stopRTS shuts the runtime system down and waits for subcomponents.
func (e *execManager) stopRTS() {
	rts := e.currentRTS()
	if rts != nil {
		rts.Stop() //nolint:errcheck
	}
	e.wg.Wait()
	if e.emgrSync != nil {
		e.emgrSync.close()
	}
	if e.hbSync != nil {
		e.hbSync.close()
	}
}
