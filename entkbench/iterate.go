package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
)

// iterParams describe one iteration: one full describe → assemble →
// AddPipelines → Start → Done cycle of a workload.
type iterParams struct {
	sh     shape
	seed   int64
	dir    string // working directory of this iteration, removed afterwards
	traced bool
	mutate func([]*core.Pipeline) // alters the description before AddPipelines (tests)
}

// iterResult is what one iteration measured and checked.
type iterResult struct {
	tasks int
	done  int

	setup, ttx time.Duration
	cpu        time.Duration
	peakRSS    uint64
	allocBytes uint64
	gcCycles   uint32
	turnaround []time.Duration

	// spans are the setup phases timed around the benchmark's calls:
	// entk.assemble, core.describe, core.add_pipelines, core.start.
	spans map[string]time.Duration
	// counters are per-layer tallies read after Done.
	counters map[string]float64
	trace    *traceResult

	// Output checks. Each failure counts in task_fail_ratio.
	notDone       int
	extraAttempts int
	failures      []string
}

func (r *iterResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// failed is the iteration's share of task_fail_ratio's numerator.
func (r *iterResult) failed() int { return r.notDone + r.extraAttempts + len(r.failures) }

// runIteration runs one iteration and checks its outputs. An error means
// the stack could not be set up or run at all; task-level failures are
// reported in the result instead.
func runIteration(ctx context.Context, p iterParams) (*iterResult, error) {
	sh := p.sh
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)
	ctx, cancel := context.WithTimeout(ctx, iterationTimeout)
	defer cancel()

	o := stackOptions{seed: p.seed, cores: sh.cores}
	if sh.durable {
		o.journalDir = filepath.Join(p.dir, "journal")
		o.auditPath = auditFile(o.journalDir, 1)
	}
	for i := 0; i < sh.agents; i++ {
		// Relative socket paths keep within the 108-byte sun_path limit
		// whatever the checkout's absolute path.
		o.agentAddrs = append(o.agentAddrs, "unix:"+filepath.Join(p.dir, fmt.Sprintf("agent-%d.sock", i)))
	}

	res := &iterResult{tasks: sh.totalTasks(), spans: map[string]time.Duration{}, counters: map[string]float64{}}

	// Start every iteration from a collected heap, so the previous one's
	// garbage is not collected inside this one. Freed pages are not forced
	// back to the OS: faulting them in again would add page-fault noise to
	// every timing, and the resident peak then reads as the steady-state
	// footprint of a process that runs the workload again and again.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	rss := startRSSSampler()
	defer rss.stop()

	t0 := time.Now()
	clock := newStageClock(sh)
	pipes, err := describe(sh, p.seed, clock)
	if err != nil {
		return nil, fmt.Errorf("describe: %w", err)
	}
	if p.mutate != nil {
		p.mutate(pipes)
	}
	t1 := time.Now()
	st, err := assemble(o)
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	defer st.close()
	t2 := time.Now()
	if err := st.am.AddPipelines(pipes...); err != nil {
		return nil, fmt.Errorf("add pipelines: %w", err)
	}
	t3 := time.Now()
	// Subscribers that need every event size their ring to the whole run:
	// the engine commits in bursts of up to a batch of tasks, and a ring of
	// the default size drops most of a burst before a consumer on another
	// goroutine is even scheduled. The probe keeps that default-ring
	// behaviour measured in traced runs.
	var w, probe *watcher
	if sh.durable {
		w = watch(st.am.Subscribe(core.EventFilter{Buffer: sh.expectedEvents()}))
	}
	var tr *tracer
	if p.traced {
		tr = newTracer(st, st.am.Subscribe(core.EventFilter{Buffer: sh.expectedEvents()}))
		probe = watch(st.am.Subscribe(core.EventFilter{}))
	}
	run, err := st.am.Start(ctx)
	tStart := time.Now()
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	runErr := waitRun(ctx, run)
	tDone := time.Now()
	res.cpu = cpuTime() - cpu0
	res.peakRSS = rss.stop()
	runtime.ReadMemStats(&ms1)

	res.setup, res.ttx = tStart.Sub(t0), tDone.Sub(tStart)
	res.spans["core.describe"] = t1.Sub(t0)
	res.spans["entk.assemble"] = t2.Sub(t1)
	res.spans["core.add_pipelines"] = t3.Sub(t2)
	res.spans["core.start"] = tStart.Sub(t3)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.turnaround = clock.turnarounds(tStart)

	if runErr != nil {
		res.fail("run: %v", runErr)
	}
	snap := st.am.Snapshot()
	res.done = snap.TasksDone
	res.notDone = res.tasks - snap.TasksDone
	res.extraAttempts = max(0, snap.TaskAttempts-snap.TasksTotal)
	for _, pipe := range pipes {
		if pipe.State() != core.PipelineDone {
			res.fail("pipeline %s ended %s", pipe.UID, pipe.State())
		}
	}
	restarts := st.am.RTSRestarts()
	if restarts != 0 {
		res.fail("%d RTS restarts", restarts)
	}
	if n := len(st.rtsInstances()); n != 1 {
		res.fail("%d RTS instances built, want 1", n)
	}
	res.counters["core.rts_restarts"] = float64(restarts)
	res.counters["core.attempts_per_task"] = float64(snap.TaskAttempts) / float64(res.tasks)
	readCounters(res, st, snap)

	if w != nil {
		n, dropped, err := w.wait(ctx)
		res.counters["core.events.dropped"] = float64(dropped)
		switch {
		case err != nil:
			res.fail("event subscriber: %v", err)
		case dropped != 0:
			res.fail("event subscriber dropped %d events", dropped)
		case n != sh.expectedEvents():
			res.fail("event subscriber saw %d events, want %d", n, sh.expectedEvents())
		}
	}
	if tr != nil {
		t, err := tr.finish(ctx, tStart, tDone)
		if err != nil {
			return nil, err
		}
		_, t.defaultRingDropped, err = probe.wait(ctx)
		if err != nil {
			return nil, err
		}
		res.trace = t
	}
	if sh.agents > 0 {
		if n := st.served(); n != res.tasks {
			res.fail("agents served %d results, want %d", n, res.tasks)
		}
	}
	if sh.durable {
		if d := snap.Durability; d != nil {
			res.counters["journal.snapshots"] = float64(d.Snapshots)
			res.counters["journal.compacted_segments"] = float64(d.CompactedSegments)
			res.counters["journal.bytes_per_task"] = journalBytes(o.journalDir, d.JournalSeq) / float64(res.tasks)
		} else {
			res.fail("durable run reports no durability stats")
		}
		// Outside the timed window: a fresh AppManager resuming the
		// directory must find every task DONE and submit none again.
		if err := resumeCheck(ctx, sh, p.seed, o.journalDir); err != nil {
			res.fail("resume: %v", err)
		}
	}
	return res, nil
}

// counterUnits names every per-iteration counter of the workloads with its
// unit.
var counterUnits = map[string]string{
	"rts.store.steal_ratio":         "ratio",
	"rts.sched.dispatches_per_pull": "tasks",
	"rts.sched.busy_share":          "ratio",
	"core.attempts_per_task":        "count",
	"core.rts_restarts":             "count",
	"runtime.alloc_bytes_per_task":  "B",
	"runtime.gc_cycles":             "count",
	"broker.msgs_per_task":          "count",
	"broker.msgs_per_publish_batch": "count",
}

// durableCounterUnits names the counters only a durable, watched iteration
// sets; they are read from the deployment iterations.
var durableCounterUnits = map[string]string{
	"core.events.dropped":        "count",
	"journal.bytes_per_task":     "B",
	"journal.snapshots":          "count",
	"journal.compacted_segments": "count",
}

// readCounters fills the store, scheduler, broker and runtime counters.
func readCounters(res *iterResult, st *stack, snap core.Progress) {
	var ss core.StoreStats
	for _, r := range st.rtsInstances() {
		if sr, ok := r.(core.StoreStatsReporter); ok {
			ss = sr.StoreStats()
		}
	}
	var pulls, dispatches uint64
	var busy time.Duration
	for i := range ss.SchedulerPulls {
		pulls += ss.SchedulerPulls[i]
	}
	for i := range ss.SchedulerDispatches {
		dispatches += ss.SchedulerDispatches[i]
	}
	for i := range ss.SchedulerBusy {
		busy += ss.SchedulerBusy[i]
	}
	res.counters["rts.store.steal_ratio"] = ratio(float64(ss.Steals), float64(pulls))
	res.counters["rts.sched.dispatches_per_pull"] = ratio(float64(dispatches), float64(pulls))
	// Scheduler busy time is virtual; the run's virtual length is its wall
	// length divided by the clock scale.
	virtualTTX := float64(res.ttx) / timeScale.Seconds()
	res.counters["rts.sched.busy_share"] = ratio(float64(busy), float64(max(ss.Schedulers, 1))*virtualTTX)

	bs := st.am.Broker().TotalStats()
	res.counters["broker.msgs_per_task"] = float64(bs.Published) / float64(res.tasks)
	res.counters["broker.msgs_per_publish_batch"] = ratio(float64(bs.Published), float64(bs.PublishBatches))
	res.counters["runtime.alloc_bytes_per_task"] = float64(res.allocBytes) / float64(res.tasks)
	res.counters["runtime.gc_cycles"] = float64(res.gcCycles)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// journalBytes estimates the bytes the run appended to its journal: the
// mean record size of the segments still on disk times the records
// journaled (compaction deletes the older segments).
func journalBytes(dir string, records uint64) float64 {
	segs, err := journal.ListSegments(dir)
	if err != nil {
		return 0
	}
	var size int64
	var n uint64
	for _, s := range segs {
		if s.LastSeq >= s.FirstSeq && s.FirstSeq > 0 {
			size += s.Size
			n += s.LastSeq - s.FirstSeq + 1
		}
	}
	return ratio(float64(size), float64(n)) * float64(records)
}

// resumeCheck resumes a finished durable run from its journal directory on
// a fresh stack and fails if any task is submitted again.
func resumeCheck(ctx context.Context, sh shape, seed int64, dir string) error {
	pipes, err := describe(sh, seed, nil)
	if err != nil {
		return err
	}
	st, err := assemble(stackOptions{seed: seed, cores: sh.cores, journalDir: dir, auditPath: auditFile(dir, 2)})
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.am.AddPipelines(pipes...); err != nil {
		return err
	}
	run, err := st.am.Resume(ctx, dir)
	if err != nil {
		return err
	}
	if err := waitRun(ctx, run); err != nil {
		return err
	}
	if info := st.am.RecoveryInfo(); !info.Resumed || info.TasksRecovered != sh.totalTasks() {
		return fmt.Errorf("recovered %d of %d tasks (resumed=%v)", info.TasksRecovered, sh.totalTasks(), info.Resumed)
	}
	submitted := 0
	for _, r := range st.rtsInstances() {
		submitted += r.Stats().TasksSubmitted
	}
	if submitted != 0 {
		return fmt.Errorf("re-executed %d tasks", submitted)
	}
	if done := st.am.Snapshot().TasksDone; done != sh.totalTasks() {
		return fmt.Errorf("%d of %d tasks DONE after resume", done, sh.totalTasks())
	}
	return nil
}

// watcher is the deployment iterations' in-process subscriber: it
// drains every event and counts them.
type watcher struct {
	sub  *core.EventSub
	n    int
	done chan struct{}
}

func watch(sub *core.EventSub) *watcher {
	w := &watcher{sub: sub, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for range sub.C() {
			w.n++
		}
	}()
	return w
}

// wait returns the event count and drops once the stream has closed.
func (w *watcher) wait(ctx context.Context) (int, uint64, error) {
	select {
	case <-w.done:
		return w.n, w.sub.Dropped(), nil
	case <-ctx.Done():
		w.sub.Close()
		<-w.done
		return w.n, w.sub.Dropped(), ctx.Err()
	}
}
