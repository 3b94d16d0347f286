package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/msgcodec"
)

// stateRecs returns the "state" records of a journal directory, in order.
func stateRecs(t *testing.T, dir string) []msgcodec.StateRec {
	t.Helper()
	var out []msgcodec.StateRec
	err := journal.ReplayDir(dir, func(rec journal.Record) error {
		if rec.Type != "state" {
			return nil
		}
		sr, err := msgcodec.DecodeStateRec(rec.Data)
		if err != nil {
			return err
		}
		out = append(out, sr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drain collects a subscription's events until the stream ends.
func drain(sub *EventSub) <-chan []Event {
	out := make(chan []Event, 1)
	go func() {
		var evs []Event
		for ev := range sub.C() {
			evs = append(evs, ev)
		}
		out <- evs
	}()
	return out
}

// durableSync registers pipes on a fresh AppManager journaling to dir and
// returns a synchronizer over it — the commit path without the components,
// so a test drives transitions request by request.
func durableSync(t *testing.T, dir string, pipes []*Pipeline) (*synchronizer, *AppManager) {
	t.Helper()
	am, _ := testApp(t, Config{JournalDir: dir})
	if err := am.AddPipelines(pipes...); err != nil {
		t.Fatal(err)
	}
	if err := am.registerEntities(); err != nil {
		t.Fatal(err)
	}
	if err := am.openDurable(); err != nil {
		t.Fatal(err)
	}
	return newSynchronizer(am), am
}

// viaFrame passes a request through the wire codec, as the states queue
// does, and applies it.
func viaFrame(t *testing.T, s *synchronizer, req stateRequest) stateAck {
	t.Helper()
	fr, err := msgcodec.DecodeSyncFrame(msgcodec.FormatBinary.EncodeSyncFrame(
		msgcodec.SyncFrame{Reply: "q", Seq: 1, Reqs: []stateRequest{req}}))
	if err != nil {
		t.Fatal(err)
	}
	return s.apply(&fr.Reqs[0])
}

// TestRejectedBulkRequestChangesNothing pins that a bulk request rejected
// at its last UID — an unknown task, or an illegal first or second step —
// changes no task: every task's State(), the journal and the event stream
// still agree, on the states the tasks had before the request.
func TestRejectedBulkRequestChangesNothing(t *testing.T) {
	steps := func(states ...TaskState) []string {
		out := make([]string, len(states))
		for i, st := range states {
			out[i] = string(st)
		}
		return out
	}
	cases := []struct {
		name string
		last string // the request's last UID ("" = the DONE task)
		path []string
	}{
		{"unknown-uid", "task.missing", steps(TaskScheduled, TaskSubmitting)},
		// DONE -> SCHEDULED is illegal.
		{"illegal-first-step", "", steps(TaskScheduled, TaskSubmitting)},
		// DONE absorbs CANCELED, then DONE -> SCHEDULING is illegal; the
		// other tasks would cancel and then absorb SCHEDULING.
		{"illegal-second-step", "", steps(TaskCanceled, TaskScheduling)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pipes := buildApp(1, 1, 8, time.Second)
			s, am := durableSync(t, dir, pipes)
			sub := am.Subscribe(EventFilter{Buffer: 1 << 10})
			got := drain(sub)
			tasks := pipes[0].Stages()[0].Tasks()
			uids := make([]string, len(tasks))
			for i, task := range tasks {
				uids[i] = task.UID
			}
			n := len(uids) - 1
			// The first tasks reach SCHEDULING and the last one DONE.
			for _, req := range []stateRequest{
				{Entity: "task", UIDs: uids[:n], Path: steps(TaskScheduling)},
				{Entity: "task", UIDs: uids[n:], Path: steps(TaskScheduling, TaskScheduled,
					TaskSubmitting, TaskSubmitted, TaskExecuted, TaskDone)},
			} {
				if ack := viaFrame(t, s, req); !ack.OK {
					t.Fatal(ack.Err)
				}
			}

			bulk := append([]string{}, uids[:n]...)
			if tc.last != "" {
				bulk = append(bulk, tc.last)
			} else {
				bulk = append(bulk, uids[n])
			}
			if ack := viaFrame(t, s, stateRequest{Entity: "task", UIDs: bulk, Path: tc.path}); ack.OK {
				t.Fatal("request with an illegal last UID accepted")
			}
			am.closeJournal()
			am.events.closeAll()
			evs := <-got

			journaled := map[string]string{}
			for _, sr := range stateRecs(t, dir) {
				journaled[sr.UID] = sr.State
			}
			evented := map[string]string{}
			for _, ev := range evs {
				evented[ev.UID] = ev.To
			}
			for i, task := range tasks {
				want := TaskScheduling
				if i == n {
					want = TaskDone
				}
				if task.State() != want || journaled[task.UID] != string(want) || evented[task.UID] != string(want) {
					t.Fatalf("task %d: state %s, journal %q, events %q; want %s everywhere",
						i, task.State(), journaled[task.UID], evented[task.UID], want)
				}
			}
		})
	}
}

// TestPathRequestsMatchSingleSteps runs a small PST with a journal and a
// full-ring subscriber, then replays the run's journaled transitions as
// single-step requests on a fresh copy of the application: the journal's
// state records and the event stream must be identical, so naming a UID
// list once per path changes nothing a reader can observe.
func TestPathRequestsMatchSingleSteps(t *testing.T) {
	const nPipes, nStages, nTasks = 2, 2, 3
	build := func() []*Pipeline {
		pipes := buildApp(nPipes, nStages, nTasks, time.Second)
		stampUIDs(pipes)
		return pipes
	}

	dirA := t.TempDir()
	amA, _ := testApp(t, Config{JournalDir: dirA})
	if err := amA.AddPipelines(build()...); err != nil {
		t.Fatal(err)
	}
	subA := amA.Subscribe(EventFilter{Buffer: 1 << 12})
	gotA := drain(subA)
	if err := startApp(t, amA).Wait(); err != nil {
		t.Fatal(err)
	}
	evA := <-gotA
	recA := stateRecs(t, dirA)
	if subA.Dropped() != 0 {
		t.Fatalf("full-ring subscriber dropped %d events", subA.Dropped())
	}

	perEntity := map[EventKind]map[string]int{EventTask: {}, EventStage: {}, EventPipeline: {}}
	for _, ev := range evA {
		perEntity[ev.Kind][ev.UID]++
	}
	for _, c := range []struct {
		kind             EventKind
		entities, events int
	}{
		{EventTask, nPipes * nStages * nTasks, 6},
		{EventStage, nPipes * nStages, 3},
		{EventPipeline, nPipes, 2},
	} {
		if len(perEntity[c.kind]) != c.entities {
			t.Fatalf("%s events name %d entities, want %d", c.kind, len(perEntity[c.kind]), c.entities)
		}
		for uid, got := range perEntity[c.kind] {
			if got != c.events {
				t.Fatalf("%s %s: %d events, want %d", c.kind, uid, got, c.events)
			}
		}
	}
	if len(recA) != len(evA) {
		t.Fatalf("%d state records but %d events", len(recA), len(evA))
	}

	dirB := t.TempDir()
	s, amB := durableSync(t, dirB, build())
	subB := amB.Subscribe(EventFilter{Buffer: 1 << 12})
	gotB := drain(subB)
	for i, rec := range recA {
		req := stateRequest{Entity: rec.Entity, UID: rec.UID, Path: []string{rec.State}}
		if ack := viaFrame(t, s, req); !ack.OK {
			t.Fatalf("single step %d %+v rejected: %s", i, rec, ack.Err)
		}
	}
	amB.closeJournal()
	amB.events.closeAll()
	evB := <-gotB

	if recB := stateRecs(t, dirB); !reflect.DeepEqual(recA, recB) {
		t.Fatalf("journals differ:\npath form   %v\nsingle step %v", recA, recB)
	}
	strip := func(evs []Event) []string {
		out := make([]string, len(evs))
		for i, ev := range evs {
			out[i] = fmt.Sprintf("%s %s %s/%s %s->%s #%d", ev.Kind, ev.UID, ev.Pipeline, ev.Stage, ev.From, ev.To, ev.Attempt)
		}
		return out
	}
	if a, b := strip(evA), strip(evB); !reflect.DeepEqual(a, b) {
		t.Fatalf("event streams differ:\npath form   %v\nsingle step %v", a, b)
	}
}

// TestApplyAllocsFlatInWidth guards the synchronizer's scratch buffers: a
// decoded two-step bulk request costs the same number of allocations over
// 1,024 UIDs as over 64, so nothing on the commit path grows per task.
// Journal and events are off; each run resets the tasks in place so the
// task's own state history does not grow either.
func TestApplyAllocsFlatInWidth(t *testing.T) {
	allocs := func(width int) float64 {
		am, _ := testApp(t, Config{})
		pipes := buildApp(1, 1, width, time.Second)
		if err := am.AddPipelines(pipes...); err != nil {
			t.Fatal(err)
		}
		if err := am.registerEntities(); err != nil {
			t.Fatal(err)
		}
		tasks := pipes[0].Stages()[0].Tasks()
		uids := make([]string, len(tasks))
		for i, task := range tasks {
			uids[i] = task.UID
		}
		fr, err := msgcodec.DecodeSyncFrame(msgcodec.FormatBinary.EncodeSyncFrame(msgcodec.SyncFrame{
			Reqs: []stateRequest{{Entity: "task", UIDs: uids,
				Path: []string{string(TaskSubmitting), string(TaskSubmitted)}}},
		}))
		if err != nil {
			t.Fatal(err)
		}
		req := &fr.Reqs[0]
		s := newSynchronizer(am)
		return testing.AllocsPerRun(20, func() {
			for _, task := range tasks {
				task.state = TaskScheduled
				task.stateHistory = task.stateHistory[:0]
			}
			if ack := s.apply(req); !ack.OK {
				t.Fatal(ack.Err)
			}
		})
	}
	narrow, wide := allocs(64), allocs(1024)
	t.Logf("allocs per apply: %.0f at 64 UIDs, %.0f at 1024", narrow, wide)
	if narrow != wide {
		t.Fatalf("apply allocates %.0f times over 64 UIDs but %.0f over 1024", narrow, wide)
	}
}

// TestSyncFramesPerStage pins the states-queue traffic of a 1-task stage at
// four frames: the Enqueue frame (stage SCHEDULING, the task's SCHEDULING
// -> SCHEDULED, stage SCHEDULED), the Emgr's SUBMITTING -> SUBMITTED, the
// Dequeue's EXECUTED -> DONE and the stage's DONE. PostExec runs right after
// the stage's DONE commits, so consecutive stages' readings differ by
// exactly one stage's frames; the broker is closed by teardown, which is
// why the counter is read from the hook. The events must also show each
// stage SCHEDULED before its task is SUBMITTING.
func TestSyncFramesPerStage(t *testing.T) {
	const nStages, want = 8, 4
	am, _ := testApp(t, Config{})
	pipes := buildApp(1, nStages, 1, time.Second)
	published := make([]uint64, nStages)
	for i, s := range pipes[0].Stages() {
		s.PostExec = func() error {
			st, err := am.Broker().Stats(am.qname(QueueStates))
			published[i] = st.Published
			return err
		}
	}
	if err := am.AddPipelines(pipes...); err != nil {
		t.Fatal(err)
	}
	sub := am.Subscribe(EventFilter{Buffer: 1 << 10})
	got := drain(sub)
	if err := startApp(t, am).Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nStages; i++ {
		if d := published[i] - published[i-1]; d != want {
			t.Fatalf("stage %d took %d states-queue frames, want %d (readings %v)", i, d, want, published)
		}
	}

	scheduled := map[string]bool{} // stage UIDs whose SCHEDULED was seen
	for _, ev := range <-got {
		switch {
		case ev.Kind == EventStage && ev.To == string(StageScheduled):
			scheduled[ev.UID] = true
		case ev.Kind == EventTask && ev.To == string(TaskSubmitting) && !scheduled[ev.Stage]:
			t.Fatalf("task %s SUBMITTING before its stage %s was SCHEDULED", ev.UID, ev.Stage)
		}
	}
	if len(scheduled) != nStages {
		t.Fatalf("saw %d stage SCHEDULED events, want %d", len(scheduled), nStages)
	}
}
