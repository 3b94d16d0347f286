package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestTaskNominalPath(t *testing.T) {
	task := NewTask("t")
	path := []TaskState{
		TaskScheduling, TaskScheduled, TaskSubmitting,
		TaskSubmitted, TaskExecuted, TaskDone,
	}
	for _, s := range path {
		if err := task.advance(s); err != nil {
			t.Fatalf("advance to %s: %v", s, err)
		}
	}
	if got := task.State(); got != TaskDone {
		t.Fatalf("final state = %s", got)
	}
	if got := len(task.StateHistory()); got != len(path) {
		t.Fatalf("history length = %d, want %d", got, len(path))
	}
}

func TestTaskIllegalTransitions(t *testing.T) {
	cases := []struct {
		from, to TaskState
	}{
		{TaskInitial, TaskDone},
		{TaskInitial, TaskSubmitted},
		{TaskDone, TaskScheduling},
		{TaskCanceled, TaskScheduling},
		{TaskScheduled, TaskExecuted},
		{TaskSubmitted, TaskDone},
	}
	for _, c := range cases {
		task := NewTask("t")
		task.forceState(c.from)
		err := task.advance(c.to)
		if err == nil {
			t.Fatalf("transition %s -> %s allowed", c.from, c.to)
		}
		var te *TransitionError
		if !asTransitionError(err, &te) {
			t.Fatalf("error type %T", err)
		}
		if !strings.Contains(te.Error(), string(c.from)) {
			t.Fatalf("error %q does not mention source state", te.Error())
		}
	}
}

func asTransitionError(err error, out **TransitionError) bool {
	te, ok := err.(*TransitionError)
	if ok {
		*out = te
	}
	return ok
}

func TestFailedTaskCanReschedule(t *testing.T) {
	task := NewTask("t")
	for _, s := range []TaskState{TaskScheduling, TaskScheduled, TaskSubmitting, TaskSubmitted, TaskExecuted, TaskFailed} {
		if err := task.advance(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := task.advance(TaskScheduling); err != nil {
		t.Fatalf("resubmission transition rejected: %v", err)
	}
	if got := task.Attempts(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

func TestTaskTerminalClassification(t *testing.T) {
	for _, s := range []TaskState{TaskDone, TaskFailed, TaskCanceled} {
		if !s.Terminal() {
			t.Fatalf("%s should be terminal", s)
		}
	}
	for _, s := range []TaskState{TaskInitial, TaskScheduling, TaskScheduled, TaskSubmitting, TaskSubmitted, TaskExecuted} {
		if s.Terminal() {
			t.Fatalf("%s should not be terminal", s)
		}
	}
}

func TestStageStateMachine(t *testing.T) {
	s := NewStage("s")
	for _, st := range []StageState{StageScheduling, StageScheduled, StageDone} {
		if err := s.advance(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.advance(StageScheduling); err == nil {
		t.Fatal("DONE stage allowed to reschedule")
	}
	s2 := NewStage("s2")
	if err := s2.advance(StageDone); err == nil {
		t.Fatal("INITIAL -> DONE allowed")
	}
}

func TestPipelineStateMachine(t *testing.T) {
	p := NewPipeline("p")
	if err := p.advance(PipelineScheduling); err != nil {
		t.Fatal(err)
	}
	if err := p.Suspend(); err != nil {
		t.Fatal(err)
	}
	if p.State() != PipelineSuspended {
		t.Fatalf("state = %s", p.State())
	}
	if err := p.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := p.advance(PipelineDone); err != nil {
		t.Fatal(err)
	}
	if err := p.Resume(); err == nil {
		t.Fatal("DONE pipeline resumed")
	}
}

func TestTransitionTablesAreClosed(t *testing.T) {
	// Every state reachable from the tables must itself be in the tables.
	for from, tos := range taskTransitions {
		for _, to := range tos {
			if _, ok := taskTransitions[to]; !ok {
				t.Fatalf("task state %s reachable from %s but has no row", to, from)
			}
		}
	}
	for from, tos := range stageTransitions {
		for _, to := range tos {
			if _, ok := stageTransitions[to]; !ok {
				t.Fatalf("stage state %s reachable from %s but has no row", to, from)
			}
		}
	}
	for from, tos := range pipelineTransitions {
		for _, to := range tos {
			if _, ok := pipelineTransitions[to]; !ok {
				t.Fatalf("pipeline state %s reachable from %s but has no row", to, from)
			}
		}
	}
}

func TestTerminalStatesHaveNoSuccessors(t *testing.T) {
	for _, s := range []TaskState{TaskDone, TaskCanceled} {
		if len(taskTransitions[s]) != 0 {
			t.Fatalf("terminal task state %s has successors", s)
		}
	}
	// FAILED is special: resubmission, or cancellation overriding it.
	if len(taskTransitions[TaskFailed]) != 2 ||
		taskTransitions[TaskFailed][0] != TaskScheduling ||
		taskTransitions[TaskFailed][1] != TaskCanceled {
		t.Fatal("FAILED must transition only to SCHEDULING or CANCELED")
	}
}

func TestUIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		uid := NewUID("task")
		if seen[uid] {
			t.Fatalf("duplicate uid %s", uid)
		}
		seen[uid] = true
	}
}

// TestFormatUIDMatchesSprintf pins NewUID's rendering to the "%s.%06d" form
// it has always had, across the six-digit padding boundary.
func TestFormatUIDMatchesSprintf(t *testing.T) {
	for _, n := range []uint64{1, 999999, 1000000, 12345678} {
		for _, prefix := range []string{"task", "stage", ""} {
			if got, want := formatUID(prefix, n), fmt.Sprintf("%s.%06d", prefix, n); got != want {
				t.Fatalf("formatUID(%q, %d) = %q, want %q", prefix, n, got, want)
			}
		}
	}
}
