package core

import (
	"math/rand"
	"testing"
	"time"
)

func validTask(name string) *Task {
	t := NewTask(name)
	t.Executable = "sleep"
	t.Duration = time.Second
	return t
}

func TestTaskValidate(t *testing.T) {
	good := validTask("ok")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	noExec := NewTask("no-exec")
	if err := noExec.Validate(); err == nil {
		t.Fatal("task without executable accepted")
	}
	localOnly := NewTask("local")
	localOnly.LocalFunc = func() error { return nil }
	if err := localOnly.Validate(); err != nil {
		t.Fatalf("LocalFunc-only task rejected: %v", err)
	}
	negDur := validTask("neg")
	negDur.Duration = -time.Second
	if err := negDur.Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
	badStaging := validTask("stage")
	badStaging.InputStaging = []StagingDirective{{Source: "a", Target: "b", Action: "teleport"}}
	if err := badStaging.Validate(); err == nil {
		t.Fatal("invalid staging action accepted")
	}
	negIO := validTask("io")
	negIO.IOLoad = -1
	if err := negIO.Validate(); err == nil {
		t.Fatal("negative IO load accepted")
	}
}

func TestCPUReqsCores(t *testing.T) {
	cases := []struct {
		reqs CPUReqs
		want int
	}{
		{CPUReqs{}, 1},
		{CPUReqs{Processes: 4}, 4},
		{CPUReqs{Processes: 4, ThreadsPerProcess: 2}, 8},
		{CPUReqs{ThreadsPerProcess: 16}, 16},
	}
	for _, c := range cases {
		if got := c.reqs.Cores(); got != c.want {
			t.Fatalf("Cores(%+v) = %d, want %d", c.reqs, got, c.want)
		}
	}
}

func TestStageAddTaskAfterStartRejected(t *testing.T) {
	s := NewStage("s")
	if err := s.AddTask(validTask("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.advance(StageScheduling); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(validTask("b")); err == nil {
		t.Fatal("added task to scheduling stage")
	}
	if s.TaskCount() != 1 {
		t.Fatalf("task count = %d", s.TaskCount())
	}
}

func TestStageValidateEmpty(t *testing.T) {
	s := NewStage("empty")
	if err := s.Validate(); err == nil {
		t.Fatal("empty stage accepted")
	}
}

func TestStageTasksTerminal(t *testing.T) {
	s := NewStage("s")
	t1, t2 := validTask("a"), validTask("b")
	s.AddTasks(t1, t2)
	all, failed, canceled := s.tasksTerminal()
	if all {
		t.Fatal("fresh tasks reported terminal")
	}
	t1.forceState(TaskDone)
	all, _, _ = s.tasksTerminal()
	if all {
		t.Fatal("one pending task but stage reported terminal")
	}
	t2.forceState(TaskFailed)
	all, failed, canceled = s.tasksTerminal()
	if !all || !failed || canceled {
		t.Fatalf("terminal=%v failed=%v canceled=%v", all, failed, canceled)
	}
}

// scanCounts is the reference for the stage's class counters: its tasks
// counted by class from their own states.
func scanCounts(s *Stage) (open, failed, canceled int64) {
	for _, t := range s.Tasks() {
		switch t.State() {
		case TaskDone:
		case TaskFailed:
			failed++
		case TaskCanceled:
			canceled++
		default:
			open++
		}
	}
	return open, failed, canceled
}

// checkCounts fails the test unless the stage's class counters match a scan
// of its tasks and tasksTerminal reports want (all, failed, canceled).
func checkCounts(t *testing.T, s *Stage, want [3]bool) {
	t.Helper()
	o, f, c := scanCounts(s)
	if s.open.Load() != o || s.failed.Load() != f || s.canceled.Load() != c {
		t.Fatalf("counters open=%d failed=%d canceled=%d, scan %d/%d/%d",
			s.open.Load(), s.failed.Load(), s.canceled.Load(), o, f, c)
	}
	all, failed, canceled := s.tasksTerminal()
	if got := [3]bool{all, failed, canceled}; got != want {
		t.Fatalf("tasksTerminal = %v, want %v", got, want)
	}
}

// walk advances a task along path, failing the test on an illegal step.
func walk(t *testing.T, task *Task, path ...TaskState) {
	t.Helper()
	for _, to := range path {
		if err := task.advance(to); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStageClassCounts pins tasksTerminal's O(1) counters to the tasks'
// states through completion, resubmission, cancellation of a failed task
// and journal recovery.
func TestStageClassCounts(t *testing.T) {
	inFlight := []TaskState{TaskScheduling, TaskScheduled, TaskSubmitting, TaskSubmitted, TaskExecuted}
	stage := func(n int) (*Stage, []*Task) {
		s := NewStage("s")
		ts := make([]*Task, n)
		for i := range ts {
			ts[i] = validTask("t")
		}
		if err := s.AddTasks(ts...); err != nil {
			t.Fatal(err)
		}
		return s, ts
	}
	t.Run("done", func(t *testing.T) {
		s, ts := stage(2)
		checkCounts(t, s, [3]bool{false, false, false})
		walk(t, ts[0], append(inFlight, TaskDone)...)
		checkCounts(t, s, [3]bool{false, false, false})
		walk(t, ts[1], append(inFlight, TaskDone)...)
		checkCounts(t, s, [3]bool{true, false, false})
	})
	t.Run("failed-resubmitted", func(t *testing.T) {
		s, ts := stage(2)
		walk(t, ts[0], append(inFlight, TaskDone)...)
		walk(t, ts[1], append(inFlight, TaskFailed)...)
		checkCounts(t, s, [3]bool{true, true, false})
		walk(t, ts[1], TaskScheduling)
		checkCounts(t, s, [3]bool{false, false, false})
		walk(t, ts[1], append(inFlight[1:], TaskDone)...)
		checkCounts(t, s, [3]bool{true, false, false})
	})
	t.Run("failed-canceled", func(t *testing.T) {
		s, ts := stage(2)
		walk(t, ts[0], TaskCanceled)
		walk(t, ts[1], append(inFlight, TaskFailed, TaskCanceled)...)
		checkCounts(t, s, [3]bool{true, false, true})
	})
	t.Run("recovery", func(t *testing.T) {
		s, ts := stage(3)
		ts[0].forceState(TaskDone)
		ts[1].forceState(TaskDone)
		checkCounts(t, s, [3]bool{false, false, false})
		ts[2].forceState(TaskDone)
		ts[2].forceState(TaskDone) // a repeated restore stays counted once
		checkCounts(t, s, [3]bool{true, false, false})
	})
	t.Run("added-terminal", func(t *testing.T) {
		done := validTask("t")
		done.forceState(TaskDone)
		failed := validTask("t")
		failed.forceState(TaskFailed)
		s := NewStage("s")
		if err := s.AddTasks(done, failed); err != nil {
			t.Fatal(err)
		}
		checkCounts(t, s, [3]bool{true, true, false})
	})
}

// TestStageClassCountsRandomWalk drives random transition requests (and
// the occasional forced state) against a stage's tasks and checks the
// counters against a scan after every move.
func TestStageClassCountsRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewStage("s")
	ts := make([]*Task, 6)
	for i := range ts {
		ts[i] = validTask("t")
		if err := s.AddTask(ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		task := ts[rng.Intn(len(ts))]
		to := allTaskStates[rng.Intn(len(allTaskStates))]
		if rng.Intn(10) == 0 {
			task.forceState(to)
		} else {
			task.advance(to) //nolint:errcheck // illegal moves are part of the walk
		}
		o, f, c := scanCounts(s)
		all, failed, canceled := s.tasksTerminal()
		if s.open.Load() != o || s.failed.Load() != f || s.canceled.Load() != c ||
			all != (o == 0) || failed != (f > 0) || canceled != (c > 0) {
			t.Fatalf("move %d: counters %d/%d/%d (%v %v %v), scan %d/%d/%d",
				i, s.open.Load(), s.failed.Load(), s.canceled.Load(), all, failed, canceled, o, f, c)
		}
	}
}

func TestPipelineParentWiring(t *testing.T) {
	p := NewPipeline("p")
	s := NewStage("s")
	task := validTask("t")
	s.AddTask(task)
	if err := p.AddStage(s); err != nil {
		t.Fatal(err)
	}
	if s.Parent() != p.UID {
		t.Fatalf("stage parent = %q", s.Parent())
	}
	pu, su := task.Parent()
	if pu != p.UID || su != s.UID {
		t.Fatalf("task parents = %q, %q", pu, su)
	}
}

func TestPipelineCursor(t *testing.T) {
	p := NewPipeline("p")
	s1, s2 := NewStage("s1"), NewStage("s2")
	s1.AddTask(validTask("a"))
	s2.AddTask(validTask("b"))
	p.AddStages(s1, s2)
	if got := p.currentStage(); got != s1 {
		t.Fatal("cursor not at first stage")
	}
	if got := p.advanceCursor(); got != s2 {
		t.Fatal("cursor did not advance to second stage")
	}
	if got := p.advanceCursor(); got != nil {
		t.Fatal("cursor advanced past last stage")
	}
	if p.CurrentStageIndex() != 2 {
		t.Fatalf("index = %d", p.CurrentStageIndex())
	}
}

func TestPipelineAddStageWhileRunning(t *testing.T) {
	p := NewPipeline("p")
	s1 := NewStage("s1")
	s1.AddTask(validTask("a"))
	p.AddStage(s1)
	p.forceState(PipelineScheduling)
	s2 := NewStage("late")
	s2.AddTask(validTask("b"))
	if err := p.AddStage(s2); err != nil {
		t.Fatalf("adding stage to running pipeline rejected: %v", err)
	}
	p.forceState(PipelineDone)
	s3 := NewStage("too-late")
	s3.AddTask(validTask("c"))
	if err := p.AddStage(s3); err == nil {
		t.Fatal("added stage to terminal pipeline")
	}
}

func TestPipelineValidate(t *testing.T) {
	p := NewPipeline("p")
	if err := p.Validate(); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	s := NewStage("s")
	s.AddTask(validTask("t"))
	p.AddStage(s)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TaskCount() != 1 {
		t.Fatalf("task count = %d", p.TaskCount())
	}
}

func TestDescribeTaskTranslation(t *testing.T) {
	task := validTask("t")
	task.Arguments = []string{"-n", "100"}
	task.CPUReqs = CPUReqs{Processes: 2, ThreadsPerProcess: 3}
	task.GPUReqs = GPUReqs{Processes: 1}
	task.PreExec = []string{"module load gromacs"}
	task.IOLoad = 0.5
	task.InputStaging = []StagingDirective{{Source: "in", Target: "x", Action: StagingCopy, Bytes: 100}}
	task.forceState(TaskScheduling)

	d := describeTask(task)
	if d.UID != task.UID || d.Executable != "sleep" || d.Cores != 6 || d.GPUs != 1 {
		t.Fatalf("description: %+v", d)
	}
	if d.PreExec != 1 || len(d.Input) != 1 || d.IOLoad != 0.5 {
		t.Fatalf("description details: %+v", d)
	}
	// Mutating the description must not affect the task.
	d.Arguments[0] = "mutated"
	if task.Arguments[0] != "-n" {
		t.Fatal("describeTask aliases task arguments")
	}
}
