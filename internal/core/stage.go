package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Stage is "a set of tasks without mutual dependences and that can be
// executed concurrently" (paper §II-B1).
type Stage struct {
	UID  string
	Name string

	// PostExec, when non-nil, runs after the stage reaches DONE and before
	// the pipeline advances. It is EnTK's adaptivity hook: the paper's
	// branching events are "tasks where a decision is made about the
	// runtime flow"; PostExec lets that decision add stages to the owning
	// pipeline (used by the AUA use case to iterate until convergence).
	PostExec func() error `json:"-"`

	mu          sync.RWMutex
	tasks       []*Task
	state       StageState
	pipelineUID string

	// open, failed and canceled count the stage's tasks by state class —
	// not yet terminal, FAILED, CANCELED; DONE tasks are the remainder —
	// so tasksTerminal costs three loads however large the stage. AddTask
	// counts a task in, and the task's advance and forceState move it
	// between classes, touching a counter only when its class changes.
	open, failed, canceled atomic.Int64
}

// NewStage returns an empty stage in the initial state.
func NewStage(name string) *Stage {
	return &Stage{
		UID:   NewUID("stage"),
		Name:  name,
		state: StageInitial,
	}
}

// AddTask appends a task to the stage. Only legal before the stage starts
// scheduling.
func (s *Stage) AddTask(t *Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StageInitial && s.state != "" {
		return fmt.Errorf("core: cannot add task to stage %s in state %s", s.UID, s.state)
	}
	t.mu.Lock()
	t.stage = s
	if c := s.classCounter(t.state); c != nil {
		c.Add(1)
	}
	t.mu.Unlock()
	s.tasks = append(s.tasks, t)
	return nil
}

// AddTasks appends several tasks.
func (s *Stage) AddTasks(ts ...*Task) error {
	for _, t := range ts {
		if err := s.AddTask(t); err != nil {
			return err
		}
	}
	return nil
}

// Tasks returns the stage's tasks.
func (s *Stage) Tasks() []*Task {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Task, len(s.tasks))
	copy(out, s.tasks)
	return out
}

// TaskCount returns the number of tasks in the stage.
func (s *Stage) TaskCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tasks)
}

// State returns the stage's current state.
func (s *Stage) State() StageState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.state == "" {
		return StageInitial
	}
	return s.state
}

func (s *Stage) advance(to StageState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := s.state
	if from == "" {
		from = StageInitial
	}
	if !legalStage(from, to) {
		return &TransitionError{Entity: "stage", UID: s.UID, From: string(from), To: string(to)}
	}
	s.state = to
	return nil
}

func (s *Stage) forceState(st StageState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = st
}

// Parent returns the owning pipeline's UID.
func (s *Stage) Parent() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pipelineUID
}

func (s *Stage) setParent(uid string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pipelineUID = uid
}

// tasksTerminal reports whether every task has reached a terminal state and
// whether any ended FAILED or CANCELED.
//
// The counters are read without a lock while the Synchronizer moves tasks.
// recount counts a task's new class before it releases the old one, and
// open is loaded on both sides of the other two: a task leaving open is
// already counted FAILED or CANCELED when the first load sees it gone, and
// a task re-entering open (resubmission) is still counted FAILED when the
// second load misses it. Either way the answer is one the stage's tasks
// really were in.
func (s *Stage) tasksTerminal() (allTerminal bool, anyFailed, anyCanceled bool) {
	open := s.open.Load()
	anyFailed = s.failed.Load() > 0
	anyCanceled = s.canceled.Load() > 0
	allTerminal = open == 0 && s.open.Load() == 0
	return allTerminal, anyFailed, anyCanceled
}

// classCounter returns the counter of a task state's class, or nil for
// DONE, which is counted as the remainder.
func (s *Stage) classCounter(st TaskState) *atomic.Int64 {
	switch st {
	case TaskDone:
		return nil
	case TaskFailed:
		return &s.failed
	case TaskCanceled:
		return &s.canceled
	}
	return &s.open
}

// recount moves one task from the class of state from to the class of state
// to, doing nothing when the two share a class. The new class is counted
// first (see tasksTerminal).
func (s *Stage) recount(from, to TaskState) {
	fc, tc := s.classCounter(from), s.classCounter(to)
	if fc == tc {
		return
	}
	if tc != nil {
		tc.Add(1)
	}
	if fc != nil {
		fc.Add(-1)
	}
}

// Validate checks the stage description.
func (s *Stage) Validate() error {
	if s.UID == "" {
		return fmt.Errorf("core: stage with empty UID")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tasks) == 0 {
		return fmt.Errorf("core: stage %s (%s) has no tasks", s.UID, s.Name)
	}
	for _, t := range s.tasks {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}
