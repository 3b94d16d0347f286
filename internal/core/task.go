package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var uidCounter uint64

// NewUID returns a process-unique identifier with the given prefix, in the
// style of RADICAL's "task.0001" identifiers.
func NewUID(prefix string) string {
	return formatUID(prefix, atomic.AddUint64(&uidCounter, 1))
}

// formatUID renders prefix.NNNNNN — n zero-padded to at least six digits,
// exactly as fmt's "%s.%06d" would — in a single allocation.
func formatUID(prefix string, n uint64) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	var b strings.Builder
	b.Grow(len(prefix) + 1 + max(len(d), 6))
	b.WriteString(prefix)
	b.WriteByte('.')
	for i := len(d); i < 6; i++ {
		b.WriteByte('0')
	}
	b.Write(d)
	return b.String()
}

// CPUReqs describes a task's CPU needs, mirroring EnTK's cpu_reqs dict.
type CPUReqs struct {
	// Processes is the number of processes (MPI ranks or replicas).
	Processes int
	// ThreadsPerProcess is the threads each process uses.
	ThreadsPerProcess int
}

// Cores returns the total cores the task occupies.
func (c CPUReqs) Cores() int {
	p, t := c.Processes, c.ThreadsPerProcess
	if p <= 0 {
		p = 1
	}
	if t <= 0 {
		t = 1
	}
	return p * t
}

// GPUReqs describes a task's GPU needs.
type GPUReqs struct {
	// Processes is the number of GPU-using processes.
	Processes int
}

// StagingAction is the kind of data movement a staging directive performs.
type StagingAction string

// Staging actions supported by the RTS (paper §II-D: links, copies and
// transfers enacted via SAGA; the weak-scaling experiment uses 3 links and
// 1 copy per task).
const (
	StagingCopy     StagingAction = "copy"
	StagingLink     StagingAction = "link"
	StagingMove     StagingAction = "move"
	StagingTransfer StagingAction = "transfer"
)

// StagingDirective describes one input or output data movement.
type StagingDirective struct {
	Source string
	Target string
	Action StagingAction
	// Bytes is the payload size used by the filesystem model. Links cost
	// only a metadata operation regardless of Bytes.
	Bytes int64
	// Protocol selects the transfer mechanism for StagingTransfer
	// directives — "cp", "scp", "gsiscp", "sftp", "gsisftp" or "globus"
	// (paper §II-D). Empty means the backend's default. Ignored for local
	// copy/link/move actions, which always use the shared filesystem.
	Protocol string
}

// Task is the paper's atomic unit of execution: "a stand-alone process that
// has well defined input, output, termination criteria, and dedicated
// resources".
type Task struct {
	UID  string
	Name string

	// Executable names a workload kernel (e.g. "sleep", "mdrun",
	// "specfem", "canalogs") registered with the execution backend.
	Executable string
	// Arguments are passed to the kernel.
	Arguments []string
	// Environment is the task's environment variables.
	Environment map[string]string
	// PreExec and PostExec are shell-style setup/teardown commands; the
	// simulator accounts a fixed cost per entry.
	PreExec  []string
	PostExec []string

	CPUReqs CPUReqs
	GPUReqs GPUReqs

	// Duration is the modelled virtual runtime of the executable.
	Duration time.Duration
	// IOLoad is the sustained shared-filesystem load (1.0 ≈ one heavy
	// writer) the task imposes while executing; drives contention failures.
	IOLoad float64

	InputStaging  []StagingDirective
	OutputStaging []StagingDirective

	// MaxRetries bounds automatic resubmission of this task after failure.
	// Negative means "use the application default".
	MaxRetries int

	// Tags carry placement hints for heterogeneous execution (the paper's
	// future-work item (i): "dynamic mapping of tasks onto heterogeneous
	// resources"). The multi-pilot RTS router honours "resource" (a CI
	// name) when present.
	Tags map[string]string

	// LocalFunc, when non-nil, is executed in-process by the RTS executor
	// after the modelled duration elapses. It carries real computation
	// (e.g. an AnEn sub-region solve) into the workflow, the way the paper
	// embeds decision logic in tasks (§II-B1).
	LocalFunc func() error `json:"-"`

	mu           sync.RWMutex
	state        TaskState
	stateHistory []TaskState
	attempts     int
	exitCode     int
	execErr      string
	pipelineUID  string
	stageUID     string
	stage        *Stage // counts this task by state class (Stage.AddTask)
}

// NewTask returns a task in the initial state with a fresh UID. MaxRetries
// defaults to -1, meaning "use the application-level retry budget".
func NewTask(name string) *Task {
	return &Task{
		UID:        NewUID("task"),
		Name:       name,
		MaxRetries: -1,
		state:      TaskInitial,
	}
}

// State returns the task's current state.
func (t *Task) State() TaskState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.state == "" {
		return TaskInitial
	}
	return t.state
}

// StateHistory returns the sequence of states the task has traversed.
func (t *Task) StateHistory() []TaskState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TaskState, len(t.stateHistory))
	copy(out, t.stateHistory)
	return out
}

// advance applies a state transition, enforcing the legal table.
func (t *Task) advance(to TaskState) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	from := t.state
	if from == "" {
		from = TaskInitial
	}
	if !legalTask(from, to) {
		return &TransitionError{Entity: "task", UID: t.UID, From: string(from), To: string(to)}
	}
	t.setStateLocked(to)
	if t.stateHistory == nil {
		// One allocation holds a first attempt's whole walk, DESCRIBED to
		// DONE, instead of regrowing the history step by step.
		t.stateHistory = make([]TaskState, 0, 6)
	}
	t.stateHistory = append(t.stateHistory, to)
	if to == TaskScheduling {
		t.attempts++
	}
	return nil
}

// forceState sets the state without legality checks; used only by journal
// recovery, which replays states that were already validated when first
// applied.
func (t *Task) forceState(s TaskState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setStateLocked(s)
	t.stateHistory = append(t.stateHistory, s)
}

// setStateLocked records a new state and keeps the owning stage's class
// counters current. t.mu must be held.
func (t *Task) setStateLocked(s TaskState) {
	from := t.state
	t.state = s
	if t.stage != nil {
		t.stage.recount(from, s)
	}
}

// Attempts returns how many times the task entered SCHEDULING.
func (t *Task) Attempts() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.attempts
}

// setResult records the executable's outcome.
func (t *Task) setResult(exitCode int, execErr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.exitCode = exitCode
	t.execErr = execErr
}

// ExitCode returns the last recorded exit code.
func (t *Task) ExitCode() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.exitCode
}

// ExecError returns the last recorded execution error string.
func (t *Task) ExecError() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.execErr
}

// Parent returns the UIDs of the pipeline and stage owning this task.
func (t *Task) Parent() (pipelineUID, stageUID string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pipelineUID, t.stageUID
}

func (t *Task) setParent(pipelineUID, stageUID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pipelineUID = pipelineUID
	t.stageUID = stageUID
}

// Validate checks the task description for user errors before execution.
func (t *Task) Validate() error {
	if t.UID == "" {
		return errors.New("core: task with empty UID")
	}
	if t.Executable == "" && t.LocalFunc == nil {
		return fmt.Errorf("core: task %s (%s) has no executable", t.UID, t.Name)
	}
	if t.Duration < 0 {
		return fmt.Errorf("core: task %s has negative duration", t.UID)
	}
	if t.CPUReqs.Processes < 0 || t.CPUReqs.ThreadsPerProcess < 0 {
		return fmt.Errorf("core: task %s has negative CPU requirements", t.UID)
	}
	if t.IOLoad < 0 {
		return fmt.Errorf("core: task %s has negative IO load", t.UID)
	}
	for _, d := range append(append([]StagingDirective{}, t.InputStaging...), t.OutputStaging...) {
		switch d.Action {
		case StagingCopy, StagingLink, StagingMove, StagingTransfer:
		default:
			return fmt.Errorf("core: task %s has invalid staging action %q", t.UID, d.Action)
		}
		if d.Bytes < 0 {
			return fmt.Errorf("core: task %s has negative staging size", t.UID)
		}
	}
	return nil
}
