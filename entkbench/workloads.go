package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// shape is one workload: the PST shape run through the full single-pilot
// stack, plus the layers it switches on. Every task is a zero-duration
// "sleep" on one core, so the run's wall time is the control plane's work.
type shape struct {
	name      string
	pipelines int
	stages    int // sequential stages per pipeline
	tasks     int // concurrent tasks per stage
	cores     int // pilot size
	// durable runs with JournalDir durability and a subscriber that must
	// receive every event.
	durable bool
	agents  int // in-process remote agents over unix sockets; 0 = in-process RTS
}

func (s shape) totalTasks() int  { return s.pipelines * s.stages * s.tasks }
func (s shape) totalStages() int { return s.pipelines * s.stages }

// driveBatch is the batch shape the isolated layer drives replay: a whole
// stage up to 64 tasks, so 64 on the bag-shaped workloads and 4 on chain.
func (s shape) driveBatch() int { return min(s.tasks, 64) }

// workloads are the benchmark's workloads, in BENCHMARK.json order; the
// README gives the reason for each.
var workloads = []shape{
	// Throughput-bound: the paper's O(10^4)-task claim (Fig 9, one stage).
	{name: "bag", pipelines: 1, stages: 1, tasks: 65536, cores: 2048},
	// Latency-bound: every stage is one round trip of at most 4 tasks, so
	// batching, sharding and the scheduler pool buy nothing (Fig 7d shape).
	{name: "chain", pipelines: 4, stages: 1024, tasks: 4, cores: 2048},
}

// deployment is the bag shape on the paper's deployment (manager here,
// agents behind sockets, so transport and remoterts sit on the task path)
// with the write-bound durable commit and an observer that must see every
// event (§II-B4, requirement iv). It is not a workload of its own: two
// workloads leave time for runs long enough to be steady (README.md), so
// every traced run runs it deployIters times after its layer drives and
// checks it like any iteration.
var deployment = shape{name: "durable-remote", pipelines: 1, stages: 1, tasks: 32768, cores: 2048, durable: true, agents: 2}

const deployIters = 3

func lookupWorkload(name string) (shape, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return shape{}, false
}

// Events a committed PST produces when every task succeeds on its first
// attempt: a task walks SCHEDULING, SCHEDULED, SUBMITTING, SUBMITTED,
// EXECUTED, DONE; a stage SCHEDULING, SCHEDULED, DONE; a pipeline
// SCHEDULING, DONE.
const (
	eventsPerTask     = 6
	eventsPerStage    = 3
	eventsPerPipeline = 2
)

func (s shape) expectedEvents() int {
	return s.totalTasks()*eventsPerTask + s.totalStages()*eventsPerStage + s.pipelines*eventsPerPipeline
}

// stageClock records the wall instant each stage completes, stamped from
// the stage's PostExec hook.
type stageClock struct {
	stages int
	done   []atomic.Int64 // unix nanos, index pipeline*stages+stage
}

func newStageClock(s shape) *stageClock {
	return &stageClock{stages: s.stages, done: make([]atomic.Int64, s.totalStages())}
}

// turnarounds returns, per stage, the wall time from the previous stage's
// completion (or from start, for a pipeline's first stage) to its own.
// Stages that never completed are skipped.
func (c *stageClock) turnarounds(start time.Time) []time.Duration {
	out := make([]time.Duration, 0, len(c.done))
	for i := range c.done {
		prev := start.UnixNano()
		if i%c.stages != 0 {
			prev = c.done[i-1].Load()
		}
		cur := c.done[i].Load()
		if cur == 0 || prev == 0 {
			continue
		}
		out = append(out, time.Duration(cur-prev))
	}
	return out
}

// describe builds the workload's PST description. UIDs are structural and
// carry the seed, so the same seed always describes the same application
// and a second AppManager can resume it from its journal.
func describe(s shape, seed int64, clock *stageClock) ([]*core.Pipeline, error) {
	pipes := make([]*core.Pipeline, 0, s.pipelines)
	for p := 0; p < s.pipelines; p++ {
		pipe := core.NewPipeline(fmt.Sprintf("%s.%d", s.name, p))
		pipe.UID = fmt.Sprintf("pipeline.%d.%03d", seed, p)
		for g := 0; g < s.stages; g++ {
			st := core.NewStage(fmt.Sprintf("stage.%d", g))
			st.UID = fmt.Sprintf("stage.%d.%03d.%04d", seed, p, g)
			if clock != nil {
				slot := &clock.done[p*s.stages+g]
				st.PostExec = func() error {
					slot.Store(time.Now().UnixNano())
					return nil
				}
			}
			tasks := make([]*core.Task, s.tasks)
			for t := range tasks {
				tk := core.NewTask("sleep")
				tk.UID = fmt.Sprintf("task.%d.%03d.%04d.%05d", seed, p, g, t)
				tk.Executable = "sleep"
				tasks[t] = tk
			}
			if err := st.AddTasks(tasks...); err != nil {
				return nil, err
			}
			if err := pipe.AddStage(st); err != nil {
				return nil, err
			}
		}
		pipes = append(pipes, pipe)
	}
	return pipes, nil
}
