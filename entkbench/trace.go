package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// span is one timed interval of the traced run. ID names the entity the
// span is about; Parent the entity whose span caused it (a task's spans
// hang off its stage, a stage's off its pipeline). Times are microseconds
// from the return of Start.
type span struct {
	Name   string  `json:"name"`
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// taskTimes are the virtual instants of one task's committed transitions.
type taskTimes struct {
	stage                      string
	scheduled, submitted, done time.Time
}

// tracer drains a subscription that sees every committed transition and
// keeps, in memory, what the task-path spans are built from. Its ring holds
// every event of the run, so the samples are complete. Untraced iterations
// attach no tracer.
type tracer struct {
	st   *stack
	sub  *core.EventSub
	done chan struct{}

	stageStart    map[string]time.Time // stage SCHEDULING (eligible)
	stageDone     map[string]time.Time
	stagePipeline map[string]string
	tasks         map[string]*taskTimes
	lags          []time.Duration // commit → receipt, wall
	firstDone     time.Time       // first task DONE (virtual)
	lastPipeDone  time.Time       // last pipeline DONE (virtual)
}

func newTracer(st *stack, sub *core.EventSub) *tracer {
	t := &tracer{
		st:            st,
		sub:           sub,
		done:          make(chan struct{}),
		stageStart:    map[string]time.Time{},
		stageDone:     map[string]time.Time{},
		stagePipeline: map[string]string{},
		tasks:         map[string]*taskTimes{},
	}
	go t.loop()
	return t
}

func (t *tracer) loop() {
	defer close(t.done)
	for ev := range t.sub.C() {
		t.lags = append(t.lags, time.Since(t.st.wall(ev.VTime)))
		switch ev.Kind {
		case core.EventStage:
			switch core.StageState(ev.To) {
			case core.StageScheduling:
				t.stageStart[ev.UID] = ev.VTime
				t.stagePipeline[ev.UID] = ev.Pipeline
			case core.StageDone:
				t.stageDone[ev.UID] = ev.VTime
			}
		case core.EventPipeline:
			if core.PipelineState(ev.To) == core.PipelineDone && ev.VTime.After(t.lastPipeDone) {
				t.lastPipeDone = ev.VTime
			}
		case core.EventTask:
			tt := t.tasks[ev.UID]
			if tt == nil {
				tt = &taskTimes{stage: ev.Stage}
				t.tasks[ev.UID] = tt
			}
			switch core.TaskState(ev.To) {
			case core.TaskScheduled:
				tt.scheduled = ev.VTime
			case core.TaskSubmitted:
				tt.submitted = ev.VTime
			case core.TaskDone:
				tt.done = ev.VTime
				if t.firstDone.IsZero() || ev.VTime.Before(t.firstDone) {
					t.firstDone = ev.VTime
				}
			}
		}
	}
}

// traceResult is one traced iteration's task-path breakdown, in wall time.
type traceResult struct {
	schedule, pickup, turnaround, lag []time.Duration
	firstDone, shutdown               time.Duration
	defaultRingDropped                uint64 // by a default-sized ring on the same run
	spans                             []span
}

// finish waits for the stream to drain (it closes once the run is over)
// and converts the recorded virtual instants to wall-time spans.
func (t *tracer) finish(ctx context.Context, start, end time.Time) (*traceResult, error) {
	select {
	case <-t.done:
	case <-ctx.Done():
		t.sub.Close()
		<-t.done
		return nil, ctx.Err()
	}
	us := func(v time.Time) float64 { return float64(t.st.wall(v).Sub(start)) / 1e3 }
	virt := func(d time.Duration) time.Duration { return time.Duration(float64(d) * timeScale.Seconds()) }
	r := &traceResult{lag: t.lags}
	for uid, tt := range t.tasks {
		if from, ok := t.stageStart[tt.stage]; ok && !tt.scheduled.IsZero() {
			r.schedule = append(r.schedule, virt(tt.scheduled.Sub(from)))
			r.spans = append(r.spans, span{"core.wfp.schedule", uid, tt.stage, us(from), us(tt.scheduled)})
		}
		if !tt.scheduled.IsZero() && !tt.submitted.IsZero() {
			r.pickup = append(r.pickup, virt(tt.submitted.Sub(tt.scheduled)))
			r.spans = append(r.spans, span{"core.emgr.pickup", uid, tt.stage, us(tt.scheduled), us(tt.submitted)})
		}
		if !tt.submitted.IsZero() && !tt.done.IsZero() {
			r.turnaround = append(r.turnaround, virt(tt.done.Sub(tt.submitted)))
			r.spans = append(r.spans, span{"rts.turnaround", uid, tt.stage, us(tt.submitted), us(tt.done)})
		}
	}
	for uid, from := range t.stageStart {
		if to, ok := t.stageDone[uid]; ok {
			r.spans = append(r.spans, span{"core.stage", uid, t.stagePipeline[uid], us(from), us(to)})
		}
	}
	if !t.firstDone.IsZero() {
		r.firstDone = t.st.wall(t.firstDone).Sub(start)
	}
	if !t.lastPipeDone.IsZero() {
		r.shutdown = end.Sub(t.st.wall(t.lastPipeDone))
	}
	return r, nil
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
