package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// tiny shrinks a workload to a test-sized shape with the same layers on.
func tiny(s shape) shape {
	s.stages = min(s.stages, 8)
	s.tasks = min(s.tasks, 128)
	return s
}

// result parses the JSON object on the last line of the benchmark's output.
func result(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, out)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: want exactly correct, attempted, failed, metrics; got %s", lines[len(lines)-1])
	}
	return res
}

func run(t *testing.T, cfg config) (*summary, map[string]json.RawMessage) {
	t.Helper()
	cfg.out, cfg.log, cfg.seconds, cfg.minIters = ".bench_build", io.Discard, 0.01, 1
	cfg.deploy = tiny(deployment)
	sum, err := measure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sum.emit(&buf); err != nil {
		t.Fatal(err)
	}
	return sum, result(t, buf.String())
}

// TestWorkloadsPassChecks runs every workload at a tiny size, untraced and
// traced (with tiny deployment iterations), and requires every output check
// to pass, every end-to-end metric to be positive, and every goroutine the
// runs started to have ended.
func TestWorkloadsPassChecks(t *testing.T) {
	t.Chdir(t.TempDir()) // relative unix socket paths stay short
	base := runtime.NumGoroutine()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			sum, res := run(t, config{sh: tiny(w), seed: 7, traced: traced})
			if sum.Failed != 0 || string(res["correct"]) != "true" {
				t.Errorf("%s traced=%v: %d failed: %v", w.name, traced, sum.Failed, sum.Failures)
			}
			if !traced {
				for _, m := range sum.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, m.Value)
					}
				}
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before the runs", runtime.NumGoroutine(), base)
		}
	}
}

// TestUnknownExecutableFails makes one task name an executable no kernel
// provides (the RTS reports exit 127): the run must come out incorrect with
// a nonzero task_fail_ratio, never as a clean number.
func TestUnknownExecutableFails(t *testing.T) {
	t.Chdir(t.TempDir())
	bad := func(pipes []*core.Pipeline) {
		pipes[0].Stages()[0].Tasks()[0].Executable = "no-such-kernel"
	}
	sum, res := run(t, config{sh: tiny(workloads[0]), seed: 3, traced: true, mutate: bad})
	if string(res["correct"]) != "false" || sum.Failed == 0 {
		t.Fatalf("correct=%s failed=%d, want an incorrect run", res["correct"], sum.Failed)
	}
	for _, m := range sum.Metrics {
		if m.Name == "task_fail_ratio" {
			if m.Value <= 0 {
				t.Fatalf("task_fail_ratio = %v, want > 0", m.Value)
			}
			return
		}
	}
	t.Fatal("traced run reports no task_fail_ratio")
}

// TestDescribeIsSeeded checks that the seed alone fixes the description.
func TestDescribeIsSeeded(t *testing.T) {
	uids := func(seed int64) string {
		pipes, err := describe(tiny(workloads[1]), seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, p := range pipes {
			for _, s := range p.Stages() {
				for _, tk := range s.Tasks() {
					b.WriteString(tk.UID)
				}
			}
		}
		return b.String()
	}
	if uids(5) != uids(5) {
		t.Fatal("same seed, different descriptions")
	}
	if uids(5) == uids(6) {
		t.Fatal("different seeds, same descriptions")
	}
}

// TestCLIRejectsBadArguments checks that a bad invocation exits nonzero
// without printing a result.
func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "bag", "-trace", "2"},
		{"-workload", "bag", "-seconds", "0"},
	} {
		var out bytes.Buffer
		if code := cli(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
