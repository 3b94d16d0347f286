package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// RenderOverheads prints a Fig 7-style table: one row per configuration,
// one column per measured category (seconds).
func RenderOverheads(w io.Writer, title string, rows []OverheadRow) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %12s %12s %12s\n",
		"config", "entk_setup", "entk_mgmt", "entk_tdown",
		"rts_ovh", "rts_tdown", "staging", "task_exec")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12.2f %12.2f %12.2f %12.2f %12.2f %12.2f %12.2f\n",
			r.Label,
			r.Report.EnTKSetup, r.Report.EnTKManagement, r.Report.EnTKTeardown,
			r.Report.RTSOverhead, r.Report.RTSTeardown,
			r.Report.DataStaging, r.Report.TaskExecution)
	}
}

// RenderScaling prints a Fig 8/9-style table.
func RenderScaling(w io.Writer, title string, rows []ScalingRow) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%8s %8s %12s %12s %12s %12s\n",
		"tasks", "cores", "task_exec", "staging", "entk_mgmt", "rts_ovh")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %12.2f %12.2f %12.2f %12.2f\n",
			r.Tasks, r.Cores,
			r.Report.TaskExecution, r.Report.DataStaging,
			r.Report.EnTKManagement, r.Report.RTSOverhead)
	}
	// Scaling diagnostics.
	if len(rows) >= 2 {
		var xs, ys []float64
		for _, r := range rows {
			xs = append(xs, float64(r.Cores))
			ys = append(ys, r.Report.TaskExecution)
		}
		speedups := stats.Speedup(ys)
		fmt.Fprintf(w, "speedup vs first row:")
		for _, s := range speedups {
			fmt.Fprintf(w, " %.2fx", s)
		}
		fmt.Fprintln(w)
	}
}

// RenderFig6 prints the prototype benchmark table. The batch column shows
// the broker batch size (1 = per-message path); decode failures are
// reported whenever a run saw any.
func RenderFig6(w io.Writer, rows []Fig6Row) {
	title := "Fig 6: EnTK prototype, producers/consumers over the broker"
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%6s %6s %6s %6s %10s %12s %12s %12s %10s %10s\n",
		"prod", "cons", "queues", "batch", "tasks", "prod_time", "cons_time", "aggregate", "base_MB", "peak_MB")
	failures := 0
	for _, r := range rows {
		batch := r.Batch
		if batch == 0 {
			batch = 1
		}
		fmt.Fprintf(w, "%6d %6d %6d %6d %10d %12v %12v %12v %10.1f %10.1f\n",
			r.Producers, r.Consumers, r.Queues, batch, r.Tasks,
			r.ProducerTime.Round(1e6), r.ConsumerTime.Round(1e6),
			r.AggregateTime.Round(1e6), r.BaseMemMB, r.PeakMemMB)
		failures += r.DecodeFailures
	}
	if failures > 0 {
		fmt.Fprintf(w, "WARNING: %d task objects failed to decode on the consumer side\n", failures)
	}
}

// RenderBatchSweep prints the BatchSize x scale grid of Fig8BatchSweep.
func RenderBatchSweep(w io.Writer, rows []BatchScalingRow) {
	title := "Fig 8 batch sweep: weak-scaling overheads vs broker BatchSize"
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%8s %8s %8s %12s %12s %12s %12s\n",
		"batch", "tasks", "cores", "task_exec", "staging", "entk_mgmt", "rts_ovh")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %8d %12.2f %12.2f %12.2f %12.2f\n",
			r.Batch, r.Tasks, r.Cores,
			r.Report.TaskExecution, r.Report.DataStaging,
			r.Report.EnTKManagement, r.Report.RTSOverhead)
	}
}

// RenderSchedulerSweep prints the scheduler-concurrency grid of
// Fig8SchedulerSweep.
func RenderSchedulerSweep(w io.Writer, rows []SchedulerScalingRow) {
	title := "Fig 8 scheduler sweep: weak-scaling overheads vs agent schedulers"
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%8s %8s %8s %12s %12s %12s %12s\n",
		"scheds", "tasks", "cores", "task_exec", "staging", "entk_mgmt", "rts_ovh")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %8d %12.2f %12.2f %12.2f %12.2f\n",
			r.Schedulers, r.Tasks, r.Cores,
			r.Report.TaskExecution, r.Report.DataStaging,
			r.Report.EnTKManagement, r.Report.RTSOverhead)
	}
}

// RenderFig10 prints the seismic concurrency sweep.
func RenderFig10(w io.Writer, rows []Fig10Row) {
	title := "Fig 10: Specfem forward simulations on Titan (384 nodes/task)"
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%8s %12s %10s %14s %10s %10s\n",
		"tasks", "concurrency", "nodes", "exec_time_s", "attempts", "failures")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12d %10d %14.1f %10d %10d\n",
			r.Tasks, r.Concurrency, r.Nodes, r.ExecTimeS, r.Attempts, r.Failures)
	}
}

// RenderFig10Live prints the live-autotuning ablation: the bursty workload
// across the static knob grid and under the controller, with each run's
// tasks/s figure of merit and the controller's final operating point.
func RenderFig10Live(w io.Writer, rows []Fig10LiveRow) {
	title := "Fig 10-live: bursty workload — autotune controller vs static knob grid (xsede-vm host)"
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-24s %8s %12s %10s %8s %12s %12s\n",
		"setting", "tasks", "virtual_s", "tasks/s", "knobs", "final_batch", "final_scheds")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8d %12.1f %10.2f %8d %12d %12d\n",
			r.Setting, r.Tasks, r.VirtualS, r.TasksPerSec,
			r.KnobChanges, r.FinalBatch, r.FinalSchedulers)
	}
}

// RenderFig11 prints the AnEn comparison.
func RenderFig11(w io.Writer, res *Fig11Result) {
	title := "Fig 11: AUA vs random analog selection"
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "repetitions: %d, location budget: %d of %d pixels (%.2f%%)\n",
		res.Repetitions, res.Budget, res.GridPixels,
		100*float64(res.Budget)/float64(res.GridPixels))
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %10s %10s\n",
		"method", "min", "q1", "median", "q3", "max", "mean")
	fmt.Fprintf(w, "%-8s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
		"AUA", res.AUABox.Min, res.AUABox.Q1, res.AUABox.Median,
		res.AUABox.Q3, res.AUABox.Max, stats.Mean(res.AUAErrors))
	fmt.Fprintf(w, "%-8s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
		"random", res.RandomBox.Min, res.RandomBox.Q1, res.RandomBox.Median,
		res.RandomBox.Q3, res.RandomBox.Max, stats.Mean(res.RandomErrors))
	fmt.Fprintf(w, "convergence (mean RMSE per iteration):\n")
	fmt.Fprintf(w, "  AUA:    ")
	for _, e := range res.AUAConvergence {
		fmt.Fprintf(w, " %.4f", e)
	}
	fmt.Fprintf(w, "\n  random: ")
	for _, e := range res.RandomConvergence {
		fmt.Fprintf(w, " %.4f", e)
	}
	fmt.Fprintln(w)
}
