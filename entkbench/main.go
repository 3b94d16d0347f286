// Command entkbench is the end-to-end benchmark of this EnTK reproduction.
// It runs one PST workload through the full single-pilot stack (broker,
// WFProcessor, ExecManager, synchronizer, pilot RTS) again and again for a
// fixed time, checks every run's outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer breakdown. See README.md in this directory.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	entkbench -workload bag -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// buildDir holds everything the benchmark writes, relative to the
// directory it runs in.
const buildDir = ".bench_build"

func cli(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("entkbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+workloadNames())
	seed := fl.Int64("seed", 1, "workload seed (UIDs, RTS and filesystem seeds, journal and socket paths)")
	seconds := fl.Float64("seconds", 10, "measured seconds (after one warm-up iteration)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer breakdown")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sh, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "entkbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	cfg := config{sh: sh, deploy: deployment, seed: *seed, seconds: *seconds, traced: *trace == 1, out: buildDir, log: stderr}
	sum, err := measure(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "entkbench:", err)
		return 1
	}
	if err := sum.emit(stdout); err != nil {
		fmt.Fprintln(stderr, "entkbench:", err)
		return 1
	}
	if err := sum.save(filepath.Join(cfg.out, "results")); err != nil {
		fmt.Fprintln(stderr, "entkbench: saving result:", err)
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// config is one benchmark run.
type config struct {
	sh      shape
	deploy  shape // run deployIters times after a traced run's layer drives
	seed    int64
	seconds float64
	traced  bool
	out     string    // build directory: working files, traces and results go under it
	log     io.Writer // progress lines
	// minIters is the least number of measured iterations of each kind
	// (untraced; traced in a traced run), whatever -seconds says.
	minIters int
	mutate   func([]*core.Pipeline)
}

// iterationTimeout bounds one iteration, so a hung run still ends the
// benchmark well inside its time limit.
const iterationTimeout = 60 * time.Second

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is one benchmark run's result.
type summary struct {
	Host       host   `json:"host"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	Iterations int    `json:"iterations"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	// HostStealPct is the share of host CPU time stolen by the hypervisor
	// during the measured iterations.
	HostStealPct float64  `json:"host_steal_pct"`
	Failures     []string `json:"failures,omitempty"`
	Metrics      []metric `json:"metrics"`
	// Samples are the end-to-end metrics' per-iteration values.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// measure runs one warm-up iteration, then measured iterations until
// cfg.seconds have passed, and reduces them to the run's metrics. A traced
// run alternates untraced and traced iterations, so the tracing overhead
// is measured within the run, and ends with the deployment iterations.
func measure(ctx context.Context, cfg config) (*summary, error) {
	if cfg.minIters == 0 {
		cfg.minIters = 3
		if cfg.traced {
			cfg.minIters = 2
		}
	}
	work := filepath.Join(cfg.out, "run", fmt.Sprintf("%s-%d-%d", cfg.sh.name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(work)
	sum := &summary{Host: fingerprint("."), Workload: cfg.sh.name, Seed: cfg.seed, Traced: cfg.traced}

	iterate := func(sh shape, i int, traced bool) (*iterResult, error) {
		r, err := runIteration(ctx, iterParams{
			sh: sh, seed: cfg.seed, traced: traced, mutate: cfg.mutate,
			dir: filepath.Join(work, fmt.Sprintf("%s-%03d", sh.name, i)),
		})
		if err != nil {
			return nil, fmt.Errorf("%s iteration %d: %w", sh.name, i, err)
		}
		sum.Attempted += r.tasks
		sum.Failed += r.failed()
		for _, f := range r.failures {
			sum.Failures = append(sum.Failures, fmt.Sprintf("%s iteration %d: %s", sh.name, i, f))
		}
		fmt.Fprintf(cfg.log, "%s iteration %d traced=%v setup=%.3fs ttx=%.3fs done=%d/%d failed=%d\n",
			sh.name, i, traced, r.setup.Seconds(), r.ttx.Seconds(), r.done, r.tasks, r.failed())
		return r, nil
	}

	if _, err := iterate(cfg.sh, 0, false); err != nil { // warm-up: checked, not measured
		return nil, err
	}
	var plain, traced []*iterResult
	begin, cpu0 := time.Now(), readCPUStat()
	for i := 1; ; i++ {
		tr := cfg.traced && i%2 == 0
		r, err := iterate(cfg.sh, i, tr)
		if err != nil {
			return nil, err
		}
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		enough := len(plain) >= cfg.minIters && (!cfg.traced || len(traced) >= cfg.minIters)
		if enough && time.Since(begin).Seconds() >= cfg.seconds {
			break
		}
	}
	sum.Iterations = len(plain) + len(traced)
	sum.HostStealPct = stealPct(cpu0, readCPUStat())

	if !cfg.traced {
		sum.Metrics, sum.Samples = endToEnd(plain)
		return sum, nil
	}
	// Return the workload's freed pages first, so the deployment's
	// resident peak is its own and not what the traced iterations left.
	debug.FreeOSMemory()
	var deploy []*iterResult
	for i := 1; i <= deployIters; i++ {
		r, err := iterate(cfg.deploy, i, false)
		if err != nil {
			return nil, err
		}
		deploy = append(deploy, r)
	}
	layers, err := perLayer(ctx, cfg, plain, traced, deploy, work)
	if err != nil {
		return nil, err
	}
	sum.Metrics = append(layers, metric{"task_fail_ratio", ratio(float64(sum.Failed), float64(sum.Attempted)), "ratio"})
	return sum, nil
}

// medianOf is the median over iterations of f.
func medianOf(rs []*iterResult, f func(*iterResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEndMetrics are the end-to-end metrics as per-iteration values.
var endToEndMetrics = []struct {
	name, unit string
	get        func(*iterResult) float64
}{
	{"setup_s", "s", func(r *iterResult) float64 { return r.setup.Seconds() }},
	{"ttx_s", "s", func(r *iterResult) float64 { return r.ttx.Seconds() }},
	{"tasks_per_s", "1/s", func(r *iterResult) float64 { return float64(r.done) / r.ttx.Seconds() }},
	{"cpu_us_per_task", "us", func(r *iterResult) float64 { return float64(r.cpu.Microseconds()) / float64(r.tasks) }},
	{"peak_rss_mb", "MB", func(r *iterResult) float64 { return float64(r.peakRSS) / 1e6 }},
	{"stage_turnaround_p50_ms", "ms", func(r *iterResult) float64 { return quantile(millis(r.turnaround), 0.5) }},
	{"stage_turnaround_p90_ms", "ms", func(r *iterResult) float64 { return quantile(millis(r.turnaround), 0.9) }},
}

// endToEnd reduces untraced iterations to the end-to-end metrics, each the
// median over iterations of the per-iteration value, and returns the
// per-iteration values too.
func endToEnd(rs []*iterResult) ([]metric, map[string][]float64) {
	var ms []metric
	samples := map[string][]float64{}
	for _, m := range endToEndMetrics {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = m.get(r)
		}
		samples[m.name] = xs
		ms = append(ms, metric{m.name, median(xs), m.unit})
	}
	return ms, samples
}

// perLayer reduces a traced run to the per-layer metrics: setup spans and
// counters over every measured iteration, the task path over the traced
// ones, the isolated layer drives, the deployment iterations, and the
// tracing overhead.
func perLayer(ctx context.Context, cfg config, plain, traced, deploy []*iterResult, work string) ([]metric, error) {
	all := append(append([]*iterResult(nil), plain...), traced...)
	var ms []metric
	for _, s := range []string{"entk.assemble", "core.describe", "core.add_pipelines", "core.start"} {
		ms = append(ms, metric{s + "_ms", medianOf(all, func(r *iterResult) float64 { return float64(r.spans[s]) / 1e6 }), "ms"})
	}

	dist := func(name string, get func(*traceResult) []time.Duration) {
		ms = append(ms,
			metric{name + "_p50_ms", medianOf(traced, func(r *iterResult) float64 { return quantile(millis(get(r.trace)), 0.5) }), "ms"},
			metric{name + "_p99_ms", medianOf(traced, func(r *iterResult) float64 { return quantile(millis(get(r.trace)), 0.99) }), "ms"},
			metric{name + "_n", medianOf(traced, func(r *iterResult) float64 { return float64(len(get(r.trace))) }), "count"},
		)
	}
	dist("core.wfp.schedule", func(t *traceResult) []time.Duration { return t.schedule })
	dist("core.emgr.pickup", func(t *traceResult) []time.Duration { return t.pickup })
	dist("rts.turnaround", func(t *traceResult) []time.Duration { return t.turnaround })
	dist("core.events.lag", func(t *traceResult) []time.Duration { return t.lag })
	ms = append(ms,
		metric{"core.first_done_ms", medianOf(traced, func(r *iterResult) float64 { return float64(r.trace.firstDone) / 1e6 }), "ms"},
		metric{"core.shutdown_ms", medianOf(traced, func(r *iterResult) float64 { return float64(r.trace.shutdown) / 1e6 }), "ms"},
		metric{"core.events.default_ring_dropped", medianOf(traced, func(r *iterResult) float64 { return float64(r.trace.defaultRingDropped) }), "count"},
	)

	for _, k := range sortedKeys(counterUnits) {
		ms = append(ms, metric{k, medianOf(all, func(r *iterResult) float64 { return r.counters[k] }), counterUnits[k]})
	}
	for _, k := range sortedKeys(durableCounterUnits) {
		ms = append(ms, metric{k, medianOf(deploy, func(r *iterResult) float64 { return r.counters[k] }), durableCounterUnits[k]})
	}
	ms = append(ms,
		metric{cfg.deploy.name + ".tasks_per_s", medianOf(deploy, func(r *iterResult) float64 { return float64(r.done) / r.ttx.Seconds() }), "1/s"},
		metric{cfg.deploy.name + ".peak_rss_mb", medianOf(deploy, func(r *iterResult) float64 { return float64(r.peakRSS) / 1e6 }), "MB"},
	)

	drives, err := layerDrives(ctx, cfg.sh.driveBatch(), work)
	if err != nil {
		return nil, fmt.Errorf("layer drives: %w", err)
	}
	ms = append(ms, drives...)

	tps := func(r *iterResult) float64 { return float64(r.done) / r.ttx.Seconds() }
	untracedTPS, tracedTPS := medianOf(plain, tps), medianOf(traced, tps)
	ms = append(ms,
		metric{"trace.tasks_per_s_untraced", untracedTPS, "1/s"},
		metric{"trace.tasks_per_s_traced", tracedTPS, "1/s"},
		metric{"trace.overhead_pct", 100 * (untracedTPS - tracedTPS) / untracedTPS, "%"},
	)

	last := traced[len(traced)-1]
	path := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.sh.name, cfg.seed))
	if err := writeSpans(path, append(setupSpans(last), last.trace.spans...)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return ms, nil
}

// setupSpans lays an iteration's setup phases out before Start's return.
func setupSpans(r *iterResult) []span {
	var out []span
	at := -float64(r.setup) / 1e3
	for _, s := range []string{"core.describe", "entk.assemble", "core.add_pipelines", "core.start"} {
		d := float64(r.spans[s]) / 1e3
		out = append(out, span{Name: s, ID: "setup", Start: at, End: at + d})
		at += d
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// emit prints the host fingerprint, one line per metric and per failed
// check, then the result object as the last line.
func (s *summary) emit(w io.Writer) error {
	h := s.Host
	fmt.Fprintf(w, "host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Source)
	fmt.Fprintf(w, "run workload=%s seed=%d traced=%v iterations=%d attempted=%d failed=%d task_fail_ratio=%g host_steal_pct=%.1f\n",
		s.Workload, s.Seed, s.Traced, s.Iterations, s.Attempted, s.Failed, ratio(float64(s.Failed), float64(s.Attempted)), s.HostStealPct)
	for _, f := range s.Failures {
		fmt.Fprintf(w, "check FAILED: %s\n", f)
	}
	metrics := map[string]any{}
	for _, m := range s.Metrics {
		fmt.Fprintf(w, "metric %s %.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   s.Failed == 0,
		"attempted": s.Attempted,
		"failed":    s.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// save writes the full result, fingerprint included, under dir.
func (s *summary) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", s.Workload, s.Seed, btoi(s.Traced), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
