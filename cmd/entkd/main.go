// Command entkd runs the EnTK service daemon: a long-lived process hosting
// many concurrent PST applications over one shared broker and one shared
// pilot pool (docs/daemon.md). Clients submit appjson documents over the
// unix socket with entk.Client or `entk-run -daemon`; each submission
// becomes an isolated run drawing cores from the shared pilot under
// per-tenant weighted-fair dispatch and quota enforcement.
//
// Run with:
//
//	entkd -socket /tmp/entkd.sock -resource titan -cores 64 [-tenants alice:3:32,bob:1:0]
//
// -tenants configures fairness as name:weight[:maxcores] triples; unknown
// tenants default to weight 1 with no quota. The daemon serves until
// SIGINT/SIGTERM, then cancels hosted runs, reconciles the lease ledger a
// final time and reports how many leases leaked (0 on a clean lifecycle).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
)

func main() {
	var (
		socket     = flag.String("socket", "", "unix socket path to serve (required)")
		resource   = flag.String("resource", "titan", "catalogued CI hosting the shared pilot")
		cores      = flag.Int("cores", 64, "shared pilot cores")
		gpus       = flag.Int("gpus", 0, "shared pilot GPUs (0 = CI default)")
		walltime   = flag.Duration("walltime", 24*time.Hour, "shared pilot walltime (virtual)")
		scale      = flag.Duration("scale", time.Millisecond, "wall time per virtual second")
		tenants    = flag.String("tenants", "", "tenant fairness spec: name:weight[:maxcores],...")
		overcommit = flag.Float64("overcommit", 1.0, "lease admission factor over physical cores (>= 1)")
		queueLen   = flag.Int("queue", 16, "admission queue length (-1 disables queueing)")
		retention  = flag.Duration("retention", time.Hour, "how long terminal runs stay listed")
		jroot      = flag.String("journal-root", "", "root directory for per-run journals (enables journaled submissions)")
		scheds     = flag.Int("schedulers", 0, "agent scheduler loops per hosted run (0 = auto)")
		seed       = flag.Int64("seed", 0, "seed for stochastic models")
	)
	flag.Parse()
	if *socket == "" {
		fmt.Fprintln(os.Stderr, "entkd: -socket is required (see -h)")
		os.Exit(2)
	}
	tcfg, err := parseTenants(*tenants)
	if err != nil {
		fatal(err)
	}
	d, err := daemon.New(daemon.Config{
		SocketPath:        *socket,
		Resource:          *resource,
		Cores:             *cores,
		GPUs:              *gpus,
		Walltime:          *walltime,
		TimeScale:         *scale,
		Tenants:           tcfg,
		OvercommitFactor:  *overcommit,
		AdmissionQueueLen: *queueLen,
		RunRetention:      *retention,
		JournalRoot:       *jroot,
		SchedulerWorkers:  *scheds,
		Seed:              *seed,
	})
	if err != nil {
		fatal(err)
	}
	srv, err := d.Serve()
	if err != nil {
		d.Stop()
		fatal(err)
	}
	fmt.Printf("entkd: serving %s (%d cores) on %s\n", *resource, *cores, *socket)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigCh
	fmt.Printf("entkd: %s — draining %d runs\n", sig, len(d.List()))
	srv.Close()
	d.Stop()
	fmt.Printf("leaked leases: %d\n", d.LeakedLeases())
	if d.LeakedLeases() != 0 {
		os.Exit(1)
	}
}

// parseTenants decodes "name:weight[:maxcores]" triples.
func parseTenants(spec string) (map[string]daemon.TenantConfig, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]daemon.TenantConfig)
	for _, item := range strings.Split(spec, ",") {
		parts := strings.Split(item, ":")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("entkd: bad tenant spec %q (want name:weight[:maxcores])", item)
		}
		w, err := strconv.Atoi(parts[1])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("entkd: bad tenant weight in %q", item)
		}
		tc := daemon.TenantConfig{Weight: w}
		if len(parts) == 3 {
			mc, err := strconv.Atoi(parts[2])
			if err != nil || mc < 0 {
				return nil, fmt.Errorf("entkd: bad tenant core cap in %q", item)
			}
			tc.MaxCores = mc
		}
		out[parts[0]] = tc
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "entkd: %v\n", err)
	os.Exit(1)
}
