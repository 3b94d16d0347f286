package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/hostmodel"
	"repro/internal/hpc"
	"repro/internal/remoterts"
	"repro/internal/rts"
	"repro/internal/saga"
	"repro/internal/tuning"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// The stack is assembled from the same public constructors the entk
// facade's single-pilot branch uses, with two deliberate differences the
// facade cannot express: the RTS runs the zero-cost model (so wall time is
// the Go control plane's own work, not modelled sleeps) and the pilot asks
// for the CI's full 72 h walltime (≈259 s of wall time at 1 ms per virtual
// second), so a slow host cannot turn control-plane delay into pilot expiry.
const (
	timeScale     = time.Millisecond // wall cost of one virtual second (the default)
	resourceName  = "supermic"
	pilotWalltime = 72 * time.Hour
	// defaultBatch is the documented default of the broker batch knob
	// (entk.Tuning.BatchSize == 0).
	defaultBatch = 1024
)

// stack is one run's assembled EnTK: simulated CI, SAGA session, shared
// filesystem model, the core AppManager and its RTS factory, plus the
// in-process remote agents of the deployment iterations.
type stack struct {
	clock   *vclock.Scaled
	cluster *hpc.Cluster
	session *saga.Session
	am      *core.AppManager
	agents  []*agentNode

	// wallAnchor and vAnchor pin the virtual clock to wall time, so event
	// VTimes convert to wall instants (wall = anchor + Δvirtual × scale).
	wallAnchor time.Time
	vAnchor    time.Time

	mu    sync.Mutex
	built []core.RTS // every RTS the factory built; more than one is a restart
}

// agentNode is one in-process remote agent with its own clock and CI, the
// way an entk-agent process on a compute node has its own.
type agentNode struct {
	agent   *remoterts.Agent
	cluster *hpc.Cluster
	session *saga.Session
}

// stackOptions carry the per-run paths and the seed into assembly.
type stackOptions struct {
	seed       int64
	cores      int
	journalDir string   // durable mode when non-empty
	auditPath  string   // RTS store audit log (durable mode)
	agentAddrs []string // remote mode when non-empty: one agent per address
}

// assemble builds the stack. On error everything built so far is closed.
func assemble(o stackOptions) (*stack, error) {
	s := &stack{clock: vclock.NewScaled(timeScale)}
	s.wallAnchor, s.vAnchor = time.Now(), s.clock.Now()
	var err error
	if s.cluster, s.session, err = newCI(s.clock); err != nil {
		return nil, err
	}
	fs, err := fsim.New(fsim.XSEDEShared(), s.clock, o.seed)
	if err != nil {
		s.close()
		return nil, err
	}
	// The default Tuning, resolved the way entk resolves it with autotune
	// off: batch 1024, min(GOMAXPROCS, 8) shards, one scheduler per shard
	// up to GOMAXPROCS, fixed knobs.
	shards := broker.DefaultShards()
	scheds := min(runtime.GOMAXPROCS(0), shards)
	live := tuning.Fixed(defaultBatch, scheds)
	s.am, err = core.NewAppManager(core.Config{
		Clock:            s.clock,
		Host:             hostmodel.Null(),
		JournalDir:       o.journalDir,
		EmgrBatch:        defaultBatch,
		QueueShards:      shards,
		SchedulerWorkers: scheds,
		Live:             live,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.am.SetResource(core.ResourceDesc{Resource: resourceName, Cores: o.cores, Walltime: pilotWalltime})

	var factory core.RTSFactory
	if len(o.agentAddrs) == 0 {
		factory = rts.Factory(rts.Config{
			Clock:       s.clock,
			Session:     s.session,
			Registry:    workload.NewRegistry(),
			FS:          fs,
			Prof:        s.am.Profiler(),
			Model:       rts.FastModel(),
			Seed:        o.seed,
			StorePath:   o.auditPath,
			QueueShards: shards,
			Schedulers:  scheds,
			Live:        live,
		})
	} else {
		for i, addr := range o.agentAddrs {
			n, err := startAgent(addr, fmt.Sprintf("agent-%d", i), o.cores/len(o.agentAddrs), o.seed+int64(i)+1)
			if err != nil {
				s.close()
				return nil, err
			}
			s.agents = append(s.agents, n)
		}
		factory = remoterts.Factory(remoterts.Config{Addrs: o.agentAddrs})
	}
	s.am.SetRTSFactory(func(res core.ResourceDesc) (core.RTS, error) {
		r, err := factory(res)
		if err == nil {
			s.mu.Lock()
			s.built = append(s.built, r)
			s.mu.Unlock()
		}
		return r, err
	})
	return s, nil
}

// newCI builds a simulated supermic cluster behind a SAGA session.
func newCI(clock vclock.Clock) (*hpc.Cluster, *saga.Session, error) {
	spec, err := hpc.LookupSpec(resourceName)
	if err != nil {
		return nil, nil, err
	}
	cluster, err := hpc.NewCluster(spec, clock)
	if err != nil {
		return nil, nil, err
	}
	session := saga.NewSession()
	if err := session.Register(saga.NewClusterAdapter(cluster)); err != nil {
		cluster.Close()
		return nil, nil, err
	}
	return cluster, session, nil
}

// startAgent listens on addr with an agent hosting a zero-cost PilotRTS on
// its own clock and CI.
func startAgent(addr, name string, cores int, seed int64) (*agentNode, error) {
	clock := vclock.NewScaled(timeScale)
	cluster, session, err := newCI(clock)
	if err != nil {
		return nil, err
	}
	registry := workload.NewRegistry()
	a, err := remoterts.NewAgent(remoterts.AgentConfig{
		Addr: addr,
		Name: name,
		Factory: rts.Factory(rts.Config{
			Clock:    clock,
			Session:  session,
			Registry: registry,
			Model:    rts.FastModel(),
			Seed:     seed,
		}),
		Resource: core.ResourceDesc{Resource: resourceName, Cores: cores, Walltime: pilotWalltime},
	})
	if err != nil {
		cluster.Close()
		session.Close()
		return nil, err
	}
	return &agentNode{agent: a, cluster: cluster, session: session}, nil
}

// wall converts a virtual instant of this stack's clock to wall time.
func (s *stack) wall(v time.Time) time.Time {
	return s.wallAnchor.Add(time.Duration(float64(v.Sub(s.vAnchor)) * timeScale.Seconds()))
}

// rtsInstances returns the RTS instances built so far.
func (s *stack) rtsInstances() []core.RTS {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.RTS(nil), s.built...)
}

// served sums the task results the remote agents shipped back.
func (s *stack) served() int {
	n := 0
	for _, a := range s.agents {
		n += a.agent.Served()
	}
	return n
}

// close releases the agents and the simulated infrastructure. The engine
// itself is torn down by the run (Run.Done).
func (s *stack) close() {
	for _, a := range s.agents {
		a.agent.Close()
		a.cluster.Close()
		a.session.Close()
	}
	s.agents = nil
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.session != nil {
		s.session.Close()
	}
}

// waitRun waits for the run to finish, canceling it if ctx expires first.
func waitRun(ctx context.Context, run *core.Run) error {
	select {
	case <-run.Done():
	case <-ctx.Done():
		run.Cancel("benchmark deadline")
		<-run.Done()
		return errors.Join(ctx.Err(), run.Wait())
	}
	return run.Wait()
}

// auditFile names the RTS audit log of one incarnation in a journal dir.
func auditFile(dir string, incarnation int) string {
	return filepath.Join(dir, fmt.Sprintf("rts-audit-%d.log", incarnation))
}
