package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/msgcodec"
	"repro/internal/remoterts"
	"repro/internal/rts"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// The isolated layer drives replay the workload's batch shape (64 tasks
// per batch on the bag-shaped workloads, 4 on chain) through one layer's
// public API at a time, outside the full stack. Each reports the median of
// many timed repetitions, so one layer's cost can be read without the
// others' noise.

const (
	driveReps      = 400  // timed repetitions per broker/remote drive
	codecBlocks    = 200  // timed blocks per codec drive
	codecBlockSize = 64   // calls per codec block
	rtsDriveTasks  = 8192 // tasks pushed through the lone PilotRTS
	journalRecords = 8192 // records appended by the journal drive
)

// layerDrives runs every isolated drive and returns its metrics.
func layerDrives(ctx context.Context, batch int, dir string) ([]metric, error) {
	var ms []metric
	for _, drive := range []func(context.Context, int, string) ([]metric, error){
		driveBroker, driveCodec, driveRTS, driveJournal, driveRemote,
	} {
		m, err := drive(ctx, batch, dir)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m...)
	}
	return ms, nil
}

func uids(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("task.0.000.0000.%05d", i)
	}
	return out
}

func microsMedian(ds []time.Duration) float64 { return median(millis(ds)) * 1e3 }

// driveBroker publishes, receives and acks one batch at a time on a
// default-sharded queue, the pending queue's hot path.
func driveBroker(_ context.Context, batch int, _ string) ([]metric, error) {
	b := broker.New(broker.Options{})
	defer b.Close()
	if err := b.DeclareQueue("pending", broker.QueueOptions{}); err != nil {
		return nil, err
	}
	prod, err := b.Producer("pending")
	if err != nil {
		return nil, err
	}
	cons, err := b.ConsumeBatch("pending", batch)
	if err != nil {
		return nil, err
	}
	defer cons.Cancel()
	bodies := make([][]byte, batch)
	for i, uid := range uids(batch) {
		bodies[i] = msgcodec.FormatBinary.EncodeTaskUID(uid)
	}
	pub := make([]time.Duration, 0, driveReps)
	recv := make([]time.Duration, 0, driveReps)
	ack := make([]time.Duration, 0, driveReps)
	got := make([]*broker.Delivery, 0, batch)
	for i := 0; i < driveReps; i++ {
		t0 := time.Now()
		if err := prod.PublishBatch(bodies); err != nil {
			return nil, err
		}
		t1 := time.Now()
		got = got[:0]
		for len(got) < batch {
			ds, err := cons.ReceiveBatch(batch - len(got))
			if err != nil {
				return nil, err
			}
			got = append(got, ds...)
		}
		t2 := time.Now()
		if err := broker.AckBatch(got); err != nil {
			return nil, err
		}
		t3 := time.Now()
		pub, recv, ack = append(pub, t1.Sub(t0)), append(recv, t2.Sub(t1)), append(ack, t3.Sub(t2))
	}
	return []metric{
		{"broker.publish_batch_us", microsMedian(pub), "us"},
		{"broker.receive_batch_us", microsMedian(recv), "us"},
		{"broker.ack_batch_us", microsMedian(ack), "us"},
	}, nil
}

// timeBlocks times codecBlocks blocks of codecBlockSize calls of fn and
// returns the median nanoseconds per call.
func timeBlocks(fn func() error) (float64, error) {
	per := make([]float64, 0, codecBlocks)
	for b := 0; b < codecBlocks; b++ {
		t0 := time.Now()
		for i := 0; i < codecBlockSize; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/codecBlockSize)
	}
	return median(per), nil
}

// driveCodec encodes and decodes one pending-queue UID batch and one
// done-queue TaskResult batch in the binary wire format.
func driveCodec(_ context.Context, batch int, _ string) ([]metric, error) {
	ids := uids(batch)
	results := make([]msgcodec.TaskResult, batch)
	for i, uid := range ids {
		results[i] = msgcodec.TaskResult{UID: uid, Started: vclock.Epoch, Finished: vclock.Epoch.Add(time.Second)}
	}
	f := msgcodec.FormatBinary
	uidBody := f.EncodeTaskUIDs(ids)
	resBody, err := f.EncodeTaskResults(results)
	if err != nil {
		return nil, err
	}
	var ms []metric
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"msgcodec.encode_uids_ns", func() error { f.EncodeTaskUIDs(ids); return nil }},
		{"msgcodec.decode_uids_ns", func() error { _, err := msgcodec.DecodeTaskUIDs(uidBody); return err }},
		{"msgcodec.encode_results_ns", func() error { _, err := f.EncodeTaskResults(results); return err }},
		{"msgcodec.decode_results_ns", func() error { _, err := msgcodec.DecodeTaskResults(resBody); return err }},
	} {
		ns, err := timeBlocks(c.fn)
		if err != nil {
			return nil, err
		}
		ms = append(ms, metric{c.name, ns, "ns"})
	}
	return ms, nil
}

// driveRTS submits rtsDriveTasks zero-duration tasks, batch by batch, to a
// lone zero-cost PilotRTS and drains its completions.
func driveRTS(ctx context.Context, batch int, _ string) ([]metric, error) {
	clock := vclock.NewScaled(timeScale)
	cluster, session, err := newCI(clock)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	defer session.Close()
	r, err := rts.New(rts.Config{
		Resource: core.ResourceDesc{Resource: resourceName, Cores: 2048, Walltime: pilotWalltime},
		Clock:    clock,
		Session:  session,
		Registry: workload.NewRegistry(),
		Model:    rts.FastModel(),
	})
	if err != nil {
		return nil, err
	}
	if err := r.Start(ctx); err != nil {
		return nil, err
	}
	defer r.Stop() //nolint:errcheck // the drive has what it measures
	drained := make(chan error, 1)
	go func() {
		for n := 0; n < rtsDriveTasks; n++ {
			res, ok := <-r.Completions()
			if !ok {
				drained <- errors.New("rts drive: completions closed early")
				return
			}
			if res.ExitCode != 0 {
				drained <- fmt.Errorf("rts drive: task %s exit %d: %s", res.UID, res.ExitCode, res.Error)
				return
			}
		}
		drained <- nil
	}()
	submit := make([]time.Duration, 0, rtsDriveTasks/batch)
	descs := make([]core.TaskDescription, rtsDriveTasks)
	for i := range descs {
		descs[i] = core.TaskDescription{UID: fmt.Sprintf("task.drive.%05d", i), Executable: "sleep", Cores: 1}
	}
	t0 := time.Now()
	for i := 0; i < rtsDriveTasks; i += batch {
		ts := time.Now()
		if err := r.Submit(descs[i:min(i+batch, rtsDriveTasks)]); err != nil {
			return nil, err
		}
		submit = append(submit, time.Since(ts))
	}
	select {
	case err := <-drained:
		if err != nil {
			return nil, err
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return []metric{
		{"rts.submit_us", microsMedian(submit), "us"},
		{"rts.drain_tasks_per_s", float64(rtsDriveTasks) / time.Since(t0).Seconds(), "1/s"},
	}, nil
}

// driveJournal appends task state records to a segmented journal, as the
// synchronizer does on every durable commit.
func driveJournal(_ context.Context, _ int, dir string) ([]metric, error) {
	j, err := journal.OpenDir(filepath.Join(dir, "journal-drive"), journal.Options{})
	if err != nil {
		return nil, err
	}
	recs := make([][]byte, 0, 64)
	for _, uid := range uids(64) {
		recs = append(recs, msgcodec.FormatBinary.EncodeStateRec("task", uid, "DONE"))
	}
	per := make([]float64, 0, journalRecords/codecBlockSize)
	for n := 0; n < journalRecords; n += codecBlockSize {
		t0 := time.Now()
		for i := 0; i < codecBlockSize; i++ {
			if _, err := j.AppendRaw("state", recs[i%len(recs)]); err != nil {
				j.Close()
				return nil, err
			}
		}
		per = append(per, float64(time.Since(t0))/codecBlockSize/1e3)
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	return []metric{{"journal.append_us", median(per), "us"}}, nil
}

// echoRTS completes every submitted task at once, so a round trip through
// it prices only the path between the manager and the RTS.
type echoRTS struct {
	mu      sync.Mutex
	out     chan core.TaskResult
	stopped bool
}

func newEchoRTS() *echoRTS { return &echoRTS{out: make(chan core.TaskResult, 4096)} }

func (e *echoRTS) Name() string                        { return "echo" }
func (e *echoRTS) Start(context.Context) error         { return nil }
func (e *echoRTS) Completions() <-chan core.TaskResult { return e.out }
func (e *echoRTS) Alive() bool                         { return true }
func (e *echoRTS) Stats() core.RTSStats                { return core.RTSStats{} }

func (e *echoRTS) Submit(tasks []core.TaskDescription) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return errors.New("echo: stopped")
	}
	for _, t := range tasks {
		e.out <- core.TaskResult{UID: t.UID, Started: vclock.Epoch, Finished: vclock.Epoch}
	}
	return nil
}

func (e *echoRTS) Stop() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.stopped {
		e.stopped = true
		close(e.out)
	}
	return nil
}

// roundTrips submits one batch and drains its results, driveReps times,
// and returns the median round trip.
func roundTrips(r core.RTS, batch int) (float64, error) {
	descs := make([]core.TaskDescription, batch)
	for i, uid := range uids(batch) {
		descs[i] = core.TaskDescription{UID: uid, Executable: "sleep"}
	}
	per := make([]time.Duration, 0, driveReps)
	for i := 0; i < driveReps; i++ {
		t0 := time.Now()
		if err := r.Submit(descs); err != nil {
			return 0, err
		}
		for n := 0; n < batch; n++ {
			if _, ok := <-r.Completions(); !ok {
				return 0, errors.New("round trip: completions closed mid-drain")
			}
		}
		per = append(per, time.Since(t0))
	}
	return microsMedian(per), nil
}

// driveRemote prices one batch round trip to an echo RTS through an agent
// over a unix socket, against the same round trip in process.
func driveRemote(ctx context.Context, batch int, dir string) ([]metric, error) {
	local := newEchoRTS()
	inproc, err := roundTrips(local, batch)
	local.Stop() //nolint:errcheck // never fails
	if err != nil {
		return nil, err
	}
	agent, err := remoterts.NewAgent(remoterts.AgentConfig{
		Addr:    "unix:" + filepath.Join(dir, "drive.sock"),
		Name:    "drive-agent",
		Factory: func(core.ResourceDesc) (core.RTS, error) { return newEchoRTS(), nil },
	})
	if err != nil {
		return nil, err
	}
	defer agent.Close()
	proxy, err := remoterts.NewProxy(remoterts.Config{Addrs: []string{agent.Addr()}})
	if err != nil {
		return nil, err
	}
	if err := proxy.Start(ctx); err != nil {
		return nil, err
	}
	defer proxy.Stop() //nolint:errcheck // the drive has what it measures
	remote, err := roundTrips(proxy, batch)
	if err != nil {
		return nil, err
	}
	return []metric{
		{"remoterts.inproc_roundtrip_us", inproc, "us"},
		{"remoterts.batch_roundtrip_us", remote, "us"},
		{"remoterts.network_tax", remote / inproc, "ratio"},
	}, nil
}
