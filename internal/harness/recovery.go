package harness

import (
	"context"
	"fmt"
	"time"

	"tashkent/internal/cluster"
	"tashkent/internal/paxos"
	"tashkent/internal/proxy"
	"tashkent/internal/workload"
)

// RecoveryReport reproduces the §9.6 measurements: dump cost and
// throughput degradation while dumping (Tashkent-MW), restore time,
// WAL-based recovery (Base/Tashkent-API), the writeset re-application
// rate, and certifier state-transfer size/time.
type RecoveryReport struct {
	// Tashkent-MW dump/restore.
	DumpBytes              int
	DumpDuration           time.Duration
	ThroughputWhileDumping float64
	ThroughputBaseline     float64
	MWRestoreDuration      time.Duration
	MWResyncWritesets      int64

	// Base/Tashkent-API WAL recovery.
	WALRecords         int
	WALRecoverDuration time.Duration

	// Writeset re-application rate (all systems).
	ApplyRate float64 // writesets per second

	// Certifier recovery.
	CertTransferEntries  int
	CertTransferBytes    int
	CertTransferDuration time.Duration
}

// DumpDegradation returns the fractional throughput loss while
// dumping (the paper measures 13 %).
func (r RecoveryReport) DumpDegradation() float64 {
	if r.ThroughputBaseline == 0 {
		return 0
	}
	d := 1 - r.ThroughputWhileDumping/r.ThroughputBaseline
	if d < 0 {
		return 0
	}
	return d
}

// RunRecoveryExperiment exercises every §9.6 recovery path at a small
// scale and reports the measured costs.
func RunRecoveryExperiment(o Options) (RecoveryReport, error) {
	o = o.withDefaults()
	var rep RecoveryReport
	fmt.Fprintf(o.Out, "\n=== §9.6 recovery costs ===\n")

	// --- Tashkent-MW: dump while processing, crash, restore, resync.
	mw, err := clusterFor(SysMW, 2, false, 0, o, &workload.TPCW{})
	if err != nil {
		return rep, err
	}
	wl := &workload.TPCW{Items: 2000, CPUWork: 200}
	ctx := context.Background()
	begin0 := workload.Plain(func() (workload.PlainTx, error) { return mw.Begin(0) })
	if err := wl.Populate(ctx, begin0); err != nil {
		mw.Close()
		return rep, err
	}
	mw.ConvergeAll(30 * time.Second)

	begins := []workload.BeginFunc{begin0}
	baseline := workload.Run(ctx, wl, begins, workload.RunConfig{
		ClientsPerReplica: o.ClientsPerReplica, Warmup: o.Warmup / 2, Measure: o.Measure / 2, Seed: o.Seed,
	})
	rep.ThroughputBaseline = baseline.Throughput

	// Dump concurrently with load and measure the degradation.
	dumpDone := make(chan error, 1)
	dumpStart := time.Now()
	go func() {
		n, err := mw.Replica(0).DumpNow()
		rep.DumpBytes = n
		rep.DumpDuration = time.Since(dumpStart)
		dumpDone <- err
	}()
	during := workload.Run(ctx, wl, begins, workload.RunConfig{
		ClientsPerReplica: o.ClientsPerReplica, Warmup: o.Warmup / 2, Measure: o.Measure / 2, Seed: o.Seed + 1,
	})
	rep.ThroughputWhileDumping = during.Throughput
	if err := <-dumpDone; err != nil {
		mw.Close()
		return rep, err
	}

	// Crash and recover replica 0 from the dump.
	mw.CrashReplica(0)
	recStart := time.Now()
	mwRep, err := mw.RecoverReplica(0)
	if err != nil {
		mw.Close()
		return rep, err
	}
	rep.MWRestoreDuration = time.Since(recStart)
	rep.MWResyncWritesets = mwRep.WritesetsApplied
	mw.Close()

	// --- Base: WAL recovery.
	base, err := clusterFor(SysBase, 1, false, 0, o, &workload.AllUpdates{})
	if err != nil {
		return rep, err
	}
	au := &workload.AllUpdates{}
	baseBegins := []workload.BeginFunc{workload.Plain(func() (workload.PlainTx, error) { return base.Begin(0) })}
	workload.Run(ctx, au, baseBegins, workload.RunConfig{
		ClientsPerReplica: o.ClientsPerReplica, Warmup: 0, Measure: o.Measure / 2, Seed: o.Seed,
	})
	base.CrashReplica(0)
	walStart := time.Now()
	baseRep, err := base.RecoverReplica(0)
	if err != nil {
		base.Close()
		return rep, err
	}
	rep.WALRecords = baseRep.WALRecords
	rep.WALRecoverDuration = time.Since(walStart)
	base.Close()

	// --- Writeset apply rate: time a bulk resync.
	rate, err := measureApplyRate(o)
	if err != nil {
		return rep, err
	}
	rep.ApplyRate = rate

	// --- Certifier state transfer.
	if err := measureCertTransfer(o, &rep); err != nil {
		return rep, err
	}

	fmt.Fprintf(o.Out, "MW dump: %d bytes in %v (throughput %.0f -> %.0f, %.0f%% degradation)\n",
		rep.DumpBytes, rep.DumpDuration.Round(time.Millisecond),
		rep.ThroughputBaseline, rep.ThroughputWhileDumping, rep.DumpDegradation()*100)
	fmt.Fprintf(o.Out, "MW restore+resync: %v (%d writesets re-applied)\n",
		rep.MWRestoreDuration.Round(time.Millisecond), rep.MWResyncWritesets)
	fmt.Fprintf(o.Out, "Base WAL recovery: %d records in %v\n",
		rep.WALRecords, rep.WALRecoverDuration.Round(time.Millisecond))
	fmt.Fprintf(o.Out, "writeset apply rate: %.0f ws/s\n", rep.ApplyRate)
	fmt.Fprintf(o.Out, "certifier state transfer: %d entries (%d bytes) in %v\n",
		rep.CertTransferEntries, rep.CertTransferBytes, rep.CertTransferDuration.Round(time.Millisecond))
	return rep, nil
}

// measureApplyRate commits a batch of updates on replica 0 and times
// how fast a lagging replica 1 re-applies them during resync.
func measureApplyRate(o Options) (float64, error) {
	c, err := clusterFor(SysMW, 2, true, 0, o, &workload.AllUpdates{})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	const n = 300
	for i := 0; i < n; i++ {
		tx, err := c.Begin(0)
		if err != nil {
			return 0, err
		}
		if err := tx.Update("bulk", fmt.Sprintf("k%04d", i), map[string][]byte{"v": []byte("x")}); err != nil {
			tx.Abort()
			return 0, err
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if err := c.Replica(1).Proxy().Resync(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, nil
	}
	return n / elapsed.Seconds(), nil
}

// measureCertTransfer crashes a certifier follower after a batch of
// certifications and times the log fetch a recovering node performs.
func measureCertTransfer(o Options, rep *RecoveryReport) error {
	c, err := cluster.New(cluster.Config{
		Mode: proxy.TashkentMW, Replicas: 1, Certifiers: 3,
		IOProfile: o.profile(), DedicatedIO: true,
		Seed: o.Seed,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		tx, err := c.Begin(0)
		if err != nil {
			return err
		}
		if err := tx.Update("t", fmt.Sprintf("k%04d", i), map[string][]byte{"v": []byte("y")}); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	leader := c.GroupLeader(0)
	if leader == nil {
		return fmt.Errorf("no certifier leader")
	}
	start := time.Now()
	entries, _, err := paxos.Fetch(leaderClient{leader}, 1)
	if err != nil {
		return err
	}
	rep.CertTransferDuration = time.Since(start)
	rep.CertTransferEntries = len(entries)
	for _, e := range entries {
		rep.CertTransferBytes += len(e.Data)
	}
	return nil
}

// leaderClient adapts a certifier server to the paxos.Fetch peer
// interface by calling its handler directly (the in-process
// equivalent of the file transfer).
type leaderClient struct {
	s interface {
		Handle(string, []byte) ([]byte, error)
	}
}

// Call implements the fetch peer interface.
func (l leaderClient) Call(method string, req []byte) ([]byte, error) {
	return l.s.Handle(method, req)
}
