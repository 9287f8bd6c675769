package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"tashkent/internal/cluster"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
	"tashkent/internal/workload"
)

// ApplyScalePoint is one measured worker-count sample of the
// parallel-apply sweep.
type ApplyScalePoint struct {
	Workers  int // pool size; 1 is the serial-gate baseline
	Entries  int
	Duration time.Duration
	PerSec   float64
	Stats    proxy.ApplyStats
	Fsyncs   int64 // log-channel fsyncs consumed by the stream
}

// ApplyLagPoint is one replica's apply-lag profile under the
// partitioned merged stream.
type ApplyLagPoint struct {
	Replica    int
	MaxLag     uint64 // peak scheduled-vs-announced version gap observed
	MaxPending int    // peak installed-but-unpublished commits observed
	Stats      proxy.ApplyStats
}

// ApplyScaleResult collects the applyscale experiment's measurements.
type ApplyScaleResult struct {
	// Disjoint sweeps pool sizes over a conflict-free labeled stream;
	// Speedup8 is workers=8 throughput over the one-worker serial gate.
	Disjoint []ApplyScalePoint
	Speedup8 float64
	// Zipf is the conflicted stream (hot keys force dependency chains)
	// at the full worker pool.
	Zipf ApplyScalePoint
	// Partitioned profiles apply lag on a 4-group cluster under an
	// update-heavy workload with the parallel applier enabled.
	Partitioned    []ApplyLagPoint
	PartThroughput float64
}

// applyScaleFsync is the simulated log-disk fsync latency of the
// phase-A stream. One worker commits one labeled writeset per fsync,
// so its throughput is fsync-bound (~1/250 µs); a larger pool's
// concurrent installers share group-committed fsyncs. That
// makes the speedup a property of the apply architecture, not of how
// many host cores the test machine happens to have.
const applyScaleFsync = 200 * time.Microsecond

// applyScaleEntries is the phase-A stream length.
const applyScaleEntries = 2000

// DefaultApplyWorkerSweep is the pool-size sweep of phase A; one
// worker is the serial-gate baseline.
var DefaultApplyWorkerSweep = []int{1, 2, 4, 8}

// applyScaleStream builds a labeled remote stream of single-row
// updates, versions 1..n. Disjoint streams touch a fresh key per
// version; zipf streams draw hot keys from a zipfian over a small
// shared keyspace, forcing same-key dependency chains through the
// scheduler.
func applyScaleStream(n int, zipf bool, seed int64) []proxy.RemoteEntry {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.3, 1, 63)
	entries := make([]proxy.RemoteEntry, 0, n)
	for v := uint64(1); v <= uint64(n); v++ {
		key := fmt.Sprintf("k%06d", v)
		if zipf {
			key = fmt.Sprintf("zk%03d", z.Uint64())
		}
		val := make([]byte, 24) // AllUpdates-sized writeset (~54 B)
		r.Read(val)
		entries = append(entries, proxy.RemoteEntry{
			Version: v,
			WS: &core.Writeset{Ops: []core.WriteOp{{
				Kind: core.OpUpdate, Table: "au", Key: key,
				Cols: []core.ColUpdate{{Col: "v", Value: val}},
			}}},
		})
	}
	return entries
}

// runApplyStream drives one labeled stream through a fresh replica
// apply path and times it end to end (submission through the last
// version becoming visible).
func runApplyStream(workers int, entries []proxy.RemoteEntry, seed int64) (ApplyScalePoint, error) {
	logDisk := simdisk.New(simdisk.Profile{
		FsyncLatency: applyScaleFsync,
		FsyncJitter:  applyScaleFsync / 4,
	}, seed)
	store := mvstore.Open(mvstore.Config{
		LogDisk:      logDisk,
		WALMode:      wal.SyncCommits,
		LockTimeout:  2 * time.Second,
		OrderTimeout: 30 * time.Second,
	})
	defer store.Close()
	p := proxy.New(proxy.Config{
		Mode:             proxy.TashkentAPI,
		ReplicaID:        1,
		Store:            store,
		ChunkWaitTimeout: 10 * time.Second,
		ApplyWorkers:     workers,
	})
	defer p.Close()

	top := entries[len(entries)-1].Version
	start := time.Now()
	if err := p.ApplyRemoteEntries(entries); err != nil {
		return ApplyScalePoint{}, err
	}
	if err := store.WaitAnnounced(top, 60*time.Second); err != nil {
		return ApplyScalePoint{}, fmt.Errorf("stream never fully announced: %w", err)
	}
	d := time.Since(start)
	pt := ApplyScalePoint{
		Workers:  workers,
		Entries:  len(entries),
		Duration: d,
		Stats:    p.ApplyStats(),
		Fsyncs:   logDisk.Stats().Fsyncs,
	}
	if s := d.Seconds(); s > 0 {
		pt.PerSec = float64(len(entries)) / s
	}
	return pt, nil
}

// RunApplyScaleExperiment measures the dependency scheduler (see
// internal/proxy/schedule.go) across pool sizes, one worker being the
// serial gate. Phase A drives a pre-labeled remote stream — no
// certification round trip, apply path only — through one replica
// with synchronous WAL commits on a 200 µs-fsync log disk: one worker
// pays one unsharable fsync per writeset, while a larger pool's
// concurrent installers group-commit, so throughput scales with
// install parallelism until the log channel saturates. A zipfian
// hot-key stream then shows the conflicted case, where same-key
// dependency chains bound the achievable parallelism. Phase B runs an
// update-heavy workload against a 4-group partitioned Tashkent-API
// cluster — the policy whose merged runs reach the store as scheduler
// chunks — and profiles each replica's apply lag (the gap between the
// merged stream's planning cursor and the announced version) — the
// freshness metric the applier exists to bound.
func RunApplyScaleExperiment(o Options) (ApplyScaleResult, error) {
	o = o.withDefaults()
	var res ApplyScaleResult

	fmt.Fprintf(o.Out, "\n=== applyscale: parallel dependency-tracked writeset apply, single replica ===\n")
	fmt.Fprintf(o.Out, "stream=%d labeled single-row updates  fsync=%v  sync WAL commits\n",
		applyScaleEntries, applyScaleFsync)
	fmt.Fprintf(o.Out, "workers (1 = serial gate)\tapplies/s\tspeedup\tfsyncs\tpar(max)\tlag p99(ms)\n")

	var serial, eight ApplyScalePoint
	for _, w := range DefaultApplyWorkerSweep {
		entries := applyScaleStream(applyScaleEntries, false, o.Seed)
		pt, err := runApplyStream(w, entries, o.Seed+int64(w))
		if err != nil {
			return res, fmt.Errorf("applyscale disjoint @%d workers: %w", w, err)
		}
		res.Disjoint = append(res.Disjoint, pt)
		if w == 1 {
			serial = pt
		}
		if w == 8 {
			eight = pt
		}
		speedup := "-"
		if serial.PerSec > 0 && w != 1 {
			speedup = fmt.Sprintf("%.2fx", pt.PerSec/serial.PerSec)
		}
		fmt.Fprintf(o.Out, "%d\t%.0f\t%s\t%d\t%d\t%.2f\n",
			w, pt.PerSec, speedup, pt.Fsyncs, pt.Stats.Parallelism.Max,
			float64(pt.Stats.Lag.P99.Microseconds())/1000)
	}
	if serial.PerSec > 0 && eight.PerSec > 0 {
		res.Speedup8 = eight.PerSec / serial.PerSec
	}

	zipfEntries := applyScaleStream(applyScaleEntries, true, o.Seed)
	zpt, err := runApplyStream(8, zipfEntries, o.Seed+100)
	if err != nil {
		return res, fmt.Errorf("applyscale zipf: %w", err)
	}
	res.Zipf = zpt
	fmt.Fprintf(o.Out, "zipf@8\t%.0f\t%.2fx\t%d\t%d\t%.2f\t(hot-key chains, theta=1.3)\n",
		zpt.PerSec, zpt.PerSec/serial.PerSec, zpt.Fsyncs, zpt.Stats.Parallelism.Max,
		float64(zpt.Stats.Lag.P99.Microseconds())/1000)

	if err := runApplyLagPhase(&res, o); err != nil {
		return res, err
	}
	return res, nil
}

// runApplyLagPhase is phase B: apply lag under a 4-group partitioned
// merged stream on Tashkent-API, the one policy that applies through
// the scheduler's pool (Base and Tashkent-MW leave it idle at any
// partition count).
func runApplyLagPhase(res *ApplyScaleResult, o Options) error {
	const replicas = 2
	c, err := cluster.New(cluster.Config{
		Mode:               proxy.TashkentAPI,
		Replicas:           replicas,
		Certifiers:         3,
		Partitions:         4,
		IOProfile:          o.profile(),
		DedicatedIO:        true,
		CertMaxBatch:       o.CertMaxBatch,
		LocalCertification: true,
		EagerPreCert:       true,
		ApplyWorkers:       8,
		LockTimeout:        5 * time.Second,
		OrderTimeout:       10 * time.Second,
		Seed:               o.Seed,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	ctx := context.Background()
	wl := &workload.AllUpdates{}
	begins := make([]workload.BeginFunc, replicas)
	for i := 0; i < replicas; i++ {
		i := i
		begins[i] = workload.Plain(func() (workload.PlainTx, error) { return c.Begin(i) })
	}

	// Sample each replica's lag while the workload runs.
	maxLag := make([]uint64, replicas)
	maxPend := make([]int, replicas)
	var stop atomic.Bool
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for !stop.Load() {
			for i := 0; i < replicas; i++ {
				st := c.Replica(i).Proxy().ApplyStats()
				if st.LagVersions > maxLag[i] {
					maxLag[i] = st.LagVersions
				}
				if st.Pending > maxPend[i] {
					maxPend[i] = st.Pending
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	r := workload.Run(ctx, wl, begins, workload.RunConfig{
		ClientsPerReplica: o.ClientsPerReplica,
		Warmup:            o.Warmup,
		Measure:           o.Measure,
		ExecTime:          0, // apply-bound: no simulated think time
		Seed:              o.Seed,
	})
	stop.Store(true)
	<-samplerDone
	res.PartThroughput = r.Throughput

	// Convergence proves the lag is bounded: every pending drains and
	// every replica reaches the merged head.
	if err := c.ConvergeAll(30 * time.Second); err != nil {
		return fmt.Errorf("applyscale partitioned stream never converged: %w", err)
	}

	fmt.Fprintf(o.Out, "\n[partitioned apply lag: tashAPI, 4 groups, %d replicas, AllUpdates, workers=8]\n", replicas)
	fmt.Fprintf(o.Out, "throughput=%.0f txn/s\n", r.Throughput)
	fmt.Fprintf(o.Out, "replica\tmaxLag(vers)\tmaxPending\tpublished\tsuperseded\tpar(max)\n")
	for i := 0; i < replicas; i++ {
		st := c.Replica(i).Proxy().ApplyStats()
		if st.GaveUp != 0 || st.Submitted == 0 {
			return fmt.Errorf("applyscale partitioned stream: replica %d gave up %d of %d scheduled chunks", i, st.GaveUp, st.Submitted)
		}
		res.Partitioned = append(res.Partitioned, ApplyLagPoint{
			Replica: i, MaxLag: maxLag[i], MaxPending: maxPend[i], Stats: st,
		})
		fmt.Fprintf(o.Out, "%d\t%d\t%d\t%d\t%d\t%d\n",
			i, maxLag[i], maxPend[i], st.Published, st.Superseded, st.Parallelism.Max)
	}
	return nil
}
