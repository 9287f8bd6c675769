package harness

import (
	"context"
	"fmt"
	"time"

	"tashkent/internal/cluster"
	"tashkent/internal/metrics"
	"tashkent/internal/proxy"
	"tashkent/internal/workload"
)

// PartitionPoint is one measured partition-count sample of the
// certification-scaling sweep.
type PartitionPoint struct {
	Partitions int
	Result     workload.Result
	// GroupBatch and GroupRatio are the per-group leader's pipeline
	// batch sizes and writesets per fsync (index = partition id; one
	// entry for the classic single-group system).
	GroupBatch []metrics.DistSummary
	GroupRatio []float64
	// Batch and Util roll the per-group numbers up: total certified
	// writesets, merged batch-size digest, and how evenly the log-disk
	// load spread across the groups.
	Batch metrics.DistSummary
	Util  metrics.UtilSummary
	// Cross counts cross-partition (2PC) commits; zero on this
	// workload, whose transactions each touch a single row.
	Cross int64
}

// DefaultPartitionCounts is the partition sweep used when none is
// given.
var DefaultPartitionCounts = []int{1, 2, 4, 8}

// partitionsDefaultMaxBatch caps the certification pipeline for this
// experiment when the caller did not choose a cap. The default cap
// (256) lets one group's batching absorb any load the closed-loop
// clients can offer, so the certifier never becomes the bottleneck
// and partitioning has nothing to scale; a small cap models a
// certifier with bounded per-round absorption (CPU and RPC cost per
// writeset grow with batch size on real hardware), which is the
// regime partitioned certification is for.
const partitionsDefaultMaxBatch = 4

// RunPartitionsExperiment measures how certification throughput
// scales with the number of certifier groups (see internal/partition)
// under a uniform update-heavy load of single-partition transactions:
// AllUpdates in Tashkent-MW mode at a fixed replica count, dedicated
// IO, no execution think time, so the certification channel — not
// replica-side execution — saturates first. One partition is the
// classic single-group system; each added group brings its own paxos
// log, its own batching pipeline and its own log disk. The table
// reports throughput, speedup over one partition, per-group writesets
// per fsync, and how evenly load spread across the group disks.
// replicas <= 0 selects 4.
func RunPartitionsExperiment(partCounts []int, replicas int, o Options) ([]PartitionPoint, error) {
	o = o.withDefaults()
	if len(partCounts) == 0 {
		partCounts = DefaultPartitionCounts
	}
	if replicas <= 0 {
		replicas = 4
	}
	if o.CertMaxBatch <= 0 {
		o.CertMaxBatch = partitionsDefaultMaxBatch
	}

	fmt.Fprintf(o.Out, "\n=== partitions: certification scaling vs certifier-group count (AllUpdates, tashMW) ===\n")
	fmt.Fprintf(o.Out, "replicas=%d  clients/replica=%d  scale=1/%d  maxbatch=%d  dedicated IO, no think time\n",
		replicas, o.ClientsPerReplica, o.Scale, o.CertMaxBatch)
	fmt.Fprintf(o.Out, "parts\ttxn/s\tspeedup\tmeanRT(ms)\tws/fsync(per group)\tbatch(mean p99)\tutil(mean max)\tcross\n")

	var out []PartitionPoint
	var baseTPS float64
	for _, parts := range partCounts {
		pt, err := runPartitionPoint(parts, replicas, o)
		if err != nil {
			return out, fmt.Errorf("partitions @%d: %w", parts, err)
		}
		out = append(out, pt)
		if parts == 1 {
			baseTPS = pt.Result.Throughput
		}
		speedup := "-"
		if baseTPS > 0 {
			speedup = fmt.Sprintf("%.2fx", pt.Result.Throughput/baseTPS)
		}
		ratios := ""
		for i, r := range pt.GroupRatio {
			if i > 0 {
				ratios += " "
			}
			ratios += fmt.Sprintf("%.1f", r)
		}
		fmt.Fprintf(o.Out, "%d\t%.0f\t%s\t%.1f\t%s\t%.1f %d\t%.0f%% %.0f%%\t%d\n",
			parts, pt.Result.Throughput, speedup,
			float64(pt.Result.RT.Mean.Microseconds())/1000,
			ratios, pt.Batch.Mean, pt.Batch.P99,
			pt.Util.Mean*100, pt.Util.Max*100, pt.Cross)
	}
	return out, nil
}

// runPartitionPoint measures one partition count.
func runPartitionPoint(parts, replicas int, o Options) (PartitionPoint, error) {
	c, err := cluster.New(cluster.Config{
		Mode:               proxy.TashkentMW,
		Replicas:           replicas,
		Certifiers:         3,
		Partitions:         parts,
		IOProfile:          o.profile(),
		DedicatedIO:        true,
		CertMaxBatch:       o.CertMaxBatch,
		LocalCertification: true,
		EagerPreCert:       true,
		LockTimeout:        5 * time.Second,
		OrderTimeout:       10 * time.Second,
		Seed:               o.Seed,
	})
	if err != nil {
		return PartitionPoint{}, err
	}
	defer c.Close()

	ctx := context.Background()
	wl := &workload.AllUpdates{}
	begin0 := workload.Plain(func() (workload.PlainTx, error) { return c.Begin(0) })
	if err := wl.Populate(ctx, begin0); err != nil {
		return PartitionPoint{}, fmt.Errorf("populate: %w", err)
	}
	if err := c.ConvergeAll(30 * time.Second); err != nil {
		return PartitionPoint{}, err
	}

	begins := make([]workload.BeginFunc, replicas)
	for i := 0; i < replicas; i++ {
		i := i
		begins[i] = workload.Plain(func() (workload.PlainTx, error) { return c.Begin(i) })
	}
	for g := 0; g < c.Groups(); g++ {
		if leader := c.GroupLeader(g); leader != nil {
			leader.ResetActivityStats()
		}
	}
	res := workload.Run(ctx, wl, begins, workload.RunConfig{
		ClientsPerReplica: o.ClientsPerReplica,
		Warmup:            o.Warmup,
		Measure:           o.Measure,
		ExecTime:          0, // certification-bound: no simulated think time
		Seed:              o.Seed,
	})

	pt := PartitionPoint{Partitions: parts, Result: res}
	var utils []float64
	for g := 0; g < c.Groups(); g++ {
		leader := c.GroupLeader(g)
		if leader == nil {
			continue
		}
		pt.GroupBatch = append(pt.GroupBatch, leader.BatchStats())
		pt.GroupRatio = append(pt.GroupRatio, leader.DiskStats().GroupRatio())
		utils = append(utils, leader.DiskUtilization())
	}
	pt.Batch = metrics.MergeDist(pt.GroupBatch...)
	pt.Util = metrics.SummarizeUtil(utils)
	for i := 0; i < replicas; i++ {
		pt.Cross += c.Replica(i).Proxy().Stats().CrossPartCommits
	}
	return pt, nil
}
