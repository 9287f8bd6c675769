package harness

import (
	"fmt"

	"tashkent/internal/workload"
)

// RunBatchingExperiment reproduces the paper's headline batching
// figure — writesets per fsync versus offered load — on an update-only
// workload with dedicated IO. Each replica step adds closed-loop
// update clients, and the table reports how the certification pipeline
// amortizes its replication rounds and disk flushes: throughput, the
// leader's writesets-per-fsync (GroupRatio), the pipeline batch-size
// distribution, and certifier disk utilization. Both Tashkent systems
// run; Base is omitted because its durability point is the replica
// disk, not the certifier.
func RunBatchingExperiment(o Options) ([]Series, error) {
	o = o.withDefaults()
	fmt.Fprintf(o.Out, "\n=== batching: writesets per fsync vs load (AllUpdates, dedicated IO) ===\n")
	maxBatch := "default"
	if o.CertMaxBatch > 0 {
		maxBatch = fmt.Sprintf("%d", o.CertMaxBatch)
	}
	fmt.Fprintf(o.Out, "scale=1/%d  clients/replica=%d  maxbatch=%s\n",
		o.Scale, o.ClientsPerReplica, maxBatch)

	systems := []System{SysMW, SysAPI}
	var out []Series
	for _, sys := range systems {
		s := Series{Name: sys.String()}
		for _, n := range o.ReplicaCounts {
			pt, err := runPoint(sys, n, true, &workload.AllUpdates{}, o)
			if err != nil {
				return out, fmt.Errorf("%s @%d replicas: %w", sys, n, err)
			}
			s.Points = append(s.Points, pt)
			fmt.Fprintf(o.Out, "%s\t%d replicas\t%.0f txn/s\tws/fsync=%.1f\tbatch(mean=%.1f p99=%d max=%d)\tutil=%.0f%%\n",
				sys, n, pt.Result.Throughput, pt.GroupRatio,
				pt.Batch.Mean, pt.Batch.P99, pt.Batch.Max, pt.CertUtil*100)
		}
		out = append(out, s)
	}
	printGroupRatioTable(o.Out, o.ReplicaCounts, out)
	return out, nil
}
