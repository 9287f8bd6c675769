package harness

import (
	"context"
	"fmt"
	"time"

	"tashkent/internal/cluster"
	"tashkent/internal/proxy"
	"tashkent/internal/replica"
	"tashkent/internal/workload"
)

// ReadScalePoint is one measured client-count sample of the
// read-scaling sweep.
type ReadScalePoint struct {
	Clients int
	Result  workload.Result
}

// ReadScaleSeries is one endpoint's client sweep.
type ReadScaleSeries struct {
	Name   string
	Points []ReadScalePoint
}

// DefaultReadScaleClients is the client sweep used when none is given.
var DefaultReadScaleClients = []int{1, 2, 4, 8, 16, 32}

// RunReadScaleExperiment measures how one database replica's
// throughput scales with concurrent closed-loop clients under a
// read-mostly TPC-W mix. Two endpoints are swept:
//
//   - standalone: clients commit directly against one storage engine
//     (the paper's §9.2 standalone database). Updates pay only the
//     WAL, so the sweep isolates the engine's snapshot-read path.
//   - tashMW@1: a 1-replica Tashkent-MW cluster running the full
//     certification protocol, showing how much of the engine-level
//     gain survives the replication stack.
//
// Unlike the paper-figure experiments the workload is configured so
// the storage engine — not simulated disks, think time or per-read
// CPU burn — dominates each browse transaction: dedicated IO, no
// buffer-miss/checkpoint page traffic, minimal per-read CPU spin, no
// execution think time, and a browse-heavy read mix (TPC-W browsing
// interactions such as best-sellers read tens of items). This is the
// experiment behind BENCH_read.json: under the historical single-mutex
// engine every row read serialized on one global store lock, so added
// clients added contention instead of throughput; the lock-striped
// engine keeps snapshot reads off any global lock.
func RunReadScaleExperiment(clientCounts []int, o Options) ([]ReadScaleSeries, error) {
	o = o.withDefaults()
	if len(clientCounts) == 0 {
		clientCounts = DefaultReadScaleClients
	}

	fmt.Fprintf(o.Out, "\n=== readscale: TPC-W read-mostly mix, single replica, client sweep ===\n")
	fmt.Fprintf(o.Out, "workload=TPC-W(engine-bound, 20 reads/browse)  dedicated IO  scale=1/%d\n", o.Scale)

	endpoints := []struct {
		name string
		run  func(clients int) (workload.Result, error)
	}{
		{"standalone", func(clients int) (workload.Result, error) { return runReadScaleStandalone(clients, o) }},
		{"tashMW@1", func(clients int) (workload.Result, error) { return runReadScaleCluster(clients, o) }},
	}

	var out []ReadScaleSeries
	for _, ep := range endpoints {
		s := ReadScaleSeries{Name: ep.name}
		fmt.Fprintf(o.Out, "\n[%s]\nclients\ttxn/s\tmeanRT(ms)\treadRT(ms)\tupdateRT(ms)\tabort%%\n", ep.name)
		for _, clients := range clientCounts {
			res, err := ep.run(clients)
			if err != nil {
				return out, fmt.Errorf("readscale %s @%d clients: %w", ep.name, clients, err)
			}
			s.Points = append(s.Points, ReadScalePoint{Clients: clients, Result: res})
			fmt.Fprintf(o.Out, "%d\t%.0f\t%.2f\t%.2f\t%.2f\t%.1f\n",
				clients,
				res.Throughput,
				float64(res.RT.Mean.Microseconds())/1000,
				float64(res.ReadRT.Mean.Microseconds())/1000,
				float64(res.UpdateRT.Mean.Microseconds())/1000,
				res.AbortRate()*100)
		}
		out = append(out, s)
	}
	return out, nil
}

// readScaleWorkload is the engine-bound TPC-W variant: the shopping
// schema and 80/20 read/update split, with browse transactions sized
// like the heavier browsing interactions (20 item lookups) and the
// per-read CPU spin reduced to a token amount so row reads hit the
// storage engine back to back.
func readScaleWorkload() workload.Generator {
	return &workload.TPCW{CPUWork: 1, ReadsPerBrowse: 20}
}

// runReadScaleStandalone measures one client count against a
// standalone engine endpoint.
func runReadScaleStandalone(clients int, o Options) (workload.Result, error) {
	sa := replica.OpenStandalone(replica.IOConfig{
		Profile: o.profile(), Dedicated: true, Seed: o.Seed,
	}, 0, 0)
	defer sa.Close()

	wl := readScaleWorkload()
	ctx := context.Background()
	begin := workload.Plain(func() (workload.PlainTx, error) { return sa.Begin() })
	if err := wl.Populate(ctx, begin); err != nil {
		return workload.Result{}, fmt.Errorf("populate: %w", err)
	}
	return workload.Run(ctx, wl, []workload.BeginFunc{begin}, workload.RunConfig{
		ClientsPerReplica: clients,
		Warmup:            o.Warmup,
		Measure:           o.Measure,
		ExecTime:          0, // engine-bound: no simulated think time
		Seed:              o.Seed,
	}), nil
}

// runReadScaleCluster measures one client count against a fresh
// 1-replica Tashkent-MW cluster.
func runReadScaleCluster(clients int, o Options) (workload.Result, error) {
	c, err := cluster.New(cluster.Config{
		Mode:               proxy.TashkentMW,
		Replicas:           1,
		Certifiers:         3,
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
		return workload.Result{}, err
	}
	defer c.Close()

	wl := readScaleWorkload()
	ctx := context.Background()
	begin := workload.Plain(func() (workload.PlainTx, error) { return c.Begin(0) })
	if err := wl.Populate(ctx, begin); err != nil {
		return workload.Result{}, fmt.Errorf("populate: %w", err)
	}
	if err := c.ConvergeAll(30 * time.Second); err != nil {
		return workload.Result{}, err
	}
	return workload.Run(ctx, wl, []workload.BeginFunc{begin}, workload.RunConfig{
		ClientsPerReplica: clients,
		Warmup:            o.Warmup,
		Measure:           o.Measure,
		ExecTime:          0, // engine-bound: no simulated think time
		Seed:              o.Seed,
	}), nil
}
