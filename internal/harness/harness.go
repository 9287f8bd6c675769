// Package harness defines one runnable experiment per table and figure
// in the paper's evaluation (§9) and the machinery to execute them and
// print the resulting series. See DESIGN.md for the experiment index
// and EXPERIMENTS.md for recorded results.
package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"tashkent/internal/cluster"
	"tashkent/internal/metrics"
	"tashkent/internal/proxy"
	"tashkent/internal/replica"
	"tashkent/internal/simdisk"
	"tashkent/internal/workload"
)

// System identifies one curve in the paper's figures.
type System int

// The systems compared across the evaluation.
const (
	SysBase System = iota
	SysMW
	SysAPI
	SysAPINoCert // Tashkent-API with certifier durability disabled (§9.2)
)

// String names the system as the paper's figure legends do.
func (s System) String() string {
	switch s {
	case SysBase:
		return "base"
	case SysMW:
		return "tashMW"
	case SysAPI:
		return "tashAPI"
	case SysAPINoCert:
		return "tashAPInoCERT"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Options tunes experiment execution. The zero value gives a fast,
// scaled run suitable for `go test -bench`; cmd/tashbench exposes
// flags for full-fidelity sweeps.
type Options struct {
	// Scale divides the paper's disk latencies (default 10: an 8 ms
	// fsync becomes 0.8 ms). All ratios — and therefore all curve
	// shapes — are preserved.
	Scale int
	// ReplicaCounts to sweep (default 1, 2, 4, 8, 12, 15).
	ReplicaCounts []int
	// ClientsPerReplica closed-loop clients per replica (default 10,
	// matching the paper's response-time discussion).
	ClientsPerReplica int
	// Warmup and Measure per point (defaults 300 ms / 1.5 s —
	// multiplied by Scale these correspond to 3 s / 15 s of
	// paper-time).
	Warmup  time.Duration
	Measure time.Duration
	// Seed fixes all randomness.
	Seed int64
	// ExecTime models replica-side transaction execution cost (see
	// workload.RunConfig.ExecTime). Zero selects 5× the scaled fsync
	// latency — with paper disks (scale 1) that is 40 ms, which
	// reproduces the paper's per-replica offered load (a Base replica
	// commits ~50 txn/s, a standalone/MW replica ~250-500). Negative
	// disables it.
	ExecTime time.Duration
	// CertMaxBatch caps the certifier's batches (zero keeps the
	// certifier default).
	CertMaxBatch int
	// Out receives the formatted tables (nil discards).
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 10
	}
	if len(o.ReplicaCounts) == 0 {
		o.ReplicaCounts = []int{1, 2, 4, 8, 12, 15}
	}
	if o.ClientsPerReplica <= 0 {
		o.ClientsPerReplica = 10
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = 1500 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ExecTime == 0 {
		o.ExecTime = 5 * o.profile().FsyncLatency
	} else if o.ExecTime < 0 {
		o.ExecTime = 0
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// profile returns the scaled disk model.
func (o Options) profile() simdisk.Profile { return simdisk.Paper().Scaled(o.Scale) }

// Point is one measured (system, replica-count) sample.
type Point struct {
	System     System
	Replicas   int
	Result     workload.Result
	GroupRatio float64 // certifier-leader writesets per fsync (MW durability point)
	CertUtil   float64
	// Batch summarizes the certification pipeline's batch sizes at the
	// leader (commits per replication round / durability barrier).
	Batch metrics.DistSummary
}

// Series is one experiment's measurements.
type Series struct {
	Name   string
	Points []Point
}

// clusterFor builds the cluster for one system variant; abortRate is
// the certifier's forced abort rate (Fig 14), 0 elsewhere.
func clusterFor(sys System, replicas int, dedicated bool, abortRate float64, o Options, wl workload.Generator) (*cluster.Cluster, error) {
	cfg := cluster.Config{
		Replicas:     replicas,
		Certifiers:   3,
		IOProfile:    o.profile(),
		DedicatedIO:  dedicated,
		AbortRate:    abortRate,
		CertMaxBatch: o.CertMaxBatch,
		LockTimeout:  5 * time.Second,
		Seed:         o.Seed,
	}
	switch sys {
	case SysBase:
		cfg.Mode = proxy.Base
	case SysMW:
		cfg.Mode = proxy.TashkentMW
	case SysAPI:
		cfg.Mode = proxy.TashkentAPI
	case SysAPINoCert:
		cfg.Mode = proxy.TashkentAPI
		cfg.DisableCertDurability = true
	}
	// TPC-W's larger database generates data-page traffic on a shared
	// channel (buffer misses + checkpoint write-back).
	if _, isTPCW := wl.(*workload.TPCW); isTPCW {
		cfg.PageMissEvery = 20
		cfg.CheckpointEvery = 8
	}
	return cluster.New(cfg)
}

// runPoint measures one (system, replicas) sample.
func runPoint(sys System, replicas int, dedicated bool, wl workload.Generator, o Options) (Point, error) {
	c, err := clusterFor(sys, replicas, dedicated, 0, o, wl)
	if err != nil {
		return Point{}, err
	}
	defer c.Close()

	ctx := context.Background()
	begin0 := workload.Plain(func() (workload.PlainTx, error) { return c.Begin(0) })
	if err := wl.Populate(ctx, begin0); err != nil {
		return Point{}, fmt.Errorf("populate: %w", err)
	}
	if err := c.ConvergeAll(30 * time.Second); err != nil {
		return Point{}, err
	}

	begins := make([]workload.BeginFunc, replicas)
	for i := 0; i < replicas; i++ {
		i := i
		begins[i] = workload.Plain(func() (workload.PlainTx, error) { return c.Begin(i) })
	}
	// Reset disk and batch stats after populate so group ratios and
	// batch sizes reflect steady state, not the serial load phase.
	if leader := c.GroupLeader(0); leader != nil {
		leader.ResetActivityStats()
	}
	res := workload.Run(ctx, wl, begins, workload.RunConfig{
		ClientsPerReplica: o.ClientsPerReplica,
		Warmup:            o.Warmup,
		Measure:           o.Measure,
		ExecTime:          o.ExecTime,
		Seed:              o.Seed,
	})
	pt := Point{System: sys, Replicas: replicas, Result: res}
	if leader := c.GroupLeader(0); leader != nil {
		pt.GroupRatio = leader.DiskStats().GroupRatio()
		pt.CertUtil = leader.Disk().Utilization()
		pt.Batch = leader.BatchStats()
	}
	return pt, nil
}

// ThroughputExperiment sweeps replica counts for several systems under
// one workload, printing the paper-style throughput and response-time
// tables.
func ThroughputExperiment(name string, wl func() workload.Generator, dedicated bool, systems []System, o Options) ([]Series, error) {
	o = o.withDefaults()
	fmt.Fprintf(o.Out, "\n=== %s ===\n", name)
	io := "shared IO"
	if dedicated {
		io = "dedicated IO"
	}
	fmt.Fprintf(o.Out, "workload=%s  %s  scale=1/%d  clients/replica=%d\n",
		wl().Name(), io, o.Scale, o.ClientsPerReplica)

	var out []Series
	for _, sys := range systems {
		s := Series{Name: sys.String()}
		for _, n := range o.ReplicaCounts {
			pt, err := runPoint(sys, n, dedicated, wl(), o)
			if err != nil {
				return out, fmt.Errorf("%s @%d replicas: %w", sys, n, err)
			}
			s.Points = append(s.Points, pt)
		}
		out = append(out, s)
	}
	printThroughputTable(o.Out, o.ReplicaCounts, out)
	printResponseTable(o.Out, o.ReplicaCounts, out)
	printGroupRatioTable(o.Out, o.ReplicaCounts, out)
	return out, nil
}

func printThroughputTable(w io.Writer, counts []int, series []Series) {
	fmt.Fprintf(w, "\nThroughput (committed txn/s):\nreplicas")
	for _, s := range series {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w)
	for i, n := range counts {
		fmt.Fprintf(w, "%d", n)
		for _, s := range series {
			fmt.Fprintf(w, "\t%.0f", s.Points[i].Result.Throughput)
		}
		fmt.Fprintln(w)
	}
}

func printResponseTable(w io.Writer, counts []int, series []Series) {
	fmt.Fprintf(w, "\nMean response time (ms):\nreplicas")
	for _, s := range series {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w)
	for i, n := range counts {
		fmt.Fprintf(w, "%d", n)
		for _, s := range series {
			fmt.Fprintf(w, "\t%.1f", float64(s.Points[i].Result.RT.Mean.Microseconds())/1000)
		}
		fmt.Fprintln(w)
	}
}

// printGroupRatioTable reports the certifier-leader writesets per
// fsync — the paper's headline batching figure — for every series that
// exercised the certifier disk.
func printGroupRatioTable(w io.Writer, counts []int, series []Series) {
	any := false
	for _, s := range series {
		for _, p := range s.Points {
			if p.GroupRatio > 0 {
				any = true
			}
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "\nCertifier writesets per fsync:\nreplicas")
	for _, s := range series {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w)
	for i, n := range counts {
		fmt.Fprintf(w, "%d", n)
		for _, s := range series {
			fmt.Fprintf(w, "\t%.1f", s.Points[i].GroupRatio)
		}
		fmt.Fprintln(w)
	}
}

// Fig4and5 reproduces Figures 4 and 5: AllUpdates with a shared IO
// channel, all four systems.
func Fig4and5(o Options) ([]Series, error) {
	return ThroughputExperiment("Fig 4/5: AllUpdates (shared IO)",
		func() workload.Generator { return &workload.AllUpdates{} },
		false, []System{SysBase, SysMW, SysAPI, SysAPINoCert}, o)
}

// Fig6and7 reproduces Figures 6 and 7: AllUpdates, dedicated IO.
func Fig6and7(o Options) ([]Series, error) {
	return ThroughputExperiment("Fig 6/7: AllUpdates (dedicated IO)",
		func() workload.Generator { return &workload.AllUpdates{} },
		true, []System{SysBase, SysMW, SysAPI, SysAPINoCert}, o)
}

// tpcbFor sizes the TPC-B schema to the system, as the TPC-B scaling
// rules do (branch count grows with configured throughput); a fixed
// tiny branch table would make data contention, not the disk, the
// bottleneck at high replica counts.
func tpcbFor(o Options) func() workload.Generator {
	max := 1
	for _, n := range o.ReplicaCounts {
		if n > max {
			max = n
		}
	}
	branches := 4 * max
	// Keep the per-store footprint modest: the conflict structure is
	// set by the branch count; account rows only need to be numerous
	// enough that account collisions stay rare.
	return func() workload.Generator {
		return &workload.TPCB{Branches: branches, AccountsPerBranch: 200}
	}
}

// Fig8and9 reproduces Figures 8 and 9: TPC-B, shared IO.
func Fig8and9(o Options) ([]Series, error) {
	o = o.withDefaults()
	return ThroughputExperiment("Fig 8/9: TPC-B (shared IO)",
		tpcbFor(o), false, []System{SysBase, SysMW, SysAPI, SysAPINoCert}, o)
}

// Fig10and11 reproduces Figures 10 and 11: TPC-B, dedicated IO.
func Fig10and11(o Options) ([]Series, error) {
	o = o.withDefaults()
	return ThroughputExperiment("Fig 10/11: TPC-B (dedicated IO)",
		tpcbFor(o), true, []System{SysBase, SysMW, SysAPI, SysAPINoCert}, o)
}

// Fig12and13 reproduces Figures 12 and 13: TPC-W shopping mix, shared
// IO, with read-only vs update response times.
func Fig12and13(o Options) ([]Series, error) {
	o = o.withDefaults()
	series, err := ThroughputExperiment("Fig 12/13: TPC-W shopping mix (shared IO)",
		func() workload.Generator { return &workload.TPCW{} },
		false, []System{SysBase, SysMW, SysAPI}, o)
	if err != nil {
		return series, err
	}
	fmt.Fprintf(o.Out, "\nRead-only vs update mean RT (ms):\nreplicas")
	for _, s := range series {
		fmt.Fprintf(o.Out, "\t%s(ro)\t%s(up)", s.Name, s.Name)
	}
	fmt.Fprintln(o.Out)
	for i, n := range o.ReplicaCounts {
		fmt.Fprintf(o.Out, "%d", n)
		for _, s := range series {
			p := s.Points[i].Result
			fmt.Fprintf(o.Out, "\t%.1f\t%.1f",
				float64(p.ReadRT.Mean.Microseconds())/1000,
				float64(p.UpdateRT.Mean.Microseconds())/1000)
		}
		fmt.Fprintln(o.Out)
	}
	return series, nil
}

// Fig14 reproduces Figure 14: AllUpdates goodput under injected abort
// rates of 0 %, 20 % and 40 % (dedicated IO), nine curves.
func Fig14(o Options) (map[string]Series, error) {
	o = o.withDefaults()
	fmt.Fprintf(o.Out, "\n=== Fig 14: goodput under forced abort rates (dedicated IO) ===\n")
	out := make(map[string]Series)
	systems := []System{SysBase, SysMW, SysAPI}
	rates := []float64{0, 0.2, 0.4}
	for _, sys := range systems {
		for _, rate := range rates {
			key := fmt.Sprintf("%s@%.0f%%", sys, rate*100)
			s := Series{Name: key}
			for _, n := range o.ReplicaCounts {
				wl := &workload.AllUpdates{}
				c, err := clusterFor(sys, n, true, rate, o, wl)
				if err != nil {
					return out, err
				}
				begins := make([]workload.BeginFunc, n)
				for i := 0; i < n; i++ {
					i := i
					begins[i] = workload.Plain(func() (workload.PlainTx, error) { return c.Begin(i) })
				}
				res := workload.Run(context.Background(), wl, begins, workload.RunConfig{
					ClientsPerReplica: o.ClientsPerReplica,
					Warmup:            o.Warmup,
					Measure:           o.Measure,
					ExecTime:          o.ExecTime,
					Seed:              o.Seed,
				})
				c.Close()
				s.Points = append(s.Points, Point{System: sys, Replicas: n, Result: res})
			}
			out[key] = s
		}
	}
	fmt.Fprintf(o.Out, "goodput (committed txn/s):\nreplicas")
	keys := make([]string, 0, len(out))
	for _, sys := range systems {
		for _, rate := range rates {
			keys = append(keys, fmt.Sprintf("%s@%.0f%%", sys, rate*100))
		}
	}
	for _, k := range keys {
		fmt.Fprintf(o.Out, "\t%s", k)
	}
	fmt.Fprintln(o.Out)
	for i, n := range o.ReplicaCounts {
		fmt.Fprintf(o.Out, "%d", n)
		for _, k := range keys {
			fmt.Fprintf(o.Out, "\t%.0f", out[k].Points[i].Result.Throughput)
		}
		fmt.Fprintln(o.Out)
	}
	return out, nil
}

// StandaloneComparison reproduces the §9.2 text numbers: a standalone
// database versus a 1-replica Tashkent-MW system running the full
// replication protocol (the paper reports the latter within 5 % of the
// former).
type StandaloneComparison struct {
	StandaloneThroughput float64
	OneReplicaThroughput float64
	StandaloneRT         time.Duration
	OneReplicaRT         time.Duration
}

// Overhead returns the relative throughput cost of the replication
// protocol at one replica.
func (c StandaloneComparison) Overhead() float64 {
	if c.StandaloneThroughput == 0 {
		return 0
	}
	return 1 - c.OneReplicaThroughput/c.StandaloneThroughput
}

// RunStandaloneComparison measures both configurations under
// AllUpdates.
func RunStandaloneComparison(dedicated bool, o Options) (StandaloneComparison, error) {
	o = o.withDefaults()
	var out StandaloneComparison

	sa := replica.OpenStandalone(replica.IOConfig{
		Profile: o.profile(), Dedicated: dedicated, Seed: o.Seed,
	}, 0, 0)
	res := workload.Run(context.Background(), &workload.AllUpdates{}, []workload.BeginFunc{
		workload.Plain(func() (workload.PlainTx, error) { return sa.Begin() }),
	}, workload.RunConfig{ClientsPerReplica: o.ClientsPerReplica, Warmup: o.Warmup, Measure: o.Measure, ExecTime: o.ExecTime, Seed: o.Seed})
	sa.Close()
	out.StandaloneThroughput = res.Throughput
	out.StandaloneRT = res.RT.Mean

	pt, err := runPoint(SysMW, 1, dedicated, &workload.AllUpdates{}, o)
	if err != nil {
		return out, err
	}
	out.OneReplicaThroughput = pt.Result.Throughput
	out.OneReplicaRT = pt.Result.RT.Mean
	fmt.Fprintf(o.Out, "\n=== §9.2 standalone vs 1-replica Tashkent-MW (dedicated=%v) ===\n", dedicated)
	fmt.Fprintf(o.Out, "standalone: %.0f txn/s @ %v\n1-replica MW: %.0f txn/s @ %v\noverhead: %.1f%%\n",
		out.StandaloneThroughput, out.StandaloneRT.Round(100*time.Microsecond),
		out.OneReplicaThroughput, out.OneReplicaRT.Round(100*time.Microsecond),
		out.Overhead()*100)
	return out, nil
}

// newAllUpdates is a Generator factory used by tests.
func newAllUpdates() workload.Generator { return &workload.AllUpdates{} }
