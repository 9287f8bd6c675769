package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"tashkent/internal/metrics"
	"tashkent/internal/simdisk"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// metricSet keeps metrics in emission order and refuses a second value
// under one name.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (m *metricSet) add(name string, value float64, unit string) {
	if m.seen == nil {
		m.seen = make(map[string]bool)
	}
	if m.seen[name] {
		panic("bench: metric " + name + " emitted twice")
	}
	m.seen[name] = true
	m.list = append(m.list, metric{name, value, unit})
}

func (m *metricSet) get(name string) (float64, bool) {
	for _, x := range m.list {
		if x.name == name {
			return x.value, true
		}
	}
	return 0, false
}

// counted are the S metrics that are plain window deltas of one
// cumulative counter, in emission order.
var counted = []string{
	"proxy.commits", "proxy.cert_aborts", "proxy.local_cert_aborts",
	"proxy.remote_applied", "proxy.remote_chunks", "proxy.artificial_conflicts",
	"proxy.eager_kills", "proxy.resyncs", "proxy.staleness_pulls",
	"proxy.seq_gap_timeouts", "proxy.cross_part_commits", "proxy.cross_part_aborts",
	"mvstore.row_reads", "mvstore.row_writes", "mvstore.write_conflicts",
	"mvstore.deadlocks", "mvstore.kills", "mvstore.superseded_commits",
	"certifier.requests", "certifier.commits", "certifier.aborts",
	"certifier.certify_back_ops", "transport.redials",
	"proc.gc_cycles",
}

// snapshot reads every cumulative counter the layers' public stats
// accessors expose, summed over replicas and over the leader of each
// certifier group, keyed by the metric (or raw ingredient) it feeds. A
// window is the difference of two snapshots.
func snapshot(e *env) map[string]float64 {
	c := make(map[string]float64)
	for i := 0; i < e.c.Replicas(); i++ {
		r := e.c.Replica(i)
		ps := r.Proxy().Stats()
		c["proxy.commits"] += float64(ps.Commits)
		c["proxy.cert_aborts"] += float64(ps.CertAborts)
		c["proxy.local_cert_aborts"] += float64(ps.LocalCertAborts)
		c["proxy.remote_applied"] += float64(ps.RemoteApplied)
		c["proxy.remote_chunks"] += float64(ps.RemoteChunks)
		c["proxy.artificial_conflicts"] += float64(ps.ArtificialConflicts)
		c["proxy.eager_kills"] += float64(ps.EagerKills)
		c["proxy.resyncs"] += float64(ps.Resyncs)
		c["proxy.staleness_pulls"] += float64(ps.StalenessPulls)
		c["proxy.cross_part_commits"] += float64(ps.CrossPartCommits)
		c["proxy.cross_part_aborts"] += float64(ps.CrossPartAborts)
		ss := r.Store().Stats()
		c["mvstore.row_reads"] += float64(ss.RowReads)
		c["mvstore.row_writes"] += float64(ss.RowWrites)
		c["mvstore.write_conflicts"] += float64(ss.WriteConflicts)
		c["mvstore.deadlocks"] += float64(ss.Deadlocks)
		c["mvstore.kills"] += float64(ss.Kills)
		c["mvstore.superseded_commits"] += float64(ss.SupersededCommits)
		ds := r.LogDisk().Stats()
		c["replica_log.fsyncs"] += float64(ds.Fsyncs)
		c["replica_log.records"] += float64(ds.RecordsSynced)
		c["replica_log.busy_ns"] += float64(ds.Busy)
	}
	for g := 0; g < e.c.Groups(); g++ {
		if l := e.c.GroupLeader(g); l != nil {
			s := l.Stats()
			c["certifier.requests"] += float64(s.Requests)
			c["certifier.commits"] += float64(s.Commits)
			c["certifier.aborts"] += float64(s.Aborts)
			c["certifier.pulls"] += float64(s.Pulls)
			c["certifier.remote_shipped"] += float64(s.RemoteShipped)
			c["certifier.certify_back_ops"] += float64(s.CertifyBackOps)
		}
	}
	w := e.c.WireStats()
	c["transport.calls"] = float64(w.Calls)
	c["transport.bytes"] = float64(w.BytesOut + w.BytesIn)
	c["transport.redials"] = float64(w.Redials)
	if e.gapTimeouts != nil {
		c["proxy.seq_gap_timeouts"] = float64(e.gapTimeouts.Load())
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c["proc.cpu_ns"] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c["proc.mallocs"] = float64(mem.Mallocs)
	c["proc.alloc_bytes"] = float64(mem.TotalAlloc)
	c["proc.gc_cycles"] = float64(mem.NumGC)
	c["proc.gc_pause_ns"] = float64(mem.PauseTotalNs)
	c["proc.heap_bytes"] = float64(mem.HeapAlloc)
	return c
}

// openWindow zeroes what the certifier leaders can only report since a
// reset: their log disks' statistics and their batch-size and admission-
// queue distributions.
func openWindow(e *env) {
	for g := 0; g < e.c.Groups(); g++ {
		if l := e.c.GroupLeader(g); l != nil {
			l.ResetActivityStats()
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics turns the snapshots at window open (a) and close (b) and
// the end-of-window distributions into the S metrics. updates and txns
// are the committed update and all committed transactions in the
// window: ratios named per_txn under a layer on the commit path divide
// by updates, proc.* by txns. A metric whose layer the workload
// bypasses reads 0.
func layerMetrics(m *metricSet, e *env, a, b map[string]float64, window time.Duration, updates, txns float64) {
	d := func(k string) float64 { return b[k] - a[k] }
	for _, name := range counted {
		m.add(name, d(name), "count")
	}
	m.add("proxy.ws_per_chunk", ratio(d("proxy.remote_applied"), d("proxy.remote_chunks")), "1")
	m.add("partition.cross_share", ratio(d("proxy.cross_part_commits"), updates), "1")
	m.add("mvstore.log_fsyncs_per_txn", ratio(d("replica_log.fsyncs"), updates), "1")
	m.add("mvstore.log_ws_per_fsync", ratio(d("replica_log.records"), d("replica_log.fsyncs")), "1")
	m.add("simdisk.replica_busy_share",
		ratio(d("replica_log.busy_ns"), float64(window)*float64(e.c.Replicas())), "1")
	m.add("certifier.pulls_per_txn", ratio(d("certifier.pulls"), updates), "1")
	m.add("certifier.remote_shipped_per_txn", ratio(d("certifier.remote_shipped"), updates), "1")
	m.add("transport.calls_per_txn", ratio(d("transport.calls"), updates), "1")
	m.add("transport.bytes_per_txn", ratio(d("transport.bytes"), updates), "bytes")
	m.add("proc.cpu_us_per_txn", ratio(d("proc.cpu_ns")/1e3, txns), "us")
	m.add("proc.allocs_per_txn", ratio(d("proc.mallocs"), txns), "1")
	m.add("proc.alloc_bytes_per_txn", ratio(d("proc.alloc_bytes"), txns), "bytes")
	m.add("proc.gc_pause_total_ms", d("proc.gc_pause_ns")/1e6, "ms")
	m.add("proc.heap_retained_bytes_per_txn", ratio(d("proc.heap_bytes"), txns), "bytes")

	// The applier's distributions have no reset: they cover the run
	// since boot, warm-up included.
	var par, lag []float64
	var high int64
	var lagVersions uint64
	for i := 0; i < e.c.Replicas(); i++ {
		as := e.c.Replica(i).Proxy().ApplyStats()
		if as.Parallelism.Count > 0 {
			par = append(par, as.Parallelism.Mean)
			lag = append(lag, ms(as.Lag.P50))
		}
		high = max(high, as.WindowHigh)
		lagVersions = max(lagVersions, as.LagVersions)
	}
	m.add("proxy.apply_parallelism_mean", mean(par), "1")
	m.add("proxy.apply_window_high", float64(high), "count")
	m.add("proxy.apply_lag_p50_ms", mean(lag), "ms")
	m.add("proxy.apply_lag_versions", float64(lagVersions), "count")

	var disk simdisk.Stats
	var batches, depths []metrics.DistSummary
	var waitP50, waitP99 time.Duration
	var shed, expired int64
	for g := 0; g < e.c.Groups(); g++ {
		l := e.c.GroupLeader(g)
		if l == nil {
			continue
		}
		ds := l.DiskStats()
		disk.Fsyncs += ds.Fsyncs
		disk.RecordsSynced += ds.RecordsSynced
		disk.Busy += ds.Busy
		batches = append(batches, l.BatchStats())
		q := l.QueueStats()
		depths = append(depths, q.Depth)
		waitP50, waitP99 = max(waitP50, q.Wait.P50), max(waitP99, q.Wait.P99)
		shed += q.Shed
		expired += q.Expired
	}
	batch, depth := metrics.MergeDist(batches...), metrics.MergeDist(depths...)
	m.add("simdisk.cert_busy_share", ratio(float64(disk.Busy), float64(window)*float64(e.c.Groups())), "1")
	m.add("simdisk.cert_fsyncs_per_txn", ratio(float64(disk.Fsyncs), updates), "1")
	m.add("certifier.batch_mean", batch.Mean, "1")
	m.add("certifier.batch_p99", float64(batch.P99), "count")
	m.add("certifier.ws_per_fsync", disk.GroupRatio(), "1")
	m.add("certifier.queue_wait_p50_us", us(waitP50), "us")
	m.add("certifier.queue_wait_p99_us", us(waitP99), "us")
	m.add("certifier.queue_depth_p99", float64(depth.P99), "count")
	m.add("certifier.shed", float64(shed), "count")
	m.add("certifier.expired", float64(expired), "count")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile returns the p-th percentile (nearest rank) of xs, sorting
// it in place; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*p/100+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }
