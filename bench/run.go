package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tashkent/internal/transport"
)

// runOpts shapes one run of one workload.
type runOpts struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	// setups is how many times the system is booted, populated and
	// converged; all but the last are torn down again, and setup_s is the
	// median.
	setups int
	// trace splits the window into four alternating untraced and traced
	// quarters on one system: the traced quarters yield the client spans
	// and the RPC spans, the untraced ones the reference goodput for the
	// tracing overhead.
	trace    bool
	traceOut string
	// probeRounds is the number of rounds per layer probe in a traced
	// run, which reports the probes' metrics too.
	probeRounds int
}

// result is what one run reports.
type result struct {
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	// e2e holds the end-to-end metrics, layer every per-layer metric the
	// run produced.
	e2e, layer metricSet
}

// runWorkload sets the system up, drives it through warm-up and the
// measured window, drains it and checks it.
func runWorkload(s spec, o runOpts) (*result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := &result{}

	var e *env
	var boots, pops, convs, totals []float64
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.close()
		}
		var t setupTimes
		var err error
		if e, t, err = setUp(ctx, s); err != nil {
			return nil, err
		}
		boots, pops = append(boots, ms(t.boot)), append(pops, ms(t.populate))
		convs, totals = append(convs, ms(t.converge)), append(totals, t.total().Seconds())
	}
	defer e.close()
	res.e2e.add("setup_s", median(totals), "s")
	res.layer.add("cluster.boot_ms", median(boots), "ms")
	res.layer.add("workload.populate_ms", median(pops), "ms")
	res.layer.add("cluster.converge_setup_ms", median(convs), "ms")

	d := &driver{s: s, e: e, gen: s.gen(), epoch: time.Now(), ctx: ctx}
	d.start(o.seed)
	time.Sleep(o.warmup)

	// The measured window, cut into quarters. Samples belong to a quarter
	// by the instant of their ack; counters to the window by the two
	// snapshots that bracket it. A traced run traces the second and fourth
	// quarter.
	tracer := &rpcTracer{epoch: d.epoch}
	const n = 4
	var traced [n]bool
	for i := range traced {
		traced[i] = o.trace && i%2 == 1
	}
	setTracing := func(on bool) {
		d.tracing.Store(on)
		if fab := e.c.Fabric(); fab != nil {
			var ip transport.Interposer
			if on {
				ip = tracer
			}
			fab.SetInterposer(ip)
		}
	}
	openWindow(e)
	before := snapshot(e)
	edges := []int64{d.now()}
	for i, on := range traced {
		setTracing(on)
		time.Sleep(time.Duration(edges[0] + int64(o.window)*int64(i+1)/int64(n) - d.now()))
		edges = append(edges, d.now())
	}
	setTracing(false)
	after := snapshot(e)
	winStart, winEnd := edges[0], edges[n]
	window := time.Duration(winEnd - winStart)

	d.halt()
	t0 := time.Now()
	if err := e.c.ConvergeAll(30 * time.Second); err != nil {
		res.problems = append(res.problems, "converge after the window: "+err.Error())
	}
	res.layer.add("cluster.converge_ms", ms(time.Since(t0)), "ms")
	res.problems = append(res.problems, check(e, d)...)

	// Fold the samples: commits per quarter, response times per kind.
	var updRT, readRT []float64
	var aborted float64
	var tracedSamples []sample
	var commits [n]float64
	for _, c := range d.clients {
		for _, sm := range c.samples {
			if sm.done < winStart || sm.done >= winEnd {
				continue
			}
			res.attempted++
			if sm.traced {
				tracedSamples = append(tracedSamples, sm)
			}
			switch sm.outcome {
			case outAborted:
				aborted++
			case outFailed:
				res.failed++
			case outCommitted:
				rt := float64(sm.done - sm.start)
				if sm.kind == kindUpdate {
					updRT = append(updRT, rt)
				} else {
					readRT = append(readRT, rt)
				}
				commits[sort.Search(n, func(i int) bool { return sm.done < edges[i+1] })]++
			}
		}
	}
	var lateInWindow []float64
	for i, due := range d.genDue {
		if due >= winStart && due < winEnd {
			lateInWindow = append(lateInWindow, float64(d.genLate[i]))
		}
	}
	for _, due := range d.dropped {
		if due >= winStart && due < winEnd {
			res.attempted++
			res.failed++
		}
	}
	var txns, onCommits, offCommits, onTime, offTime float64
	for i, k := range commits {
		secs := float64(edges[i+1]-edges[i]) / 1e9
		txns += k
		if traced[i] {
			onCommits, onTime = onCommits+k, onTime+secs
		} else {
			offCommits, offTime = offCommits+k, offTime+secs
		}
	}
	updates, secs := float64(len(updRT)), window.Seconds()

	res.e2e.add("goodput_tps", txns/secs, "1/s")
	res.e2e.add("update_rt_p50_ms", percentile(updRT, 50)/1e6, "ms")

	res.layer.add("client.update_tps", updates/secs, "1/s")
	res.layer.add("client.read_tps", float64(len(readRT))/secs, "1/s")
	res.layer.add("client.update_rt_p99_ms", percentile(updRT, 99)/1e6, "ms")
	res.layer.add("client.read_rt_p50_ms", percentile(readRT, 50)/1e6, "ms")
	res.layer.add("client.read_rt_p99_ms", percentile(readRT, 99)/1e6, "ms")
	res.layer.add("client.abort_share", ratio(aborted, aborted+txns), "1")
	res.layer.add("client.gen_late_p99_ms", percentile(lateInWindow, 99)/1e6, "ms")
	res.layer.add("client.inflight_max", float64(d.inflightMax), "count")
	layerMetrics(&res.layer, e, before, after, window, updates, txns)

	if o.trace {
		spanMetrics(&res.layer, tracedSamples)
		var tracedUpdates float64
		for _, sm := range tracedSamples {
			if sm.kind == kindUpdate && sm.outcome == outCommitted {
				tracedUpdates++
			}
		}
		rpcMetrics(&res.layer, tracer.spans, tracedUpdates)
		res.layer.add("proc.trace_overhead_pct", 100*(1-ratio(onCommits/onTime, offCommits/offTime)), "%")
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, d.epoch, tracedSamples, tracer.spans); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	if txns == 0 {
		res.problems = append(res.problems, "no transaction committed inside the window")
	}
	res.correct = len(res.problems) == 0
	return res, nil
}

// spanMetrics emits the C metrics: the medians of the three child spans
// of committed transactions, updates and reads apart.
func spanMetrics(m *metricSet, samples []sample) {
	var begin, exec, commit, rbegin, rexec []float64
	for _, sm := range samples {
		if sm.outcome != outCommitted {
			continue
		}
		if sm.kind == kindUpdate {
			begin = append(begin, float64(sm.begun-sm.start))
			exec = append(exec, float64(sm.execd-sm.begun))
			commit = append(commit, float64(sm.done-sm.execd))
		} else {
			rbegin = append(rbegin, float64(sm.begun-sm.start))
			rexec = append(rexec, float64(sm.execd-sm.begun))
		}
	}
	m.add("client.begin_p50_us", percentile(begin, 50)/1e3, "us")
	m.add("client.exec_p50_us", percentile(exec, 50)/1e3, "us")
	m.add("client.commit_p50_ms", percentile(commit, 50)/1e6, "ms")
	m.add("client.read_begin_p50_us", percentile(rbegin, 50)/1e3, "us")
	m.add("client.read_exec_p50_us", percentile(rexec, 50)/1e3, "us")
}

// check verifies the quiesced system: every replica holds the same
// state, and the last row each client had acknowledged is readable on
// every replica. Where several clients last wrote the same row, the
// latest ack is the one that must be visible.
func check(e *env, d *driver) []string {
	var problems []string
	fps := e.c.Fingerprints()
	for i, fp := range fps {
		if fp != fps[0] {
			problems = append(problems, fmt.Sprintf("replica %d fingerprint %08x differs from replica 0's %08x", i, fp, fps[0]))
		}
	}
	latest := make(map[string]write)
	for _, c := range d.clients {
		k := c.acked.table + "/" + c.acked.key
		if c.acked.key != "" && c.acked.acked >= latest[k].acked {
			latest[k] = c.acked
		}
	}
	for i := 0; i < e.c.Replicas(); i++ {
		tx, err := e.c.Begin(i)
		if err != nil {
			problems = append(problems, fmt.Sprintf("replica %d: begin: %v", i, err))
			continue
		}
		for k, w := range latest {
			row, found, err := tx.Read(w.table, w.key)
			if err != nil || !found || !rowHas(row, w.cols) {
				problems = append(problems, fmt.Sprintf("replica %d: acked write %s not readable (found=%v err=%v)", i, k, found, err))
			}
		}
		tx.Abort()
	}
	if len(latest) == 0 {
		problems = append(problems, "no client had a write acknowledged")
	}
	return problems
}
