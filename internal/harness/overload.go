package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/cluster"
	"tashkent/internal/metrics"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
	"tashkent/internal/workload"
)

// This file implements `tashbench -exp overload`: an open-loop load
// ladder that measures goodput past the saturation knee. A closed-loop
// benchmark can never overload the system — clients wait for their own
// responses — so this experiment first measures the closed-loop peak,
// then replays open-loop arrival streams at fractions and multiples of
// it. Without admission control, offered load past the knee makes
// queues (and latency) grow without bound and goodput collapses as
// clients give up on requests the server is still working on. With the
// certifier's admission budget, excess requests are shed at the door
// with an OVERLOADED retry-after hint, and goodput holds near the peak
// while shed requests fail in ~one admission budget instead of one
// client deadline.

// Overload experiment tuning. The admission budget is deliberately
// much smaller than the request deadline: shedding is only useful if
// it answers faster than the client would have given up.
const (
	ovlAdmitBudget = 50 * time.Millisecond
	ovlDeadline    = 150 * time.Millisecond
	ovlClients     = 32
	ovlMaxInFlight = 4096
)

// ovlFactors is the offered-load ladder, in multiples of the measured
// closed-loop peak. 2.0 is the acceptance point: goodput there must
// hold near the peak.
var ovlFactors = []float64{0.5, 1.0, 1.5, 2.0}

// OverloadPoint is one offered-load level's outcome.
type OverloadPoint struct {
	Factor        float64 // offered load as a multiple of the closed-loop peak
	Offered       int     // requests issued
	Rate          float64 // offered req/s
	Acked         int
	Shed          int           // server shed at admission (ErrOverloaded)
	RetryAfterMin time.Duration // shortest retry-after hint a shed carried
	Expired       int           // request deadline exceeded
	Aborted       int           // certification conflicts
	Errors        int           // everything else (including generator backpressure drops)
	Goodput       float64       // acked commits/s
	P50, P99      time.Duration
	QueueShed     int64
	QueueExpired  int64
	QueueWaitP99  time.Duration
	QueueDepthP99 int64
}

// OverloadResult is the whole ladder.
type OverloadResult struct {
	Peak        float64 // closed-loop peak, txn/s
	AdmitBudget time.Duration
	Deadline    time.Duration
	Points      []OverloadPoint
}

// GoodputAt returns the measured goodput at the given factor (0 if the
// ladder did not include it).
func (r OverloadResult) GoodputAt(factor float64) float64 {
	for _, p := range r.Points {
		if p.Factor == factor {
			return p.Goodput
		}
	}
	return 0
}

// RunOverloadExperiment measures the closed-loop peak and then drives
// the open-loop ladder. Window durations derive from o.Measure (split
// across the ladder) so `-measure` scales the experiment.
func RunOverloadExperiment(o Options) (OverloadResult, error) {
	o = o.withDefaults()
	res := OverloadResult{AdmitBudget: ovlAdmitBudget, Deadline: ovlDeadline}
	window := o.Measure / 2
	if window < 400*time.Millisecond {
		window = 400 * time.Millisecond
	}

	c, err := cluster.New(cluster.Config{
		Mode:       proxy.TashkentAPI,
		Replicas:   1,
		Certifiers: 3,
		// The fsync cost pins the saturation point in simulated I/O
		// (~8/5ms = 1600 certifications/s) rather than raw CPU: an
		// in-process load generator competes with the server for
		// cores, and a CPU-bound peak would make the high end of the
		// ladder measure generator steal instead of queueing.
		IOProfile: simdisk.Profile{
			FsyncLatency: 5 * time.Millisecond,
			FsyncJitter:  time.Millisecond,
		},
		CertMaxBatch: 8,
		// A full queue must drain comfortably inside the admission
		// budget (32 slots / ~950 certifications/s ≈ 34ms < 50ms), or
		// every admitted request out-waits the budget and is shed at
		// stage 2 after wasting its slot. The depth also covers the
		// closed-loop client count so the peak phase never queues at
		// the door.
		CertAdmitTimeout: ovlAdmitBudget,
		CertQueueDepth:   32,
		Seed:             o.Seed,
	})
	if err != nil {
		return res, err
	}
	defer c.Close()

	fmt.Fprintf(o.Out, "\n=== overload: open-loop goodput vs offered load (admit budget %v, request deadline %v) ===\n",
		ovlAdmitBudget, ovlDeadline)

	res.Peak = closedLoopPeak(c, window)
	fmt.Fprintf(o.Out, "closed-loop peak: %.0f txn/s (%d clients)\n", res.Peak, ovlClients)
	if res.Peak <= 0 {
		return res, fmt.Errorf("overload: closed-loop peak measured zero")
	}

	fmt.Fprintf(o.Out, "factor\toffered/s\tacked\tshed\texpired\taborted\terrs\tgoodput/s\tvs peak\tp50\tp99\tqwait p99\tqdepth p99\n")
	for _, f := range ovlFactors {
		pt := openLoopPoint(c, f, res.Peak*f, window)
		res.Points = append(res.Points, pt)
		fmt.Fprintf(o.Out, "%.1fx\t%.0f\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.0f%%\t%s\t%s\t%s\t%d\n",
			pt.Factor, pt.Rate, pt.Acked, pt.Shed, pt.Expired, pt.Aborted, pt.Errors,
			pt.Goodput, 100*pt.Goodput/res.Peak,
			pt.P50.Round(100*time.Microsecond), pt.P99.Round(100*time.Microsecond),
			pt.QueueWaitP99.Round(100*time.Microsecond), pt.QueueDepthP99)
	}
	return res, nil
}

// closedLoopPeak saturates the system with ovlClients closed-loop
// workers and measures committed throughput — the reference the
// open-loop ladder is scaled against.
func closedLoopPeak(c *cluster.Cluster, window time.Duration) float64 {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var commits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < ovlClients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("c%03d", w)
			n := 0
			for ctx.Err() == nil {
				n++
				tx, err := c.Begin(0)
				if err != nil {
					continue
				}
				if err := tx.Update(grayTable, key, map[string][]byte{grayCol: []byte(fmt.Sprintf("%d", n))}); err != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() == nil {
					commits.Add(1)
				}
			}
		}()
	}
	time.Sleep(150 * time.Millisecond) // warm
	before := commits.Load()
	time.Sleep(window)
	measured := commits.Load() - before
	cancel()
	wg.Wait()
	return float64(measured) / window.Seconds()
}

// openLoopPoint offers rate req/s for the window regardless of
// responses — the arrival process of clients that do not wait for each
// other — and classifies every outcome.
func openLoopPoint(c *cluster.Cluster, factor, rate float64, window time.Duration) OverloadPoint {
	pt := OverloadPoint{Factor: factor, Rate: rate}
	leader := c.GroupLeader(0)
	if leader != nil {
		leader.ResetActivityStats()
	}

	lat := metrics.NewLatency(0)
	hints := metrics.NewLatency(0)
	var acked, shed, expired, aborted, errs atomic.Int64
	sem := make(chan struct{}, ovlMaxInFlight)
	var wg sync.WaitGroup
	const step = 2 * time.Millisecond
	carry := 0.0
	id := 0
	start := time.Now()
	end := start.Add(window)
	last := start
	for now := time.Now(); now.Before(end); now = time.Now() {
		// Pace off wall-clock elapsed, not nominal step count: on a
		// loaded box Sleep overshoots, and an open-loop generator that
		// silently under-offers would fake a good knee.
		carry += rate * now.Sub(last).Seconds()
		last = now
		n := int(carry)
		carry -= float64(n)
		for i := 0; i < n; i++ {
			pt.Offered++
			id++
			select {
			case sem <- struct{}{}:
			default:
				// Generator backpressure: the in-flight cap is sized so
				// this only fires if the server stops answering at all.
				errs.Add(1)
				continue
			}
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				defer func() { <-sem }()
				rctx, rcancel := context.WithTimeout(context.Background(), ovlDeadline)
				defer rcancel()
				t0 := time.Now()
				tx, err := c.Begin(0)
				if err != nil {
					errs.Add(1)
					return
				}
				// Unique key per request: the ladder measures overload
				// behaviour, and first-committer-wins aborts from a hot
				// key set would burn server capacity on work that is
				// neither goodput nor shedding.
				key := fmt.Sprintf("o%06d", id)
				if err := tx.Update(grayTable, key, map[string][]byte{grayCol: []byte("x")}); err != nil {
					tx.Abort()
					errs.Add(1)
					return
				}
				err = tx.CommitCtx(rctx)
				el := time.Since(t0)
				switch {
				case err == nil:
					acked.Add(1)
					lat.Observe(el)
				case errors.Is(err, certifier.ErrOverloaded):
					shed.Add(1)
					if ra, ok := certifier.RetryAfter(err); ok {
						hints.Observe(ra)
					}
				case workload.IsAbort(err):
					aborted.Add(1)
				case rctx.Err() != nil:
					expired.Add(1)
				default:
					errs.Add(1)
				}
			}(id)
		}
		time.Sleep(step)
	}
	wg.Wait()

	pt.Acked = int(acked.Load())
	pt.Shed = int(shed.Load())
	pt.RetryAfterMin = hints.Summarize().Min
	pt.Expired = int(expired.Load())
	pt.Aborted = int(aborted.Load())
	pt.Errors = int(errs.Load())
	pt.Goodput = float64(pt.Acked) / window.Seconds()
	s := lat.Summarize()
	pt.P50, pt.P99 = s.P50, s.P99
	if leader != nil {
		qs := leader.QueueStats()
		pt.QueueShed = qs.Shed
		pt.QueueExpired = qs.Expired
		pt.QueueWaitP99 = qs.Wait.P99
		pt.QueueDepthP99 = qs.Depth.P99
	}
	return pt
}
