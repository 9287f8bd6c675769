// Package metrics provides the lightweight measurement primitives used
// by the experiment harness: latency histograms, throughput counters
// and time-windowed rates. All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Latency accumulates response-time samples and reports summary
// statistics. It keeps an exact reservoir up to a cap, then switches to
// uniform reservoir sampling so percentile estimates stay unbiased on
// long runs.
type Latency struct {
	mu       sync.Mutex
	count    int64
	sum      time.Duration
	min      time.Duration
	max      time.Duration
	samples  []time.Duration
	seen     int64 // samples offered to the reservoir
	capN     int
	rngState uint64
}

// NewLatency returns a recorder with the given reservoir capacity
// (<=0 selects a default of 8192 samples).
func NewLatency(capN int) *Latency {
	if capN <= 0 {
		capN = 8192
	}
	return &Latency{capN: capN, rngState: 0x9E3779B97F4A7C15}
}

// Observe records one sample.
func (l *Latency) Observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	l.sum += d
	if l.count == 1 || d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.seen++
	if len(l.samples) < l.capN {
		l.samples = append(l.samples, d)
		return
	}
	// Vitter's algorithm R.
	if idx := l.nextRand() % uint64(l.seen); idx < uint64(l.capN) {
		l.samples[idx] = d
	}
}

// nextRand is a splitmix64 step; private PRNG avoids contending the
// global rand lock on hot paths.
func (l *Latency) nextRand() uint64 {
	l.rngState += 0x9E3779B97F4A7C15
	z := l.rngState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Reset clears the recorder for a fresh measurement interval, keeping
// the reservoir capacity.
func (l *Latency) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count, l.sum, l.min, l.max, l.seen = 0, 0, 0, 0, 0
	l.samples = l.samples[:0]
}

// Count returns the number of samples observed.
func (l *Latency) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Mean returns the exact mean of all observed samples.
func (l *Latency) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Min and Max return the exact extremes.
func (l *Latency) Min() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.min
}

// Max returns the largest observed sample.
func (l *Latency) Max() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

// Percentile returns the p-th percentile (0 < p <= 100) estimated from
// the reservoir.
func (l *Latency) Percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	if p <= 0 {
		p = 0.001
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]time.Duration, len(l.samples))
	copy(sorted, l.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Summary is a point-in-time digest of a Latency recorder.
type Summary struct {
	Count          int64
	Mean, Min, Max time.Duration
	P50, P95, P99  time.Duration
}

// Summarize returns the digest.
func (l *Latency) Summarize() Summary {
	return Summary{
		Count: l.Count(),
		Mean:  l.Mean(),
		Min:   l.Min(),
		Max:   l.Max(),
		P50:   l.Percentile(50),
		P95:   l.Percentile(95),
		P99:   l.Percentile(99),
	}
}

// String renders the summary compactly for harness output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, round(s.Mean), round(s.P50), round(s.P95), round(s.P99), round(s.Max))
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

// Distribution accumulates small positive integer samples — batch
// sizes, group sizes, queue depths — into power-of-two buckets plus
// exact count/sum/max, cheap enough for hot paths. The zero value is
// ready to use.
type Distribution struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	max     int64
	buckets [distBuckets]int64 // bucket i counts samples in (2^(i-1), 2^i]
}

// distBuckets covers samples up to 2^31; anything larger clamps into
// the last bucket.
const distBuckets = 32

// bucketFor returns the bucket index for sample v >= 1: bucket 0 holds
// 1, bucket 1 holds 2, bucket 2 holds 3-4, bucket 3 holds 5-8, ...
func bucketFor(v int64) int {
	b := 0
	for hi := int64(1); hi < v && b < distBuckets-1; hi <<= 1 {
		b++
	}
	return b
}

// Observe records one sample. Non-positive samples are ignored.
func (d *Distribution) Observe(v int64) {
	if v <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count++
	d.sum += v
	if v > d.max {
		d.max = v
	}
	d.buckets[bucketFor(v)]++
}

// Reset zeroes the distribution.
func (d *Distribution) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count, d.sum, d.max = 0, 0, 0
	d.buckets = [distBuckets]int64{}
}

// Count returns the number of samples observed.
func (d *Distribution) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Sum returns the sum of all samples.
func (d *Distribution) Sum() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sum
}

// Max returns the largest sample observed.
func (d *Distribution) Max() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.max
}

// Mean returns the exact mean of all samples (0 with no samples).
func (d *Distribution) Mean() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// Percentile returns an upper bound on the p-th percentile (0 < p <=
// 100), resolved to bucket granularity: the upper edge of the bucket
// containing that rank.
func (d *Distribution) Percentile(p float64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.percentileLocked(p)
}

func (d *Distribution) percentileLocked(p float64) int64 {
	if d.count == 0 {
		return 0
	}
	if p <= 0 {
		p = 0.001
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(d.count)))
	var seen int64
	for i, c := range d.buckets {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 1
			}
			hi := int64(1) << uint(i)
			if hi > d.max {
				hi = d.max
			}
			return hi
		}
	}
	return d.max
}

// DistSummary is a point-in-time digest of a Distribution.
type DistSummary struct {
	Count, Sum, Max int64
	Mean            float64
	P50, P99        int64
}

// Summarize returns the digest, snapshotted atomically with respect to
// concurrent Observe calls.
func (d *Distribution) Summarize() DistSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DistSummary{
		Count: d.count,
		Sum:   d.sum,
		Max:   d.max,
		P50:   d.percentileLocked(50),
		P99:   d.percentileLocked(99),
	}
	if d.count > 0 {
		s.Mean = float64(d.sum) / float64(d.count)
	}
	return s
}

// String renders the digest compactly.
func (s DistSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
		s.Count, s.Mean, s.P50, s.P99, s.Max)
}

// MergeDist combines per-group digests of one statistic — e.g. the
// certification pipeline batch sizes of a partitioned deployment's
// certifier groups — into a single roll-up. Count, Sum and Max merge
// exactly and Mean is recomputed from the merged totals; P50/P99 are
// conservative upper bounds (the largest per-group value at that
// rank), since a digest no longer carries bucket detail.
func MergeDist(parts ...DistSummary) DistSummary {
	var out DistSummary
	for _, p := range parts {
		out.Count += p.Count
		out.Sum += p.Sum
		if p.Max > out.Max {
			out.Max = p.Max
		}
		if p.P50 > out.P50 {
			out.P50 = p.P50
		}
		if p.P99 > out.P99 {
			out.P99 = p.P99
		}
	}
	if out.Count > 0 {
		out.Mean = float64(out.Sum) / float64(out.Count)
	}
	return out
}

// Gauge tracks an instantaneous level — e.g. apply workers currently
// installing — with a high-watermark. The zero value is ready to use.
type Gauge struct {
	mu  sync.Mutex
	cur int64
	max int64
}

// Inc raises the level by one and returns the new value.
func (g *Gauge) Inc() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur++
	if g.cur > g.max {
		g.max = g.cur
	}
	return g.cur
}

// Dec lowers the level by one.
func (g *Gauge) Dec() {
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// High returns the high-watermark.
func (g *Gauge) High() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Reset zeroes the gauge and its high-watermark.
func (g *Gauge) Reset() {
	g.mu.Lock()
	g.cur, g.max = 0, 0
	g.mu.Unlock()
}

// Counter is a concurrent event counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Interval measures throughput over an explicit window: call Start,
// run the workload, call Stop, then read Rate.
type Interval struct {
	mu      sync.Mutex
	events  int64
	started time.Time
	stopped time.Time
	running bool
}

// Start begins (or restarts) the measurement window and zeroes the
// event count.
func (iv *Interval) Start() {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	iv.events = 0
	iv.started = time.Now()
	iv.running = true
}

// Record counts n completed events if the window is open.
func (iv *Interval) Record(n int64) {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	if iv.running {
		iv.events += n
	}
}

// Stop closes the window.
func (iv *Interval) Stop() {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	if iv.running {
		iv.stopped = time.Now()
		iv.running = false
	}
}

// Events returns the number of events recorded in the window.
func (iv *Interval) Events() int64 {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	return iv.events
}

// Elapsed returns the window length (to now if still open).
func (iv *Interval) Elapsed() time.Duration {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	if iv.started.IsZero() {
		return 0
	}
	end := iv.stopped
	if iv.running {
		end = time.Now()
	}
	return end.Sub(iv.started)
}

// Rate returns events per second over the window.
func (iv *Interval) Rate() float64 {
	e := iv.Elapsed()
	if e <= 0 {
		return 0
	}
	return float64(iv.Events()) / e.Seconds()
}
