package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyBasics(t *testing.T) {
	l := NewLatency(100)
	for i := 1; i <= 10; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	if l.Count() != 10 {
		t.Errorf("Count = %d, want 10", l.Count())
	}
	if got, want := l.Mean(), 5500*time.Microsecond; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if l.Min() != time.Millisecond {
		t.Errorf("Min = %v", l.Min())
	}
	if l.Max() != 10*time.Millisecond {
		t.Errorf("Max = %v", l.Max())
	}
	if got := l.Percentile(50); got != 5*time.Millisecond {
		t.Errorf("P50 = %v, want 5ms", got)
	}
	if got := l.Percentile(100); got != 10*time.Millisecond {
		t.Errorf("P100 = %v, want 10ms", got)
	}
}

func TestLatencyEmpty(t *testing.T) {
	l := NewLatency(0)
	if l.Mean() != 0 || l.Percentile(99) != 0 || l.Count() != 0 {
		t.Error("empty recorder should report zeros")
	}
}

func TestLatencyPercentileClamps(t *testing.T) {
	l := NewLatency(10)
	l.Observe(time.Millisecond)
	if l.Percentile(-5) != time.Millisecond || l.Percentile(500) != time.Millisecond {
		t.Error("out-of-range percentile should clamp")
	}
}

func TestLatencyReservoirOverflowKeepsMeanExact(t *testing.T) {
	l := NewLatency(16)
	var sum time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		d := time.Duration(i%100) * time.Microsecond
		sum += d
		l.Observe(d)
	}
	if l.Count() != n {
		t.Errorf("Count = %d", l.Count())
	}
	if got, want := l.Mean(), sum/time.Duration(n); got != want {
		t.Errorf("Mean = %v, want exact %v despite reservoir sampling", got, want)
	}
	// Percentiles must stay within the observed range.
	if p := l.Percentile(95); p < 0 || p > 99*time.Microsecond {
		t.Errorf("P95 = %v outside observed range", p)
	}
}

func TestLatencyConcurrent(t *testing.T) {
	l := NewLatency(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if l.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", l.Count())
	}
}

func TestSummaryString(t *testing.T) {
	l := NewLatency(10)
	l.Observe(3 * time.Millisecond)
	s := l.Summarize()
	if s.Count != 1 || s.Mean != 3*time.Millisecond {
		t.Errorf("Summary = %+v", s)
	}
	if str := s.String(); !strings.Contains(str, "n=1") {
		t.Errorf("Summary.String() = %q", str)
	}
}

func TestDistributionBasics(t *testing.T) {
	var d Distribution
	for _, v := range []int64{1, 2, 3, 4, 40} {
		d.Observe(v)
	}
	d.Observe(0)  // ignored
	d.Observe(-5) // ignored
	if d.Count() != 5 || d.Sum() != 50 || d.Max() != 40 {
		t.Errorf("count=%d sum=%d max=%d", d.Count(), d.Sum(), d.Max())
	}
	if m := d.Mean(); m != 10 {
		t.Errorf("mean = %v, want 10", m)
	}
	// Bucketed percentiles are upper bounds at power-of-two granularity.
	if p := d.Percentile(50); p < 3 || p > 4 {
		t.Errorf("p50 = %d, want in [3,4]", p)
	}
	if p := d.Percentile(100); p != 40 {
		t.Errorf("p100 = %d, want clamped to max 40", p)
	}
	s := d.Summarize()
	if s.Count != 5 || s.Max != 40 || s.Mean != 10 {
		t.Errorf("summary = %+v", s)
	}
	if str := s.String(); !strings.Contains(str, "n=5") || !strings.Contains(str, "max=40") {
		t.Errorf("summary string = %q", str)
	}
	d.Reset()
	if d.Count() != 0 || d.Sum() != 0 || d.Max() != 0 || d.Percentile(50) != 0 {
		t.Error("reset did not zero the distribution")
	}
}

func TestDistributionSingleSample(t *testing.T) {
	var d Distribution
	d.Observe(1)
	if d.Percentile(50) != 1 || d.Percentile(99) != 1 || d.Max() != 1 {
		t.Errorf("single-sample percentiles: p50=%d p99=%d max=%d", d.Percentile(50), d.Percentile(99), d.Max())
	}
}

func TestDistributionConcurrent(t *testing.T) {
	var d Distribution
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 100; i++ {
				d.Observe(i)
			}
		}()
	}
	wg.Wait()
	if d.Count() != 800 {
		t.Errorf("count = %d, want 800", d.Count())
	}
	if d.Max() != 100 {
		t.Errorf("max = %d", d.Max())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 800 {
		t.Errorf("Counter = %d, want 800", c.Value())
	}
}

func TestInterval(t *testing.T) {
	var iv Interval
	if iv.Rate() != 0 || iv.Elapsed() != 0 {
		t.Error("zero interval should report 0")
	}
	iv.Start()
	iv.Record(50)
	time.Sleep(20 * time.Millisecond)
	iv.Record(50)
	iv.Stop()
	iv.Record(1000) // ignored after Stop
	if iv.Events() != 100 {
		t.Errorf("Events = %d, want 100", iv.Events())
	}
	if iv.Elapsed() < 20*time.Millisecond {
		t.Errorf("Elapsed = %v, want >= 20ms", iv.Elapsed())
	}
	r := iv.Rate()
	if r <= 0 || r > 100/0.02 {
		t.Errorf("Rate = %v out of plausible range", r)
	}
	// Restart clears.
	iv.Start()
	if iv.Events() != 0 {
		t.Error("Start did not clear events")
	}
	iv.Stop()
}

func TestMergeDist(t *testing.T) {
	var a, b Distribution
	for i := int64(1); i <= 10; i++ {
		a.Observe(i)
	}
	for i := int64(20); i <= 24; i++ {
		b.Observe(i)
	}
	m := MergeDist(a.Summarize(), b.Summarize())
	if m.Count != 15 {
		t.Errorf("Count = %d, want 15", m.Count)
	}
	if want := a.Sum() + b.Sum(); m.Sum != want {
		t.Errorf("Sum = %d, want %d", m.Sum, want)
	}
	if m.Max != 24 {
		t.Errorf("Max = %d, want 24", m.Max)
	}
	if want := float64(m.Sum) / 15; m.Mean != want {
		t.Errorf("Mean = %v, want %v", m.Mean, want)
	}
	// Percentiles are conservative: at least the per-group values.
	if m.P99 < b.Summarize().P99 {
		t.Errorf("P99 = %d below a merged part's P99 %d", m.P99, b.Summarize().P99)
	}
	if empty := MergeDist(); empty.Count != 0 || empty.Mean != 0 {
		t.Errorf("MergeDist() = %+v, want zero", empty)
	}
}
