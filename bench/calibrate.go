package main

import (
	"fmt"
	"sort"
)

// endToEnd lists the end-to-end metrics with the bounds BENCHMARK.json
// gives them: the share of the parent's median by which a metric may
// worsen before a change counts as a regression.
var endToEnd = []struct {
	name  string
	bound float64
}{
	{"setup_s", 0.10},
	{"goodput_tps", 0.10},
	{"update_rt_p50_ms", 0.10},
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver that accepts the benchmark computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// calibrate runs the workload n times on consecutive seeds and prints,
// per end-to-end metric, min, median and max, then the largest pairwise
// deviation (max − min) and the interquartile spread as shares of the
// median, beside the metric's bound. It reports whether every run was
// correct and every metric's largest pairwise deviation stayed inside
// its bound.
func calibrate(s spec, o runOpts, n int) bool {
	values := make(map[string][]float64)
	ok := true
	base := o.seed
	for i := 0; i < n; i++ {
		o.seed = base + int64(i)
		res, err := runGuarded(s, o)
		if err != nil {
			fmt.Printf("# run %d: %v\n", i, err)
			return false
		}
		if !res.correct || res.failed > 0 {
			fmt.Printf("# run %d: correct=%v failed=%d %v\n", i, res.correct, res.failed, res.problems)
			ok = false
		}
		fmt.Printf("# run %d seed %d:", i, o.seed)
		for _, e := range endToEnd {
			v, _ := res.e2e.get(e.name)
			values[e.name] = append(values[e.name], v)
			fmt.Printf(" %s=%.6g", e.name, v)
		}
		fmt.Println()
	}
	fmt.Printf("%-18s %12s %12s %12s %10s %10s %7s\n", s.name, "min", "median", "max", "maxdev/med", "iqr/med", "bound")
	for _, e := range endToEnd {
		xs := values[e.name]
		med := median(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		dev, iqr := ratio(hi-lo, med), 0.0
		if n >= 2 {
			q1, q3 := quartiles(xs)
			iqr = ratio(q3-q1, med)
		}
		verdict := ""
		if dev > e.bound {
			verdict = "  DEVIATION EXCEEDS BOUND"
			ok = false
		}
		fmt.Printf("%-18s %12.6g %12.6g %12.6g %9.2f%% %9.2f%% %6.0f%%%s\n",
			e.name, lo, med, hi, 100*dev, 100*iqr, 100*e.bound, verdict)
	}
	return ok
}
