// Command bench is the repository's one repeatable benchmark: four
// disk-bound workloads over in-process clusters, four end-to-end
// metrics, per-layer counters read through each layer's public stats
// accessors, isolated layer probes, and a driver-side trace. See
// README.md in this directory.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	bench -workload <name> -repeat <n>    calibration table
//	bench -probes                          layer probes only
//
// The last line of standard output of a workload run is one JSON object
// {"correct", "attempted", "failed", "metrics"}; with -trace 0 the
// metrics are the end-to-end ones, with -trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// watchdogAfter bounds one workload run, set-ups and check included: a
// hung run dumps its goroutines and exits instead of stalling whatever
// drives it.
const watchdogAfter = 90 * time.Second

// Fixed shape of every run the command makes; only the smoke test, which
// asserts no timing, shortens them.
const (
	// warmup is how long the workload's load runs before the window opens.
	warmup = 3 * time.Second
	// setups is how many times an untraced run sets the system up;
	// setup_s is their median.
	setups = 3
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: au_mw_closed, au_api_tcp_open, tpcb_part_closed or tpcw_base_mix")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = untraced run reporting the end-to-end metrics")
		traceOut     = flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON")
		repeat       = flag.Int("repeat", 0, "run the workload this many times on consecutive seeds and print the calibration table")
		probes       = flag.Bool("probes", false, "run only the layer probes")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	printHost()

	if *probes {
		var m metricSet
		if err := runProbes(&m, *seed, probeRounds); err != nil {
			fatal(err)
		}
		printMetrics(m.list)
		return
	}
	s, err := specByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	o := runOpts{
		seed:        *seed,
		window:      time.Duration(*seconds * float64(time.Second)),
		warmup:      warmup,
		setups:      setups,
		trace:       *trace != 0,
		traceOut:    *traceOut,
		probeRounds: probeRounds,
	}
	if *repeat > 0 {
		if !calibrate(s, o, *repeat) {
			os.Exit(1)
		}
		return
	}
	res, err := runGuarded(s, o)
	if err != nil {
		fatal(err)
	}
	printMetrics(res.e2e.list)
	printMetrics(res.layer.list)
	for _, p := range res.problems {
		fmt.Println("# check failed:", p)
	}
	reported := res.e2e.list
	if o.trace {
		reported = res.layer.list
	}
	fmt.Println(resultJSON(res, reported))
	if !res.correct {
		os.Exit(1)
	}
}

// runGuarded is one workload run under the watchdog; a traced run also
// runs the probes, because it reports every per-layer metric.
func runGuarded(s spec, o runOpts) (*result, error) {
	dog := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintf(os.Stderr, "bench: workload %s still running after %v; goroutines:\n", s.name, watchdogAfter)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer dog.Stop()
	if o.trace {
		o.setups = 1
	}
	res, err := runWorkload(s, o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := runProbes(&res.layer, o.seed, o.probeRounds); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printHost states where the numbers were taken.
func printHost() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func printMetrics(list []metric) {
	for _, m := range list {
		fmt.Printf("%-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

func resultJSON(res *result, list []metric) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]value)}
	for _, m := range list {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err) // a NaN or Inf metric: a bug in the benchmark
	}
	return string(b)
}
