// Command tashbench regenerates the tables and figures of the
// Tashkent paper's evaluation (§9) and replays the chaos and gray
// drills by seed. Each figure experiment sweeps replica counts for the
// systems under comparison and prints throughput and response-time
// series. The repository's performance record is bench/ (see
// BENCHMARK.json), not this command.
//
// Usage:
//
//	tashbench -exp fig4            # AllUpdates throughput/RT, shared IO
//	tashbench -exp all -scale 5    # everything, at 1/5 of paper latencies
//	tashbench -exp fig14 -replicas 1,4,8,15
//	tashbench -exp batching -replicas 1,4,8,15 -maxbatch 256
//	tashbench -exp chaos -seed 1 -seeds 20
//	tashbench -exp gray -seed 1 -seeds 10
//	tashbench -exp overload -measure 3s
//	tashbench -exp smoke -daemons localhost:7200,localhost:7201,localhost:7202
//
// Experiments: fig4 (covers Fig 4+5), fig6 (6+7), fig8 (8+9),
// fig10 (10+11), fig12 (12+13), fig14, standalone (§9.2 text),
// recovery (§9.6), batching (update-heavy writesets-per-fsync /
// pipeline batch-size sweep — the paper's headline figure), smoke
// (drives an externally launched tashd/certd cluster given by
// -daemons: commits across every daemon, pulls to convergence, asserts
// identical fingerprints), chaos (seeded deterministic fault injection
// — partitions, drops, duplicates, reorders, replica and certifier
// crash-restarts — with a machine-checked safety-invariant verdict per
// seed; -seed selects the first seed, -seeds how many consecutive
// seeds to run, and a failing run replays exactly from its printed
// seed), gray (seeded gray-failure drills: slow/lossy victim links and
// slow-disk episodes through the same invariant checker, plus the
// router ejection and read-only degradation drills), overload
// (open-loop goodput-vs-offered-load ladder past the saturation knee,
// exercising the certifier's admission control; -measure scales the
// windows), all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tashkent/internal/harness"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig4|fig6|fig8|fig10|fig12|fig14|standalone|recovery|batching|smoke|chaos|gray|overload|all")
		scale      = flag.Int("scale", 10, "divide paper disk latencies by this factor (1 = full 8ms fsyncs)")
		replicas   = flag.String("replicas", "1,2,4,8,12,15", "comma-separated replica counts to sweep")
		clients    = flag.Int("clients", 10, "closed-loop clients per replica")
		measure    = flag.Duration("measure", 1500*time.Millisecond, "measurement window per point")
		warmup     = flag.Duration("warmup", 300*time.Millisecond, "warmup per point")
		seed       = flag.Int64("seed", 1, "random seed")
		maxBatch   = flag.Int("maxbatch", 0, "certifier pipeline batch cap (0 = certifier default)")
		chaosSeeds = flag.Int("seeds", 20, "number of consecutive seeds for -exp chaos/gray (starting at -seed)")
		daemons    = flag.String("daemons", "",
			"comma-separated tashd addresses for -exp smoke (externally launched cluster)")
	)
	flag.Parse()

	counts, err := parseCounts(*replicas)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := harness.Options{
		Scale:             *scale,
		ReplicaCounts:     counts,
		ClientsPerReplica: *clients,
		Warmup:            *warmup,
		Measure:           *measure,
		Seed:              *seed,
		CertMaxBatch:      *maxBatch,
		Out:               os.Stdout,
	}

	runs := map[string]func() error{
		"fig4":  func() error { _, err := harness.Fig4and5(opt); return err },
		"fig6":  func() error { _, err := harness.Fig6and7(opt); return err },
		"fig8":  func() error { _, err := harness.Fig8and9(opt); return err },
		"fig10": func() error { _, err := harness.Fig10and11(opt); return err },
		"fig12": func() error { _, err := harness.Fig12and13(opt); return err },
		"fig14": func() error { _, err := harness.Fig14(opt); return err },
		"standalone": func() error {
			if _, err := harness.RunStandaloneComparison(false, opt); err != nil {
				return err
			}
			_, err := harness.RunStandaloneComparison(true, opt)
			return err
		},
		"recovery": func() error { _, err := harness.RunRecoveryExperiment(opt); return err },
		"batching": func() error { _, err := harness.RunBatchingExperiment(opt); return err },
		"chaos": func() error {
			if *chaosSeeds < 1 {
				*chaosSeeds = 1
			}
			seeds := make([]int64, *chaosSeeds)
			for i := range seeds {
				seeds[i] = *seed + int64(i)
			}
			_, err := harness.RunChaosExperiment(seeds, opt)
			return err
		},
		"gray": func() error {
			if *chaosSeeds < 1 {
				*chaosSeeds = 1
			}
			seeds := make([]int64, *chaosSeeds)
			for i := range seeds {
				seeds[i] = *seed + int64(i)
			}
			if _, err := harness.RunGrayExperiment(seeds, opt); err != nil {
				return err
			}
			disk, err := harness.RunSlowDiskDrill(*seed, opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stdout, "\nslow-disk drill: ejected after %v, post-ejection p99 %v (slow share %.0f%%), recovered=%v\n",
				disk.EjectAfter, disk.PostP99, 100*disk.PostSlowShare, disk.Recovered)
			deg, err := harness.RunDegradedDrill(opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stdout, "degraded drill: %d slow fails before read-only, fail-fast %v, readsOK=%v, writes recovered=%v\n",
				deg.FailsBeforeDegraded, deg.DegradedFailFast, deg.ReadsOKDuring, deg.WriteRecovered)
			return nil
		},
		"overload": func() error { _, err := harness.RunOverloadExperiment(opt); return err },
		"smoke": func() error {
			addrs := splitList(*daemons)
			if len(addrs) == 0 {
				return fmt.Errorf("-exp smoke needs -daemons host:port,host:port,...")
			}
			return harness.RunWireSmoke(addrs, opt)
		},
	}
	order := []string{"fig4", "fig6", "fig8", "fig10", "fig12", "fig14", "standalone", "recovery", "batching", "chaos", "gray", "overload"}

	if *exp == "all" {
		for _, name := range order {
			if err := runs[name](); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	run, ok := runs[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *exp, err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad replica count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
