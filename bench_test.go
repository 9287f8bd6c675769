package tashkent_test

// One testing.B benchmark per table/figure of the paper's evaluation
// (§9), plus ablation benches for the design decisions called out in
// DESIGN.md. Each figure bench runs its harness experiment once per
// b.N at a reduced sweep and reports the headline metrics; use
// cmd/tashbench for full-resolution sweeps and table output.

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"tashkent"
	"tashkent/internal/harness"
	"tashkent/internal/mvstore"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
	"tashkent/internal/workload"
)

// benchOptions is the reduced sweep used inside benchmarks.
func benchOptions() harness.Options {
	return harness.Options{
		Scale:             20,
		ReplicaCounts:     []int{1, 4, 8},
		ClientsPerReplica: 8,
		Warmup:            50 * time.Millisecond,
		Measure:           500 * time.Millisecond,
		Seed:              1,
		Out:               io.Discard,
	}
}

// reportSeries emits the last sweep point of each system as bench
// metrics: who wins and by what factor is visible at a glance.
func reportSeries(b *testing.B, series []harness.Series) {
	b.Helper()
	var base float64
	for _, s := range series {
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.Result.Throughput, s.Name+"_tps")
		if s.Name == "base" {
			base = last.Result.Throughput
		} else if base > 0 {
			b.ReportMetric(last.Result.Throughput/base, s.Name+"_vs_base")
		}
	}
}

func BenchmarkFig4AllUpdatesSharedIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := harness.Fig4and5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

func BenchmarkFig6AllUpdatesDedicatedIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := harness.Fig6and7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

func BenchmarkFig8TPCBSharedIO(b *testing.B) {
	o := benchOptions()
	o.ReplicaCounts = []int{1, 4}
	for i := 0; i < b.N; i++ {
		series, err := harness.Fig8and9(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

func BenchmarkFig10TPCBDedicatedIO(b *testing.B) {
	o := benchOptions()
	o.ReplicaCounts = []int{1, 4}
	for i := 0; i < b.N; i++ {
		series, err := harness.Fig10and11(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

func BenchmarkFig12TPCWSharedIO(b *testing.B) {
	o := benchOptions()
	o.ReplicaCounts = []int{1, 4}
	for i := 0; i < b.N; i++ {
		series, err := harness.Fig12and13(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

func BenchmarkFig14AbortRates(b *testing.B) {
	o := benchOptions()
	o.ReplicaCounts = []int{4}
	for i := 0; i < b.N; i++ {
		series, err := harness.Fig14(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, key := range []string{"tashMW@0%", "tashMW@40%", "base@0%", "base@40%"} {
			b.ReportMetric(series[key].Points[0].Result.Throughput, key)
		}
	}
}

func BenchmarkStandaloneVsOneReplicaMW(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		cmp, err := harness.RunStandaloneComparison(true, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.StandaloneThroughput, "standalone_tps")
		b.ReportMetric(cmp.OneReplicaThroughput, "mw1_tps")
		b.ReportMetric(cmp.Overhead()*100, "overhead_%")
	}
}

func BenchmarkRecoveryTashkentMW(b *testing.B) {
	o := benchOptions()
	o.ClientsPerReplica = 4
	for i := 0; i < b.N; i++ {
		rep, err := harness.RunRecoveryExperiment(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.DumpBytes), "dump_bytes")
		b.ReportMetric(rep.DumpDegradation()*100, "dump_degradation_%")
		b.ReportMetric(float64(rep.MWRestoreDuration.Milliseconds()), "mw_restore_ms")
		b.ReportMetric(float64(rep.WALRecoverDuration.Milliseconds()), "wal_recover_ms")
		b.ReportMetric(rep.ApplyRate, "ws_apply_per_s")
		b.ReportMetric(float64(rep.CertTransferDuration.Microseconds())/1000, "cert_transfer_ms")
	}
}

func BenchmarkWritesetApplyRate(b *testing.B) {
	// §9.6: "the proxy batches the remote writesets and applies them
	// to the database at a rate of 900 writesets per second" — here,
	// raw engine apply rate without simulated disk latency.
	st := mvstore.Open(mvstore.Config{})
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := st.Begin()
		if err != nil {
			b.Fatal(err)
		}
		key := fmt.Sprintf("k%06d", i%4096)
		if err := tx.Update("bulk", key, map[string][]byte{"v": []byte("payload")}); err != nil {
			b.Fatal(err)
		}
		if err := tx.CommitLabeled(uint64(i), uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertifierRecovery(b *testing.B) {
	o := benchOptions()
	o.ClientsPerReplica = 4
	for i := 0; i < b.N; i++ {
		rep, err := harness.RunRecoveryExperiment(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.CertTransferEntries), "entries")
		b.ReportMetric(float64(rep.CertTransferBytes), "bytes")
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationNoGroupCommit quantifies design decision 1: group
// commit is the whole game. The same concurrent commit stream is run
// through a WAL with group commit (concurrent appends share fsyncs)
// and serialized (one fsync each).
func BenchmarkAblationNoGroupCommit(b *testing.B) {
	const writers = 16
	prof := simdisk.Profile{FsyncLatency: 400 * time.Microsecond}
	run := func(b *testing.B, serialize bool) {
		disk := simdisk.New(prof, 1)
		w := wal.New(disk, wal.SyncCommits)
		defer w.Close()
		var serial sync.Mutex
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/writers + 1
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := make([]byte, 64)
				for i := 0; i < per; i++ {
					if serialize {
						serial.Lock()
						w.Append(payload)
						serial.Unlock()
					} else {
						w.Append(payload)
					}
				}
			}()
		}
		wg.Wait()
		b.ReportMetric(disk.Stats().GroupRatio(), "records/fsync")
	}
	b.Run("grouped", func(b *testing.B) { run(b, false) })
	b.Run("serialized", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationLocalCertification quantifies design decision 3:
// local certification aborts doomed transactions at the replica
// without a certifier round trip.
func BenchmarkAblationLocalCertification(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		o := benchOptions()
		o.ReplicaCounts = []int{4}
		series, err := harness.ThroughputExperiment("ablation", func() workload.Generator {
			return &workload.TPCB{Branches: 2} // high conflict rate
		}, true, []harness.System{harness.SysMW}, o)
		if err != nil {
			b.Fatal(err)
		}
		_ = enabled // both arms currently run with the optimization; see note
		b.ReportMetric(series[0].Points[0].Result.Throughput, "tps")
		b.ReportMetric(series[0].Points[0].Result.AbortRate()*100, "abort_%")
	}
	// The harness enables local certification by default; the
	// comparison arm is exercised at the proxy unit level
	// (TestLocalCertificationAvoidsRoundTrip). This bench tracks the
	// optimized configuration's throughput under a conflict-heavy
	// load.
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, true)
		}
	})
}

// BenchmarkCertifierThroughput measures raw certification capacity —
// the paper notes the certifier stays lightly loaded (<20 % CPU,
// <50 % disk) while certifying 3657 req/s.
func BenchmarkCertifierThroughput(b *testing.B) {
	db, err := tashkent.Start(tashkent.Config{
		Mode:     tashkent.ModeTashkentMW,
		Replicas: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tx, err := db.Cluster().Begin(0)
			if err != nil {
				b.Error(err)
				return
			}
			key := fmt.Sprintf("c%06d", i)
			i++
			if err := tx.Update("t", key, map[string][]byte{"v": []byte("x")}); err != nil {
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
