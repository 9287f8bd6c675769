package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fastOptions keeps harness tests quick: tiny latencies, small sweeps.
func fastOptions(out *bytes.Buffer) Options {
	return Options{
		// Scale 20 keeps the 400 µs fsync comfortably above scheduler
		// noise so the figure shapes remain visible in a quick run.
		Scale:             20,
		ReplicaCounts:     []int{1, 3},
		ClientsPerReplica: 4,
		Warmup:            50 * time.Millisecond,
		Measure:           400 * time.Millisecond,
		Seed:              1,
		Out:               out,
	}
}

func TestFig4ShapeTashkentBeatsBase(t *testing.T) {
	if raceEnabled {
		t.Skip("figure-shape timing ratios are not meaningful under the race detector")
	}
	var buf bytes.Buffer
	o := fastOptions(&buf)
	// This test asserts throughput *ratios* between the modes, and the
	// paper derives those ratios from fsync cost (its testbed is
	// disk-bound at 8ms). At scale 20 the 400µs fsync leaves the modes
	// CPU-bound on a small shared box, where scheduler noise — not the
	// commit strategy — sets the ratio; 4ms fsyncs pin Base to its
	// serial-fsync ceiling so the shape survives noisy-neighbor CPU
	// steal, and the deeper closed loop gives the certifier enough
	// concurrent commits to form the shared-fsync batches the Tashkent
	// advantage comes from.
	o.Scale = 2
	o.ClientsPerReplica = 8
	series, err := Fig4and5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	// The paper's headline shape at the largest replica count: both
	// Tashkent systems beat Base by a wide margin, and Tashkent-MW
	// beats Tashkent-API.
	last := len(byName["base"].Points) - 1
	base := byName["base"].Points[last].Result.Throughput
	mw := byName["tashMW"].Points[last].Result.Throughput
	api := byName["tashAPI"].Points[last].Result.Throughput
	noCert := byName["tashAPInoCERT"].Points[last].Result.Throughput
	if base <= 0 {
		t.Fatal("base throughput is zero")
	}
	if mw < 1.5*base {
		t.Errorf("tashMW %.0f not >> base %.0f", mw, base)
	}
	if api < 1.2*base {
		t.Errorf("tashAPI %.0f not >> base %.0f", api, base)
	}
	if mw < 0.9*api {
		t.Errorf("tashMW %.0f well below tashAPI %.0f; paper has MW on top", mw, api)
	}
	if noCert < base {
		t.Errorf("tashAPInoCERT %.0f below base %.0f", noCert, base)
	}
	// Response time: Base worst.
	baseRT := byName["base"].Points[last].Result.RT.Mean
	mwRT := byName["tashMW"].Points[last].Result.RT.Mean
	if mwRT >= baseRT {
		t.Errorf("tashMW RT %v not below base RT %v", mwRT, baseRT)
	}
	if !strings.Contains(buf.String(), "Throughput") {
		t.Error("missing throughput table in output")
	}
}

func TestBaseScalesLinearlyWithReplicas(t *testing.T) {
	if raceEnabled {
		t.Skip("figure-shape timing ratios are not meaningful under the race detector")
	}
	var buf bytes.Buffer
	o := fastOptions(&buf)
	// Other packages' tests may take the CPU for part of the run: the 2-
	// and 4-replica points are measured in alternating short windows, so
	// that contention lands on both, and compared by their sums.
	o.ReplicaCounts = []int{1, 2, 4, 2, 4, 2, 4, 2, 4}
	o.Measure = 150 * time.Millisecond
	series, err := ThroughputExperiment("base scaling", newAllUpdates, false, []System{SysBase}, o)
	if err != nil {
		t.Fatal(err)
	}
	pts := series[0].Points
	tput := map[int]float64{}
	for _, pt := range pts {
		tput[pt.Replicas] += pt.Result.Throughput
	}
	t.Logf("base over four windows: %.0f at 2 replicas, %.0f at 4 (%.2fx)", tput[2], tput[4], tput[4]/tput[2])
	// From 2 replicas on, every Base commit pays two serial fsyncs
	// (remote batch + local), so capacity grows linearly with replica
	// count within that regime: 4 replicas ≈ 2× the 2-replica rate.
	if got, want := tput[4], 1.5*tput[2]; got < want {
		t.Errorf("base over four windows at 4 replicas %.0f, at 2 replicas %.0f: expected near-linear growth",
			tput[4], tput[2])
	}
	// The paper's 1→2 replica response-time jump: the second fsync.
	if pts[1].Result.RT.Mean < pts[0].Result.RT.Mean {
		t.Errorf("base RT at 2 replicas (%v) below 1 replica (%v); expected a jump",
			pts[1].Result.RT.Mean, pts[0].Result.RT.Mean)
	}
}

func TestStandaloneComparisonWithin(t *testing.T) {
	if raceEnabled {
		t.Skip("figure-shape timing ratios are not meaningful under the race detector")
	}
	var buf bytes.Buffer
	o := fastOptions(&buf)
	cmp, err := RunStandaloneComparison(true, o)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.StandaloneThroughput <= 0 || cmp.OneReplicaThroughput <= 0 {
		t.Fatalf("zero throughput: %+v", cmp)
	}
	// Paper: within 5 %. Allow slack at this tiny scale, but the
	// 1-replica system must be in the same ballpark (< 35 % off).
	if ov := cmp.Overhead(); ov > 0.35 {
		t.Errorf("1-replica MW overhead %.0f%%, want small", ov*100)
	}
}

func TestFig14GoodputDropsWithAbortRate(t *testing.T) {
	if raceEnabled {
		t.Skip("figure-shape timing ratios are not meaningful under the race detector")
	}
	var buf bytes.Buffer
	o := fastOptions(&buf)
	o.ReplicaCounts = []int{2}
	series, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 9 {
		t.Fatalf("got %d curves, want 9", len(series))
	}
	mw0 := series["tashMW@0%"].Points[0].Result
	mw40 := series["tashMW@40%"].Points[0].Result
	if mw40.Throughput >= mw0.Throughput {
		t.Errorf("goodput at 40%% aborts (%.0f) not below 0%% (%.0f)",
			mw40.Throughput, mw0.Throughput)
	}
	if mw40.AbortRate() < 0.25 {
		t.Errorf("measured abort rate %.2f, want ~0.4", mw40.AbortRate())
	}
	// Tashkent systems still beat Base even under heavy aborts.
	base40 := series["base@40%"].Points[0].Result
	if mw40.Throughput < base40.Throughput {
		t.Errorf("tashMW@40%% (%.0f) below base@40%% (%.0f)",
			mw40.Throughput, base40.Throughput)
	}
}

func TestRecoveryExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	o := fastOptions(&buf)
	o.ClientsPerReplica = 3
	rep, err := RunRecoveryExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DumpBytes == 0 {
		t.Error("dump produced no bytes")
	}
	if rep.WALRecords == 0 {
		t.Error("WAL recovery replayed no records")
	}
	if rep.ApplyRate <= 0 {
		t.Error("apply rate not measured")
	}
	if rep.CertTransferEntries == 0 {
		t.Error("certifier transfer empty")
	}
	if !strings.Contains(buf.String(), "writeset apply rate") {
		t.Error("report output missing")
	}
}

func TestSystemString(t *testing.T) {
	names := map[System]string{SysBase: "base", SysMW: "tashMW", SysAPI: "tashAPI", SysAPINoCert: "tashAPInoCERT"}
	for sys, want := range names {
		if sys.String() != want {
			t.Errorf("%d.String() = %q, want %q", sys, sys.String(), want)
		}
	}
}
