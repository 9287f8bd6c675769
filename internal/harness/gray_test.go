package harness

import (
	"os"
	"testing"
	"time"
)

// TestGrayScheduleDeterminism: gray plans — per-link overrides and the
// slow-disk episode included — are a pure function of the seed, so a
// failing drill replays with `tashbench -exp gray -seed S`.
func TestGrayScheduleDeterminism(t *testing.T) {
	a := buildGrayPlan(42, 300*time.Millisecond)
	b := buildGrayPlan(42, 300*time.Millisecond)
	if a.Digest() != b.Digest() {
		t.Fatalf("same seed planned different gray schedules: %x vs %x", a.Digest(), b.Digest())
	}
	if len(a.gray) != len(b.gray) || len(a.gray) == 0 {
		t.Fatalf("gray override counts differ or empty: %d vs %d", len(a.gray), len(b.gray))
	}
	for i := range a.gray {
		if a.gray[i] != b.gray[i] {
			t.Fatalf("gray override %d differs: %+v vs %+v", i, a.gray[i], b.gray[i])
		}
	}
	if buildGrayPlan(43, 300*time.Millisecond).Digest() == a.Digest() {
		t.Fatal("different seeds planned identical gray schedules")
	}
}

// graySeedSet mirrors chaosSeedSet: the dedicated CI gray job sets
// CHAOS_FULL=1 to run the 10-seed suite; elsewhere a smoke subset
// keeps `go test ./...` fast.
func graySeedSet() []int64 {
	n := 4
	if os.Getenv("CHAOS_FULL") != "" {
		n = 10
	}
	if testing.Short() {
		n = 2
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestGraySeeds runs the seeded gray-failure drills — slow/lossy
// victim links plus a slow-disk episode — through the full chaos
// invariant checker.
func TestGraySeeds(t *testing.T) {
	seeds := graySeedSet()
	results, err := RunGrayExperiment(seeds, Options{})
	for _, r := range results {
		t.Logf("seed %d mode %s digest %016x: acked=%d aborted=%d unknown=%d reads=%d log=%d violations=%d",
			r.Seed, r.Mode, r.Digest, r.Acked, r.Aborted, r.Unknown, r.Reads, r.LogEntries, len(r.Violations))
		for _, v := range r.Violations {
			t.Errorf("seed %d: %v", r.Seed, v)
		}
	}
	if err != nil {
		t.Errorf("%v", err)
	}
}

// TestGraySlowDiskRouterEjection: a replica whose disks stall on every
// op is ejected by the router's latency breaker, post-ejection commit
// p99 stays below one disk stall, and the replica folds back in after
// the disk heals.
//
// Every verdict of the drill is a wall-clock one — ejection within 10 s
// of the stall, the share and the p99 of a 400 ms window, the breaker
// closing within 10 s of the heal — and with other packages sharing two
// vCPUs they fail now and then ("never ejected" 3 in 20, the p99 bound 1
// in 5 `go test ./...` runs). Like TestOverloadKnee they are enforced
// where the drill has the machine to itself: the CI gray job
// (CHAOS_FULL=1). Tier-1 still runs the drill — it boots, stalls, heals
// and shuts down under whatever schedule it gets — and reports what it
// saw without failing on it.
func TestGraySlowDiskRouterEjection(t *testing.T) {
	verdict := t.Errorf
	if testing.Short() || os.Getenv("CHAOS_FULL") == "" {
		verdict = func(format string, args ...any) {
			t.Logf("not enforced outside the CI gray job (CHAOS_FULL=1): "+format, args...)
		}
	}
	res, err := RunSlowDiskDrill(1, Options{})
	if err != nil {
		verdict("%v", err)
		return
	}
	t.Logf("ejected after %v; post: commits=%d p99=%v slowShare=%.1f%%; recovered=%v",
		res.EjectAfter, res.PostCommits, res.PostP99, 100*res.PostSlowShare, res.Recovered)
	if res.PostCommits == 0 {
		verdict("no commits landed in the post-ejection window")
		return
	}
	if res.PostSlowShare > 0.2 {
		verdict("ejected replica still served %.0f%% of post-ejection commits", 100*res.PostSlowShare)
	}
	// The race detector's scheduling overhead makes tail latencies
	// unrepresentative; the routing-share assertion above still holds.
	// The 3x margin absorbs scheduler noise (shared-box runs measure
	// ~2x even with the victim fully ejected) — without ejection a
	// third of commits land on the victim and eat multiple stalls
	// each, so p99 sits at many times grayDiskStall and the share
	// assertion above fails outright.
	if !raceEnabled && res.PostP99 >= 3*grayDiskStall {
		verdict("post-ejection p99 %v not bounded by the disk stall (%v)", res.PostP99, grayDiskStall)
	}
	if !res.Recovered {
		verdict("breaker never closed again after the disk healed")
	}
}

// TestGrayDegradedReadOnly: losing the certifier quorum degrades the
// system to read-only — writes fail fast with the typed error after a
// bounded number of slow failovers, snapshot reads keep serving the
// last merged version, and write service resumes on recovery without
// a restart.
func TestGrayDegradedReadOnly(t *testing.T) {
	res, err := RunDegradedDrill(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("failsBeforeDegraded=%d failFast=%v readsOK=%v recovered=%v",
		res.FailsBeforeDegraded, res.DegradedFailFast, res.ReadsOKDuring, res.WriteRecovered)
	// A handful when run alone; scheduler contention from parallel
	// suites stretches the leader's step-down window, so the bound
	// only asserts the breaker opens in bounded failures, not never.
	if res.FailsBeforeDegraded > 30 {
		t.Errorf("breaker took %d slow failures to open (want a bounded handful)", res.FailsBeforeDegraded)
	}
	if res.DegradedFailFast > 50*time.Millisecond {
		t.Errorf("degraded write failed in %v; want fail-fast well under the failover timeout", res.DegradedFailFast)
	}
	if !res.ReadsOKDuring {
		t.Error("snapshot reads did not keep serving the last merged version while degraded")
	}
	if !res.WriteRecovered {
		t.Error("writes never resumed after the certifiers recovered")
	}
}

// TestOverloadKnee: with admission control, goodput at 2x the
// saturation offered load holds near the closed-loop peak instead of
// collapsing, and the excess is answered by explicit shedding.
func TestOverloadKnee(t *testing.T) {
	if testing.Short() || os.Getenv("CHAOS_FULL") == "" {
		t.Skip("overload ladder is load-bearing wall-clock; runs in the CI gray job (CHAOS_FULL=1), not in tier-1")
	}
	// Longer windows than the tashbench default: each ladder point
	// needs enough committed transactions for a stable rate estimate.
	res, err := RunOverloadExperiment(Options{Measure: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		t.Logf("%.1fx offered=%.0f/s acked=%d shed=%d (min retry-after %v) expired=%d aborted=%d errs=%d goodput=%.0f/s (%.0f%% of peak %.0f)",
			p.Factor, p.Rate, p.Acked, p.Shed, p.RetryAfterMin, p.Expired, p.Aborted, p.Errors, p.Goodput, 100*p.Goodput/res.Peak, res.Peak)
		// A shed's retry-after hint is at least one measured batch cycle,
		// and no cycle is shorter than the ladder's shortest certifier
		// flush (5 ms ± 1 ms).
		if p.Shed > 0 && p.RetryAfterMin < 4*time.Millisecond {
			t.Errorf("%.1fx: a shed carried a retry-after hint of %v, shorter than one batch cycle", p.Factor, p.RetryAfterMin)
		}
	}
	g2 := res.GoodputAt(2.0)
	if g2 == 0 {
		t.Fatal("ladder did not include the 2.0x point")
	}
	// Collapse past the knee looks like goodput at 2x falling far below
	// the ladder's own apex (without admission control it halves or
	// worse as queues absorb doomed work). The apex is the robust
	// reference: the separately-measured closed-loop peak wobbles with
	// box noise. Under the race detector the generator itself slows
	// down, so the ratio is asserted loosely there.
	apex := 0.0
	for _, p := range res.Points {
		if p.Goodput > apex {
			apex = p.Goodput
		}
	}
	// 0.7 discriminates: without admission control the 2x point halves
	// or worse (0.3-0.5x apex), while a healthy run sits at 0.95-1.0
	// and even a run under heavy noisy-neighbor CPU steal measured
	// ~0.8. Under the race detector the generator itself slows down,
	// so the ratio is asserted more loosely still.
	floor := 0.7
	if raceEnabled {
		floor = 0.5
	}
	if g2 < floor*apex {
		t.Errorf("goodput at 2x offered load = %.0f/s, below %.0f%% of ladder apex %.0f/s (closed-loop peak %.0f/s)",
			g2, 100*floor, apex, res.Peak)
	}
	var shedAt2 int
	for _, p := range res.Points {
		if p.Factor == 2.0 {
			shedAt2 = p.Shed + int(p.QueueShed)
		}
	}
	if shedAt2 == 0 {
		t.Error("no requests were shed at 2x offered load — admission control never engaged")
	}
}
