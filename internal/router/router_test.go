package router

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestRoundRobinDistribution(t *testing.T) {
	b := NewBalancer(4, NewRoundRobin())
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		idx, release := b.Acquire(false, nil)
		counts[idx]++
		release()
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("replica %d got %d picks, want 100", i, c)
		}
	}
}

func TestRoundRobinSkipsExcluded(t *testing.T) {
	b := NewBalancer(3, NewRoundRobin())
	excluded := []bool{false, true, false}
	for i := 0; i < 30; i++ {
		idx, release := b.Acquire(false, excluded)
		release()
		if idx == 1 {
			t.Fatal("picked an excluded replica")
		}
	}
}

func TestLeastInFlightUnderSkew(t *testing.T) {
	b := NewBalancer(3, NewLeastInFlight())

	// Pin load on replicas 0 and 1: they hold open transactions.
	var releases []func()
	for i := 0; i < 5; i++ {
		idx, release := b.Acquire(false, nil)
		releases = append(releases, release)
		_ = idx
	}
	// Counters after 5 acquires: each pick went to the then-least
	// loaded, so loads are near-balanced; now hold 10 more on whatever
	// is picked and verify new picks flow to the minimum.
	for i := 0; i < 10; i++ {
		_, release := b.Acquire(false, nil)
		releases = append(releases, release)
	}
	min := b.InFlight(0)
	for i := 1; i < 3; i++ {
		if l := b.InFlight(i); l < min {
			min = l
		}
	}
	idx, release := b.Acquire(false, nil)
	defer release()
	if got := b.InFlight(idx) - 1; got != min {
		t.Errorf("least-in-flight picked replica with load %d, min was %d", got, min)
	}
	for _, r := range releases {
		r()
	}
}

func TestLeastInFlightPrefersIdleReplica(t *testing.T) {
	b := NewBalancer(3, NewLeastInFlight())
	// Saturate replicas 0 and 1 artificially.
	b.counters.slots[0].inflight.Store(50)
	b.counters.slots[1].inflight.Store(50)
	for i := 0; i < 20; i++ {
		idx, release := b.Acquire(false, nil)
		if idx != 2 {
			t.Fatalf("pick %d went to loaded replica %d", i, idx)
		}
		release() // replica 2 returns to 0 in-flight: still the minimum
	}
}

func TestReadWriteSplit(t *testing.T) {
	b := NewBalancer(4, NewReadWriteSplit(2))
	readCounts := make([]int, 4)
	writeCounts := make([]int, 4)
	for i := 0; i < 400; i++ {
		idx, release := b.Acquire(true, nil)
		readCounts[idx]++
		release()
		idx, release = b.Acquire(false, nil)
		writeCounts[idx]++
		release()
	}
	for i, c := range readCounts {
		if c != 100 {
			t.Errorf("reads: replica %d got %d, want 100 (fan out over all)", i, c)
		}
	}
	for i, c := range writeCounts {
		want := 0
		if i < 2 {
			want = 200
		}
		if c != want {
			t.Errorf("writes: replica %d got %d, want %d (writer set = first 2)", i, c, want)
		}
	}
}

func TestReadWriteSplitClampsWriters(t *testing.T) {
	b := NewBalancer(2, NewReadWriteSplit(8))
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		idx, release := b.Acquire(false, nil)
		seen[idx] = true
		release()
	}
	if len(seen) != 2 {
		t.Errorf("writer set should clamp to cluster size 2, saw %v", seen)
	}
}

func TestReadWriteSplitFallsBackWhenWritersDown(t *testing.T) {
	b := NewBalancer(4, NewReadWriteSplit(2))
	// Writer set {0,1} entirely excluded: updates must degrade to the
	// healthy replicas instead of failing while the cluster lives.
	writersDown := []bool{true, true, false, false}
	seen := make(map[int]bool)
	for i := 0; i < 20; i++ {
		idx, release := b.Acquire(false, writersDown)
		release()
		if idx < 2 {
			t.Fatalf("write routed to excluded writer %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 2 {
		t.Errorf("fallback should rotate over replicas 2,3; saw %v", seen)
	}
}

func TestSharedCountersAcrossBalancers(t *testing.T) {
	c := NewCounters(3)
	a := NewSharedBalancer(c, NewLeastInFlight())
	b := NewSharedBalancer(c, NewLeastInFlight())

	// Load replica 0 through balancer a only (exclude the others).
	onlyZero := []bool{false, true, true}
	for i := 0; i < 2; i++ {
		idx, _ := a.Acquire(false, onlyZero)
		if idx != 0 {
			t.Fatalf("forced acquire picked %d, want 0", idx)
		}
	}
	if got := b.InFlight(0); got != 2 {
		t.Fatalf("balancer b sees in-flight(0)=%d, want 2 (counters not shared)", got)
	}
	// A different session's least-in-flight policy must route around
	// the load it did not create itself.
	for i := 0; i < 4; i++ {
		idx, release := b.Acquire(false, nil)
		if idx == 0 {
			t.Fatalf("least-in-flight via shared counters picked loaded replica 0")
		}
		release()
	}
}

func TestBalancerConcurrentAcquire(t *testing.T) {
	b := NewBalancer(4, NewLeastInFlight())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, release := b.Acquire(i%3 == 0, nil)
				release()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < b.N(); i++ {
		if l := b.InFlight(i); l != 0 {
			t.Errorf("replica %d in-flight = %d after all releases, want 0", i, l)
		}
	}
}

func TestParse(t *testing.T) {
	for _, name := range []string{"roundrobin", "leastinflight", "rwsplit"} {
		p, err := Parse(name, 2)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := Parse("bogus", 1); err == nil {
		t.Error("Parse(bogus) should fail")
	}
}

// TestCountersResetOnCrash is the regression test for the crashed-
// replica counter leak: charges open at crash time used to stay on the
// counter forever (the crashed replica's transactions never release),
// biasing leastinflight against the replica after rejoin — and a
// naive reset would let the old releases drive the count negative,
// biasing the other way.
func TestCountersResetOnCrash(t *testing.T) {
	c := NewCounters(2)
	b := NewSharedBalancer(c, NewLeastInFlight())

	// Three transactions in flight on replica 0 when it crashes.
	onlyZero := []bool{false, true}
	var releases []func()
	for i := 0; i < 3; i++ {
		idx, release := b.Acquire(false, onlyZero)
		if idx != 0 {
			t.Fatalf("forced acquire picked %d, want 0", idx)
		}
		releases = append(releases, release)
	}

	// Crash: the replica's open transactions are gone; the counter
	// must read idle immediately, not after the stale releases drain.
	c.Reset(0)
	if got := c.Get(0); got != 0 {
		t.Fatalf("after Reset, in-flight(0) = %d, want 0", got)
	}

	// The rejoined replica must win leastinflight against a loaded
	// peer instead of carrying its pre-crash charges.
	c.slots[1].inflight.Store(1)
	idx, release := b.Acquire(false, nil)
	if idx != 0 {
		t.Fatalf("leastinflight picked %d after rejoin, want idle replica 0", idx)
	}
	release()

	// Stale pre-crash releases must be no-ops, never driving the
	// fresh count negative.
	for _, r := range releases {
		r()
	}
	if got := c.Get(0); got != 0 {
		t.Fatalf("stale releases moved in-flight(0) to %d, want 0", got)
	}

	// Post-reset accounting still balances.
	_, release = b.Acquire(false, nil)
	release()
	if got := c.Get(0) + c.Get(1); got != 1 { // replica 1's artificial charge remains
		t.Fatalf("post-reset accounting off: total in-flight %d, want 1", got)
	}
}

// pinned is a test policy that always picks one replica.
type pinned int

func (pinned) Name() string    { return "pinned" }
func (p pinned) Pick(View) int { return int(p) }

// state returns replica i's breaker state.
func state(c *Counters, i int) string {
	s, _, _, _ := c.Health(i)
	return s
}

// eject opens replica i's breaker with a cooldown that ended long ago,
// so its probe is free.
func eject(c *Counters, i int) {
	c.slots[i].health.br.Trip(time.Now().Add(-time.Hour))
}

// mixLat draws one outcome of a healthy Base replica under the TPC-W
// shopping mix: 80 % snapshot reads of about 0.05 ms, 20 % updates of
// 28–44 ms (certification plus a queued log flush).
func mixLat(r *rand.Rand) (Class, time.Duration) {
	if r.Float64() < 0.8 {
		return ReadOnly, time.Duration(40+r.Intn(20)) * time.Microsecond
	}
	return Update, time.Duration(28+r.Intn(17)) * time.Millisecond
}

// TestBreakerMixedClassesNeverTrip: two healthy replicas serving an
// 80/20 stream of 0.05 ms reads and 30 ms updates, with the classes and
// the replicas interleaved in varying orders, keep their breakers
// closed. One latency average over both classes swings by 600x with
// whichever class finished last and ejects a healthy replica whose peer
// just served reads.
func TestBreakerMixedClassesNeverTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := NewCounters(2)
		for k := 0; k < 2000; k++ {
			i := r.Intn(2)
			if k%50 < 10 {
				i = 0 // runs of one replica, as a busy merger delivers them
			}
			class, lat := mixLat(r)
			c.Observe(i, class, lat, false)
			for j := 0; j < 2; j++ {
				if s := state(c, j); s != "closed" {
					t.Fatalf("seed %d, outcome %d: healthy replica %d is %q", seed, k, j, s)
				}
			}
		}
	}
}

// TestBreakerSlowUpdatesTrip: a replica whose updates take ten times
// its peer's is ejected even while its reads stay as fast as the peer's.
func TestBreakerSlowUpdatesTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := NewCounters(2)
	for k := 0; k < 400 && state(c, 1) == "closed"; k++ {
		class, lat := mixLat(r)
		c.Observe(0, class, lat, false)
		class, lat = mixLat(r)
		if class == Update {
			lat *= 10
		}
		c.Observe(1, class, lat, false)
	}
	if s := state(c, 1); s != "open" {
		t.Fatalf("replica 1 with 10x slower updates is %q, want open", s)
	}
	if s := state(c, 0); s != "closed" {
		t.Errorf("healthy replica 0 is %q, want closed", s)
	}
}

// TestBreakerSlowReadsTrip: slow reads alone eject a replica — a gray
// data disk slows its snapshot reads while its updates, dominated by
// certification and the log flush, look normal.
func TestBreakerSlowReadsTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := NewCounters(2)
	for k := 0; k < 400 && state(c, 1) == "closed"; k++ {
		class, lat := mixLat(r)
		c.Observe(0, class, lat, false)
		class, lat = mixLat(r)
		if class == ReadOnly {
			lat = 3 * time.Millisecond
		}
		c.Observe(1, class, lat, false)
	}
	if s := state(c, 1); s != "open" {
		t.Fatalf("replica 1 with 3 ms reads is %q, want open", s)
	}
}

// TestBreakerFailureMovesNoLatency: a failure moves the error rate only
// — a failed Begin reports no latency worth averaging — and enough of
// them eject the replica.
func TestBreakerFailureMovesNoLatency(t *testing.T) {
	c := NewCounters(2)
	c.Observe(0, Update, 30*time.Millisecond, false)
	c.Observe(0, ReadOnly, 50*time.Microsecond, false)
	for k := 0; k < breakerMinSamples; k++ {
		c.Observe(0, Update, 0, true)
		c.Observe(0, ReadOnly, 0, true)
	}
	s, readLat, updateLat, errRate := c.Health(0)
	if readLat != 50*time.Microsecond || updateLat != 30*time.Millisecond {
		t.Errorf("failures moved the latency EWMAs to %v / %v, want 50µs / 30ms", readLat, updateLat)
	}
	if errRate <= breakerErrTrip || s != "open" {
		t.Errorf("after %d failures: error rate %.2f, state %q; want above %.1f and open",
			2*breakerMinSamples, errRate, s, breakerErrTrip)
	}
}

// TestBreakerProbeClaimedOnlyWhenPicked: building the exclusion mask
// claims no probe, so an ejected replica the policy passes over keeps
// its probe for the next pick instead of staying out until the token
// expires. Only the probe's own outcome is judged: a straggler that
// began before the claim is not, and a probe released unjudged (an
// explicit abort) hands its token back.
func TestBreakerProbeClaimedOnlyWhenPicked(t *testing.T) {
	c := NewCounters(2)
	eject(c, 1)
	h := &c.slots[1].health

	other := NewSharedBalancer(c, pinned(0))
	i, release := other.Acquire(false, nil)
	release()
	if i != 0 || state(c, 1) != "open" {
		t.Fatalf("a pick of replica %d claimed replica 1's probe (state %q)", i, state(c, 1))
	}

	victim := NewSharedBalancer(c, pinned(1))
	i, release = victim.Acquire(false, nil)
	if i != 1 || state(c, 1) != "half-open" {
		t.Fatalf("the pick of replica 1 claimed no probe (state %q)", state(c, 1))
	}
	// A straggler admitted before the ejection finishes now, slowly.
	c.Observe(1, Update, time.Hour, false)
	if state(c, 1) != "half-open" {
		t.Fatalf("a straggler's outcome judged the probe (state %q)", state(c, 1))
	}
	// The probe aborts: its release hands the token back at once.
	release()
	if state(c, 1) != "open" {
		t.Fatal("an unjudged probe kept its token after release")
	}
	if !h.br.Admissible(time.Now()) {
		t.Fatal("replica 1 not admissible after its probe came back")
	}

	// The next probe commits fast and closes the breaker.
	_, release = victim.Acquire(false, nil)
	c.Observe(1, Update, 0, false)
	release()
	if s := state(c, 1); s != "closed" {
		t.Fatalf("after a fast probe replica 1 is %q, want closed", s)
	}
}

// TestBreakerProbeJudgedByLatency: a half-open probe that succeeds as
// slowly as the trend that ejected the replica re-opens the breaker, so
// a still-gray replica is not re-admitted for breakerMinSamples more
// transactions; only a fast success closes it.
func TestBreakerProbeJudgedByLatency(t *testing.T) {
	c := NewCounters(2)
	for i := 0; i < breakerMinSamples; i++ {
		c.Observe(0, Update, time.Millisecond, false)
	}
	for i := 0; i < breakerMinSamples; i++ {
		c.Observe(1, Update, 50*time.Millisecond, false)
	}
	if s := state(c, 1); s != "open" {
		t.Fatalf("slow replica 1 is %q, want open", s)
	}
	probe := func(lat time.Duration) string {
		br := &c.slots[1].health.br
		now := time.Now()
		br.Trip(now.Add(-2 * breakerCooldown)) // cooldown over
		// Claimed lat ago: the probe has run for lat.
		if at, _ := br.Claim(now.Add(-lat)); at.IsZero() {
			t.Fatal("cooled-down breaker admitted no probe")
		}
		c.Observe(1, Update, lat, false)
		return state(c, 1)
	}
	if got := probe(50 * time.Millisecond); got != "open" {
		t.Errorf("after a slow successful probe Health = %q, want open", got)
	}
	if got := probe(time.Millisecond); got != "closed" {
		t.Errorf("after a fast successful probe Health = %q, want closed", got)
	}
}
