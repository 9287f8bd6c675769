package router

import (
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

// TestBreakerProbeJudgedByLatency: a half-open probe that succeeds as
// slowly as the trend that ejected the replica re-opens the breaker, so
// a still-gray replica is not re-admitted for breakerMinSamples more
// transactions; only a fast success closes it.
func TestBreakerProbeJudgedByLatency(t *testing.T) {
	c := NewCounters(2)
	for i := 0; i < breakerMinSamples; i++ {
		c.Observe(0, time.Millisecond, false)
	}
	for i := 0; i < breakerMinSamples; i++ {
		c.Observe(1, 50*time.Millisecond, false)
	}
	if state, _, _ := c.Health(1); state != "open" {
		t.Fatalf("slow replica 1 is %q, want open", state)
	}
	probe := func(lat time.Duration) string {
		h := &c.slots[1].health
		h.mu.Lock()
		h.openedAt = time.Now().Add(-2 * breakerCooldown) // cooldown over
		h.mu.Unlock()
		if !h.admit() {
			t.Fatal("cooled-down breaker admitted no probe")
		}
		c.Observe(1, lat, false)
		state, _, _ := c.Health(1)
		return state
	}
	if got := probe(50 * time.Millisecond); got != "open" {
		t.Errorf("after a slow successful probe Health = %q, want open", got)
	}
	if got := probe(time.Millisecond); got != "closed" {
		t.Errorf("after a fast successful probe Health = %q, want closed", got)
	}
}
