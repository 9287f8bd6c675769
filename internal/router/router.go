// Package router implements client-side replica selection for the
// session API. The paper's system places a load balancer in front of
// the replicas (§3, Figure 2) — clients never address a replica
// directly — and this package is that component's in-process
// equivalent: a Balancer tracks per-replica in-flight transactions and
// delegates each BEGIN to a pluggable Policy.
//
// Three policies are provided:
//
//   - RoundRobin — uniform rotation, the paper's baseline balancer.
//   - LeastInFlight — picks the replica with the fewest open
//     transactions, absorbing skew from slow or overloaded replicas.
//   - ReadWriteSplit — read-only transactions fan out across all
//     replicas while updates stick to a smaller writer set, shrinking
//     the certification conflict window (updates from fewer replicas
//     means fewer concurrent writesets to certify against).
package router

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// View is the cluster snapshot a Policy sees when picking a replica.
type View struct {
	// N is the number of replicas (indices 0..N-1).
	N int
	// ReadOnly classifies the transaction about to begin.
	ReadOnly bool
	// InFlight reports the current open-transaction count per replica.
	InFlight func(i int) int64
	// Excluded marks replicas the caller wants avoided (crashed or
	// recently failed); nil means none.
	Excluded []bool
}

// excluded reports whether replica i is to be avoided.
func (v *View) excluded(i int) bool {
	return v.Excluded != nil && i < len(v.Excluded) && v.Excluded[i]
}

// Policy picks the replica a transaction begins on.
type Policy interface {
	// Name identifies the policy (stable, flag-friendly).
	Name() string
	// Pick returns a replica index in [0, v.N). Implementations must
	// honor v.Excluded when at least one replica remains; with every
	// replica excluded any index may be returned.
	Pick(v View) int
}

// Counters is the per-replica open-transaction accounting. One
// instance belongs to the cluster — every session's balancer shares
// it — so a load-sensitive policy observes the replicas' global load,
// not just the transactions of its own session.
type Counters struct {
	slots []counterSlot
}

// counterSlot is one replica's accounting. gen guards against charges
// that straddle a Reset: a release acquired before a crash must not
// drive the rejoined replica's fresh count negative.
type counterSlot struct {
	inflight atomic.Int64
	gen      atomic.Uint64
	health   health
}

// Circuit-breaker tuning. A replica is ejected (breaker opens) when,
// with at least breakerMinSamples observations since it last closed,
// its error EWMA crosses breakerErrTrip or its latency EWMA exceeds
// breakerLatFactor times the best healthy peer's (and the absolute
// floor, which suppresses microsecond-scale noise). After
// breakerCooldown one half-open probe transaction is admitted; a failure,
// or a success slow enough to trip a closed breaker, re-opens it, and
// any other success closes it. An unclaimed or lost probe
// token expires after breakerProbeExpiry so a policy that routed the
// probe elsewhere cannot wedge the replica open forever.
const (
	breakerAlpha       = 0.15
	breakerMinSamples  = 16
	breakerErrTrip     = 0.5
	breakerLatFactor   = 8.0
	breakerLatFloor    = float64(time.Millisecond) / float64(time.Second)
	breakerCooldown    = 100 * time.Millisecond
	breakerProbeExpiry = 4 * breakerCooldown
)

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// health is one replica's gray-failure score: EWMA latency and error
// rate plus the breaker state machine. Distinct from the Excluded
// mechanism, which handles crashed (clean-failure) replicas: a gray
// replica still answers, just badly, so only its trend betrays it.
type health struct {
	mu       sync.Mutex
	ewmaLat  float64 // seconds
	ewmaErr  float64 // failure rate in [0,1]
	samples  int64   // observations since the breaker last closed
	state    int
	openedAt time.Time
	probeOut bool
	probeAt  time.Time
}

// admit reports whether the replica may take new transactions, running
// the open → half-open transition and claiming the single probe token.
func (h *health) admit() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(h.openedAt) < breakerCooldown {
			return false
		}
		h.state = breakerHalfOpen
	}
	// Half-open: one probe at a time.
	if h.probeOut && time.Since(h.probeAt) < breakerProbeExpiry {
		return false
	}
	h.probeOut = true
	h.probeAt = time.Now()
	return true
}

// observe folds one transaction outcome in. peerLat is the best (lowest)
// latency EWMA among scoreable peers, 0 when there is none.
func (h *health) observe(lat time.Duration, failed bool, peerLat float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.probeOut {
		// Treat the first outcome after a probe was admitted as the
		// probe's verdict, judged by the rule that trips a closed
		// breaker: a success as slow as the ejected trend re-opens it.
		h.probeOut = false
		if failed || tooSlow(lat.Seconds(), peerLat) {
			h.state = breakerOpen
			h.openedAt = time.Now()
			return
		}
		h.state = breakerClosed
		h.samples = 0
		h.ewmaErr = 0
		h.ewmaLat = lat.Seconds()
		return
	}
	e := 0.0
	if failed {
		e = 1.0
	}
	if h.samples == 0 {
		h.ewmaLat = lat.Seconds()
		h.ewmaErr = e
	} else {
		h.ewmaLat += breakerAlpha * (lat.Seconds() - h.ewmaLat)
		h.ewmaErr += breakerAlpha * (e - h.ewmaErr)
	}
	h.samples++
	if h.state != breakerClosed || h.samples < breakerMinSamples {
		return
	}
	if h.ewmaErr > breakerErrTrip || tooSlow(h.ewmaLat, peerLat) {
		h.state = breakerOpen
		h.openedAt = time.Now()
	}
}

// tooSlow reports whether a latency in seconds is breakerLatFactor
// times the best peer's and above the absolute floor.
func tooSlow(lat, peerLat float64) bool {
	return peerLat > 0 && lat > breakerLatFactor*peerLat && lat > breakerLatFloor
}

// score returns the latency EWMA when this replica is a valid latency
// baseline (closed, warmed up, mostly error-free).
func (h *health) score() (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != breakerClosed || h.samples < breakerMinSamples || h.ewmaErr > breakerErrTrip {
		return 0, false
	}
	return h.ewmaLat, true
}

// NewCounters builds a counter set over n replicas.
func NewCounters(n int) *Counters {
	if n < 1 {
		n = 1
	}
	return &Counters{slots: make([]counterSlot, n)}
}

// N returns the replica count.
func (c *Counters) N() int { return len(c.slots) }

// Get returns the current open-transaction count at replica i.
func (c *Counters) Get(i int) int64 { return c.slots[i].inflight.Load() }

// Reset zeroes replica i's in-flight count and invalidates every
// outstanding charge against it. Called when the replica crashes: its
// open transactions are gone, so leaving their charges in place would
// bias load-sensitive policies (leastinflight) against the replica
// after it rejoins — and letting their releases land after the reset
// would bias the other way, below zero.
func (c *Counters) Reset(i int) {
	if i < 0 || i >= len(c.slots) {
		return
	}
	c.slots[i].gen.Add(1)
	c.slots[i].inflight.Store(0)
	// The health history died with the process; the rejoined replica
	// starts with a clean score.
	h := &c.slots[i].health
	h.mu.Lock()
	h.ewmaLat, h.ewmaErr, h.samples = 0, 0, 0
	h.state = breakerClosed
	h.openedAt, h.probeAt = time.Time{}, time.Time{}
	h.probeOut = false
	h.mu.Unlock()
}

// Observe feeds replica i's health score with one finished
// transaction: its end-to-end latency and whether it failed for a
// replica-attributable reason (certification aborts, overload shedding
// and caller cancellations are not the replica's fault and must be
// reported with failed=false). Sessions call this on every commit and
// abort; it is what lets the breaker eject a gray replica that still
// answers, slowly.
func (c *Counters) Observe(i int, lat time.Duration, failed bool) {
	if i < 0 || i >= len(c.slots) {
		return
	}
	c.slots[i].health.observe(lat, failed, c.bestPeerLat(i))
}

// bestPeerLat returns the lowest latency EWMA among scoreable replicas
// other than i (0 when none qualifies) — the baseline a suspected gray
// replica is judged against.
func (c *Counters) bestPeerLat(i int) float64 {
	best := 0.0
	for j := range c.slots {
		if j == i {
			continue
		}
		if lat, ok := c.slots[j].health.score(); ok && (best == 0 || lat < best) {
			best = lat
		}
	}
	return best
}

// Health reports replica i's breaker state ("closed", "open" or
// "half-open"), latency EWMA and error-rate EWMA.
func (c *Counters) Health(i int) (state string, ewmaLat time.Duration, errRate float64) {
	if i < 0 || i >= len(c.slots) {
		return "closed", 0, 0
	}
	h := &c.slots[i].health
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case breakerOpen:
		state = "open"
	case breakerHalfOpen:
		state = "half-open"
	default:
		state = "closed"
	}
	return state, time.Duration(h.ewmaLat * float64(time.Second)), h.ewmaErr
}

// mergeUnhealthy folds open breakers into the caller's exclusion mask.
// It fails open: when every replica would be excluded the original mask
// is returned unchanged — a degraded replica beats none at all.
func (c *Counters) mergeUnhealthy(excluded []bool) []bool {
	n := len(c.slots)
	merged := make([]bool, n)
	candidates := 0
	ejected := false
	for i := 0; i < n; i++ {
		if excluded != nil && i < len(excluded) && excluded[i] {
			merged[i] = true
			continue
		}
		if c.slots[i].health.admit() {
			candidates++
		} else {
			merged[i] = true
			ejected = true
		}
	}
	if !ejected {
		return excluded
	}
	if candidates == 0 {
		return excluded
	}
	return merged
}

// Balancer fronts a set of replicas for one session: it delegates
// selection to the policy and charges the shared per-replica in-flight
// counters. It is safe for concurrent use.
type Balancer struct {
	policy   Policy
	counters *Counters
}

// NewBalancer builds a balancer with its own private counter set —
// for single-session use and tests. A nil policy defaults to
// round-robin.
func NewBalancer(n int, p Policy) *Balancer {
	return NewSharedBalancer(NewCounters(n), p)
}

// NewSharedBalancer builds a balancer over an existing counter set so
// that many sessions' policies see the same per-replica load.
func NewSharedBalancer(c *Counters, p Policy) *Balancer {
	if p == nil {
		p = NewRoundRobin()
	}
	return &Balancer{policy: p, counters: c}
}

// N returns the replica count.
func (b *Balancer) N() int { return b.counters.N() }

// Policy returns the active policy.
func (b *Balancer) Policy() Policy { return b.policy }

// InFlight returns the current open-transaction count at replica i.
func (b *Balancer) InFlight(i int) int64 { return b.counters.Get(i) }

// Acquire picks a replica for one transaction and charges its
// in-flight counter. The returned release must be called exactly once
// when the transaction finishes (commit or abort); it is idempotence-
// guarded by the caller, not here. excluded, if non-nil, marks
// replicas to avoid.
func (b *Balancer) Acquire(readOnly bool, excluded []bool) (int, func()) {
	n := b.counters.N()
	i := b.policy.Pick(View{
		N:        n,
		ReadOnly: readOnly,
		InFlight: b.counters.Get,
		Excluded: b.counters.mergeUnhealthy(excluded),
	})
	if i < 0 || i >= n {
		i = 0
	}
	slot := &b.counters.slots[i]
	gen := slot.gen.Load()
	slot.inflight.Add(1)
	return i, func() {
		if slot.gen.Load() != gen {
			return // replica crashed since; Reset already dropped this charge
		}
		if n := slot.inflight.Add(-1); n < 0 {
			// A release racing the reset itself; repair the undershoot.
			slot.inflight.CompareAndSwap(n, 0)
		}
	}
}

// --- RoundRobin ---

// roundRobin rotates uniformly over the replicas.
type roundRobin struct {
	next atomic.Uint64
}

// NewRoundRobin returns the uniform rotation policy.
func NewRoundRobin() Policy { return &roundRobin{} }

// Name implements Policy.
func (*roundRobin) Name() string { return "roundrobin" }

// Pick implements Policy.
func (p *roundRobin) Pick(v View) int {
	return pickRotating(&p.next, v.N, 0, &v)
}

// pickRotating rotates a shared cursor over replicas [base, base+n),
// skipping excluded ones.
func pickRotating(cursor *atomic.Uint64, n, base int, v *View) int {
	if n <= 0 {
		return 0
	}
	start := int(cursor.Add(1)-1) % n
	for k := 0; k < n; k++ {
		i := base + (start+k)%n
		if !v.excluded(i) {
			return i
		}
	}
	return base + start // everything excluded: let the caller fail fast
}

// --- LeastInFlight ---

// leastInFlight picks the replica with the fewest open transactions,
// breaking ties by rotation so equal replicas share load.
type leastInFlight struct {
	tie atomic.Uint64
}

// NewLeastInFlight returns the least-loaded policy.
func NewLeastInFlight() Policy { return &leastInFlight{} }

// Name implements Policy.
func (*leastInFlight) Name() string { return "leastinflight" }

// Pick implements Policy.
func (p *leastInFlight) Pick(v View) int {
	if v.N <= 0 {
		return 0
	}
	start := int(p.tie.Add(1)-1) % v.N
	best, bestLoad := -1, int64(0)
	for k := 0; k < v.N; k++ {
		i := (start + k) % v.N
		if v.excluded(i) {
			continue
		}
		load := v.InFlight(i)
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		return start
	}
	return best
}

// --- ReadWriteSplit ---

// readWriteSplit sends read-only transactions to every replica but
// confines updates to the first Writers replicas. Concentrating the
// update load shrinks the set of replicas whose in-flight writesets
// can conflict, while reads — which never certify under GSI — exploit
// the full cluster.
type readWriteSplit struct {
	writers   int
	nextRead  atomic.Uint64
	nextWrite atomic.Uint64
}

// NewReadWriteSplit returns the read/write splitting policy; updates
// go to the first writers replicas (minimum 1; values above the
// cluster size are clamped at pick time).
func NewReadWriteSplit(writers int) Policy {
	if writers < 1 {
		writers = 1
	}
	return &readWriteSplit{writers: writers}
}

// Name implements Policy.
func (*readWriteSplit) Name() string { return "rwsplit" }

// Pick implements Policy.
func (p *readWriteSplit) Pick(v View) int {
	if v.ReadOnly {
		return pickRotating(&p.nextRead, v.N, 0, &v)
	}
	w := p.writers
	if w > v.N {
		w = v.N
	}
	i := pickRotating(&p.nextWrite, w, 0, &v)
	if v.excluded(i) {
		// The whole writer set is down. Any replica can execute
		// updates under GSI — the split is an optimization, not a
		// requirement — so degrade to the full cluster rather than
		// violate the contract of honoring Excluded while healthy
		// replicas remain.
		return pickRotating(&p.nextWrite, v.N, 0, &v)
	}
	return i
}

// Parse resolves a policy by flag name: "roundrobin", "leastinflight",
// or "rwsplit" (writers sizes the rwsplit writer set and is ignored by
// the others).
func Parse(name string, writers int) (Policy, error) {
	switch name {
	case "roundrobin", "rr", "":
		return NewRoundRobin(), nil
	case "leastinflight", "lif":
		return NewLeastInFlight(), nil
	case "rwsplit", "rw":
		return NewReadWriteSplit(writers), nil
	default:
		return nil, fmt.Errorf("router: unknown policy %q (want roundrobin|leastinflight|rwsplit)", name)
	}
}
