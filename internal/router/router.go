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

	"tashkent/internal/retry"
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
// with at least breakerMinSamples outcomes since it last closed, its
// error EWMA crosses breakerErrTrip, or when, with that many samples of
// one transaction class, its latency EWMA for the class exceeds
// breakerLatFactor times the best healthy peer's for the same class
// (and the absolute floor, which suppresses microsecond-scale noise).
// After breakerCooldown the next transaction routed to the replica
// carries the one half-open probe; its failure, or a success slow
// enough to trip a closed breaker, re-opens it, and any other success
// closes it. A probe token that is never judged or handed back expires
// after breakerProbeExpiry so a lost transaction cannot wedge the
// replica open forever.
const (
	breakerAlpha       = 0.15
	breakerMinSamples  = 16
	breakerErrTrip     = 0.5
	breakerLatFactor   = 8.0
	breakerLatFloor    = float64(time.Millisecond) / float64(time.Second)
	breakerCooldown    = 100 * time.Millisecond
	breakerProbeExpiry = 4 * breakerCooldown
)

// Class is the latency class a transaction is judged in. A snapshot
// read finishes in microseconds while an update pays certification and
// a log flush, so one latency average over both swings with whichever
// class finished last; the breaker compares a replica's reads with its
// peers' reads and its updates with their updates.
type Class int

// Transaction classes: whether the transaction wrote.
const (
	ReadOnly Class = iota
	Update
	numClasses
)

// health is one replica's gray-failure score: a latency EWMA per
// transaction class, one error-rate EWMA and the breaker they trip.
// Distinct from the Excluded mechanism, which handles crashed
// (clean-failure) replicas: a gray replica still answers, just badly,
// so only its trend betrays it.
type health struct {
	mu      sync.Mutex // guards the scores; the breaker has its own
	lat     [numClasses]latScore
	ewmaErr float64 // failure rate in [0,1]
	samples int64   // outcomes, failures included, since the breaker last closed
	br      retry.Breaker
}

// latScore is one class's latency EWMA.
type latScore struct {
	ewma    float64 // seconds
	samples int64   // successes of the class since the breaker last closed
}

// clear forgets every score and closes the breaker.
func (h *health) clear() {
	h.lat = [numClasses]latScore{}
	h.ewmaErr, h.samples = 0, 0
	h.br.Reset()
}

// observe folds one transaction outcome in. peerLat is the best (lowest)
// latency EWMA of the class among scoreable peers, 0 when there is none.
func (h *health) observe(class Class, lat time.Duration, failed bool, peerLat float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	if h.br.State() != retry.Closed {
		// Only the probe is judged while the replica is out. A pick that
		// lost the token race, or was made while every replica was out,
		// began after the claim too and may answer in the probe's place:
		// it measures the replica as it is now.
		healthy := !failed && !tooSlow(lat.Seconds(), peerLat)
		if h.br.Judge(now.Add(-lat), now, healthy) && healthy {
			h.clear()
		}
		return
	}
	e := 0.0
	if failed {
		e = 1.0
	}
	if h.samples == 0 {
		h.ewmaErr = e
	} else {
		h.ewmaErr += breakerAlpha * (e - h.ewmaErr)
	}
	h.samples++
	trip := h.samples >= breakerMinSamples && h.ewmaErr > breakerErrTrip
	if !failed {
		s := &h.lat[class]
		if s.samples == 0 {
			s.ewma = lat.Seconds()
		} else {
			s.ewma += breakerAlpha * (lat.Seconds() - s.ewma)
		}
		s.samples++
		trip = trip || s.samples >= breakerMinSamples && tooSlow(s.ewma, peerLat)
	}
	if trip {
		h.br.Trip(now)
	}
}

// tooSlow reports whether a latency in seconds is breakerLatFactor
// times the best peer's and above the absolute floor.
func tooSlow(lat, peerLat float64) bool {
	return peerLat > 0 && lat > breakerLatFactor*peerLat && lat > breakerLatFloor
}

// score returns the class's latency EWMA when this replica is a valid
// baseline for it (closed, warmed up in the class, mostly error-free).
func (h *health) score(class Class) (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.lat[class]
	if h.br.State() != retry.Closed || s.samples < breakerMinSamples || h.ewmaErr > breakerErrTrip {
		return 0, false
	}
	return s.ewma, true
}

// NewCounters builds a counter set over n replicas.
func NewCounters(n int) *Counters {
	if n < 1 {
		n = 1
	}
	c := &Counters{slots: make([]counterSlot, n)}
	for i := range c.slots {
		c.slots[i].health.br = retry.Breaker{Cooldown: breakerCooldown, ProbeExpiry: breakerProbeExpiry}
	}
	return c
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
	h.clear()
	h.mu.Unlock()
}

// Observe feeds replica i's health score with one finished transaction
// of the given class. A success — a commit, or an abort the
// certification decided — adds lat to the class's latency EWMA and a
// zero to the error EWMA; failed=true marks a replica-attributable
// failure, which adds a one to the error EWMA and no latency. Outcomes
// that say nothing about the replica (an abort the client chose, a
// shed or a cancelled commit) are not to be reported. This is what lets
// the breaker eject a gray replica that still answers, slowly.
func (c *Counters) Observe(i int, class Class, lat time.Duration, failed bool) {
	if i < 0 || i >= len(c.slots) || class < 0 || class >= numClasses {
		return
	}
	c.slots[i].health.observe(class, lat, failed, c.bestPeerLat(i, class))
}

// bestPeerLat returns the lowest class latency EWMA among scoreable
// replicas other than i (0 when none qualifies) — the baseline a
// suspected gray replica is judged against.
func (c *Counters) bestPeerLat(i int, class Class) float64 {
	best := 0.0
	for j := range c.slots {
		if j == i {
			continue
		}
		if lat, ok := c.slots[j].health.score(class); ok && (best == 0 || lat < best) {
			best = lat
		}
	}
	return best
}

// Health reports replica i's breaker state ("closed", "open" or
// "half-open"), its latency EWMAs for read-only and update transactions
// and its error-rate EWMA.
func (c *Counters) Health(i int) (state string, readLat, updateLat time.Duration, errRate float64) {
	if i < 0 || i >= len(c.slots) {
		return "closed", 0, 0, 0
	}
	h := &c.slots[i].health
	h.mu.Lock()
	defer h.mu.Unlock()
	secs := func(s latScore) time.Duration { return time.Duration(s.ewma * float64(time.Second)) }
	return h.br.State().String(), secs(h.lat[ReadOnly]), secs(h.lat[Update]), h.ewmaErr
}

// mergeUnhealthy folds ejected replicas without a free probe into the
// caller's exclusion mask. It claims no probe, so a replica the policy
// then passes over keeps its probe for the next pick. It fails open:
// when every replica would be excluded the original mask is returned
// unchanged — a degraded replica beats none at all.
func (c *Counters) mergeUnhealthy(excluded []bool) []bool {
	n := len(c.slots)
	var merged []bool
	candidates := 0
	now := time.Now()
	for i := 0; i < n; i++ {
		if excluded != nil && i < len(excluded) && excluded[i] {
			continue
		}
		if c.slots[i].health.br.Admissible(now) {
			candidates++
			continue
		}
		if merged == nil {
			merged = make([]bool, n)
			copy(merged, excluded)
		}
		merged[i] = true
	}
	if merged == nil || candidates == 0 {
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
// when the transaction finishes (commit or abort), after its outcome
// has been reported to Counters.Observe; it is idempotence-guarded by
// the caller, not here. excluded, if non-nil, marks replicas to avoid.
// A pick that lands on an ejected replica whose cooldown is over makes
// the transaction that replica's half-open probe.
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
	// A refused claim (a concurrent pick holds the probe, or every
	// replica was out and the pick failed open) proceeds unjudged.
	probeAt, _ := slot.health.br.Claim(time.Now())
	gen := slot.gen.Load()
	slot.inflight.Add(1)
	return i, func() {
		if slot.gen.Load() != gen {
			return // replica crashed since; Reset already dropped this charge
		}
		// An unjudged probe (an abort, or an outcome not the replica's to
		// answer for) hands its token back: the next pick probes at once.
		slot.health.br.Release(probeAt)
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
