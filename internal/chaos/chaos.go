// Package chaos is the deterministic fault-injection layer behind the
// `tashbench -exp chaos` experiment and the crash-drill tests: a
// transport interposer that drops, delays, duplicates and reorders
// messages and cuts links (asymmetric partitions), an invariant
// checker that verifies the paper's safety claims — durability of
// acked commits, snapshot-isolation consistency of every read,
// cross-replica convergence — against
// the certifier's committed log, and condition-wait helpers that
// replace wall-clock sleeps in convergence-sensitive tests.
//
// Every random decision derives from a seed: each link (from → to)
// owns a PRNG seeded by (seed, link name), so the i-th message on a
// link always draws the i-th decision tuple of that link's stream, and
// the planned fault schedule is a pure function of the seed — a
// failing run replays from its seed alone.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/transport"
)

// Rules are the per-message fault probabilities a link applies while
// the injector is enabled. Probabilities are independent; MaxDelay
// bounds the injected delay (delays reorder messages relative to
// concurrent traffic on other goroutines).
type Rules struct {
	// DropProb loses the request before delivery (the callee never
	// sees it).
	DropProb float64
	// DropRespProb delivers the request but loses the response (the
	// callee's side effects happened; the caller sees a node failure).
	DropRespProb float64
	// DupProb delivers the request twice; the duplicate's response is
	// discarded (at-least-once delivery).
	DupProb float64
	// DelayProb holds the message for a uniform [0, MaxDelay) pause,
	// reordering it against concurrent messages.
	DelayProb float64
	// MaxDelay bounds injected delays (0 disables delay injection).
	MaxDelay time.Duration
}

// decision is one message's sampled fault tuple. Exactly four draws
// are consumed per message regardless of which rules fire, so a link's
// decision stream depends only on the seed and the message index.
type decision struct {
	dropReq  bool
	dropResp bool
	dup      bool
	delay    time.Duration
}

// sample draws the next decision from the stream.
func sample(rng *rand.Rand, r Rules) decision {
	var d decision
	d.dropReq = rng.Float64() < r.DropProb
	d.dropResp = rng.Float64() < r.DropRespProb
	d.dup = rng.Float64() < r.DupProb
	delayed := rng.Float64() < r.DelayProb
	amount := rng.Int63n(int64(maxDelayOrOne(r)))
	if delayed && r.MaxDelay > 0 {
		d.delay = time.Duration(amount)
	}
	return d
}

func maxDelayOrOne(r Rules) time.Duration {
	if r.MaxDelay <= 0 {
		return 1
	}
	return r.MaxDelay
}

// Stats counts the faults an injector actually inflicted.
type Stats struct {
	Messages     int64
	DroppedReqs  int64
	DroppedResps int64
	Duplicated   int64
	Delayed      int64
	CutDrops     int64
}

// link is one directed (from → to) channel's deterministic decision
// stream.
type link struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// Injector implements transport.Interposer with seeded, per-link
// deterministic fault decisions plus dynamically cut links. The zero
// value is not usable; use NewInjector.
type Injector struct {
	seed    int64
	rules   Rules
	enabled atomic.Bool

	mu        sync.Mutex
	links     map[string]*link
	cuts      map[string]struct{}
	linkRules map[string]Rules

	messages     atomic.Int64
	droppedReqs  atomic.Int64
	droppedResps atomic.Int64
	duplicated   atomic.Int64
	delayed      atomic.Int64
	cutDrops     atomic.Int64
}

// NewInjector builds an injector. It starts disabled; Enable arms it.
func NewInjector(seed int64, rules Rules) *Injector {
	return &Injector{
		seed:      seed,
		rules:     rules,
		links:     make(map[string]*link),
		cuts:      make(map[string]struct{}),
		linkRules: make(map[string]Rules),
	}
}

// Enable arms probabilistic fault injection (cut links apply even
// while disabled only if set after Enable—HealAll clears them).
func (in *Injector) Enable() { in.enabled.Store(true) }

// Disable stops probabilistic fault injection; cut links keep
// applying until healed.
func (in *Injector) Disable() { in.enabled.Store(false) }

// Stats snapshots the inflicted-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Messages:     in.messages.Load(),
		DroppedReqs:  in.droppedReqs.Load(),
		DroppedResps: in.droppedResps.Load(),
		Duplicated:   in.duplicated.Load(),
		Delayed:      in.delayed.Load(),
		CutDrops:     in.cutDrops.Load(),
	}
}

func linkKey(from, to string) string { return from + "→" + to }

// linkSeed derives a link's PRNG seed from the injector seed and the
// link name — stable across runs and independent of traffic on other
// links.
func linkSeed(seed int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return seed ^ int64(h.Sum64())
}

func (in *Injector) link(key string) *link {
	in.mu.Lock()
	defer in.mu.Unlock()
	l := in.links[key]
	if l == nil {
		l = &link{rng: rand.New(rand.NewSource(linkSeed(in.seed, key)))}
		in.links[key] = l
	}
	return l
}

// CutLink severs the directed channel from → to: requests travelling
// it are lost. Cutting (to, from) as well makes the partition
// symmetric; cutting only one direction models the paper-motivating
// asymmetric partition.
func (in *Injector) CutLink(from, to string) {
	in.mu.Lock()
	in.cuts[linkKey(from, to)] = struct{}{}
	in.mu.Unlock()
}

// HealLink restores the directed channel from → to.
func (in *Injector) HealLink(from, to string) {
	in.mu.Lock()
	delete(in.cuts, linkKey(from, to))
	in.mu.Unlock()
}

// Isolate cuts both directions between name and every peer —
// a full partition of one node.
func (in *Injector) Isolate(name string, peers ...string) {
	for _, p := range peers {
		in.CutLink(name, p)
		in.CutLink(p, name)
	}
}

// HealAll restores every cut link.
func (in *Injector) HealAll() {
	in.mu.Lock()
	in.cuts = make(map[string]struct{})
	in.mu.Unlock()
}

// SetLinkRules overrides the fault rules for the directed link
// from → to, modelling a gray failure: one slow or lossy channel
// while the rest of the mesh stays healthy (the global rules). The
// override changes only how draws are interpreted — every message
// still consumes exactly four PRNG draws — so each link's decision
// stream remains a pure function of (seed, link name) and a gray run
// replays from its seed exactly like a uniform one.
func (in *Injector) SetLinkRules(from, to string, r Rules) {
	in.mu.Lock()
	in.linkRules[linkKey(from, to)] = r
	in.mu.Unlock()
}

// rulesFor resolves the rules governing a link: its override if one
// is set, the global rules otherwise.
func (in *Injector) rulesFor(key string) Rules {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r, ok := in.linkRules[key]; ok {
		return r
	}
	return in.rules
}

func (in *Injector) isCut(from, to string) bool {
	in.mu.Lock()
	_, cut := in.cuts[linkKey(from, to)]
	in.mu.Unlock()
	return cut
}

// errDropped wraps transport.ErrUnavailable so victims retry exactly
// as they would for a dead node.
func errDropped(kind, from, to string) error {
	return fmt.Errorf("%w: chaos %s on %s→%s", transport.ErrUnavailable, kind, from, to)
}

// Call implements transport.Interposer.
func (in *Injector) Call(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
	if in.isCut(from, to) {
		in.cutDrops.Add(1)
		return nil, errDropped("cut", from, to)
	}
	if !in.enabled.Load() {
		resp, err := deliver()
		if err == nil && in.isCut(to, from) {
			// Reverse direction severed while we were in flight: the
			// response is lost even though the request landed.
			in.cutDrops.Add(1)
			return nil, errDropped("cut (response)", to, from)
		}
		return resp, err
	}

	in.messages.Add(1)
	key := linkKey(from, to)
	l := in.link(key)
	rules := in.rulesFor(key)
	l.mu.Lock()
	d := sample(l.rng, rules)
	l.mu.Unlock()

	if d.delay > 0 {
		in.delayed.Add(1)
		time.Sleep(d.delay)
	}
	if d.dropReq {
		in.droppedReqs.Add(1)
		return nil, errDropped("drop", from, to)
	}
	resp, err := deliver()
	if d.dup {
		in.duplicated.Add(1)
		deliver() // duplicate delivery; its response is discarded
	}
	if err == nil && (d.dropResp || in.isCut(to, from)) {
		if d.dropResp {
			in.droppedResps.Add(1)
		} else {
			in.cutDrops.Add(1)
		}
		return nil, errDropped("response drop", to, from)
	}
	return resp, err
}

// PlanDigest returns a fingerprint of the fault schedule the injector
// would inflict: for every given link, the first perLink decision
// tuples of its stream. It is a pure function of (seed, rules, links)
// — two injectors with the same seed plan the same schedule, which is
// what makes a failing chaos run replayable from its seed alone.
func (in *Injector) PlanDigest(links []string, perLink int) uint64 {
	h := fnv.New64a()
	sorted := append([]string{}, links...)
	sort.Strings(sorted)
	for _, key := range sorted {
		h.Write([]byte(key))
		rng := rand.New(rand.NewSource(linkSeed(in.seed, key)))
		rules := in.rulesFor(key)
		for i := 0; i < perLink; i++ {
			d := sample(rng, rules)
			var b [4]byte
			if d.dropReq {
				b[0] = 1
			}
			if d.dropResp {
				b[1] = 1
			}
			if d.dup {
				b[2] = 1
			}
			b[3] = byte(d.delay / time.Millisecond)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

var _ transport.Interposer = (*Injector)(nil)
