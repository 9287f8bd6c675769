// Package retry holds what every retry loop in the system is built
// from: Backoff, a capped exponential delay, and Breaker, a circuit
// breaker with one half-open probe. Neither jitters, so a chaos seed
// replays its fault schedule against the same delays.
package retry

import (
	"context"
	"sync"
	"time"
)

// Backoff is a capped exponential delay: Min first, each later one
// twice the last, clamped at Max. It is not safe for concurrent use.
type Backoff struct {
	Min, Max time.Duration
	cur      time.Duration // the next delay, when above Min
	timer    *time.Timer
}

// Delay returns the next delay without taking it.
func (b *Backoff) Delay() time.Duration { return max(b.cur, b.Min) }

// Next takes the next delay.
func (b *Backoff) Next() time.Duration {
	d := b.Delay()
	b.cur = min(2*d, b.Max)
	return d
}

// Reset makes the next delay Min again.
func (b *Backoff) Reset() { b.cur = 0 }

// Floor raises the next delay to at least d, a server's retry-after
// hint, even above Max.
func (b *Backoff) Floor(d time.Duration) { b.cur = max(b.cur, d) }

// Wait sleeps for the next delay or until ctx ends; it returns ctx.Err().
func (b *Backoff) Wait(ctx context.Context) error {
	b.Sleep(ctx, nil, b.Next())
	return ctx.Err()
}

// Sleep waits d on the Backoff's one timer, cut short when ctx ends or
// wake (nil: none) receives. It reports whether d ran out.
func (b *Backoff) Sleep(ctx context.Context, wake <-chan struct{}, d time.Duration) bool {
	if b.timer == nil {
		b.timer = time.NewTimer(d)
	} else {
		b.timer.Reset(d) // the last sleep received its tick or stopped it in time
	}
	select {
	case <-b.timer.C:
		return true
	case <-wake:
	case <-ctx.Done():
	}
	if !b.timer.Stop() {
		b.timer = nil // it ticked meanwhile: the next sleep takes a fresh one
	}
	return false
}

// State is a Breaker's position; it is half-open while its probe is out.
type State int

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string { return [...]string{"closed", "open", "half-open"}[s] }

// Breaker is a circuit breaker whose trip rule is its caller's (Trip).
// Cooldown after it opened, the next call admitted claims the probe
// token (Claim), and only an outcome that began at or after the claim
// judges the probe (Judge). A probe released unjudged hands the token
// back (Release); one neither judged nor released frees it after
// ProbeExpiry (0: never). The zero Breaker is closed; it is safe for
// concurrent use.
type Breaker struct {
	Cooldown, ProbeExpiry time.Duration

	mu       sync.Mutex
	state    State
	openedAt time.Time
	probeAt  time.Time // when the probe token was claimed
}

// State returns the breaker's position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// probeFreeLocked reports whether the probe token may be claimed at now.
func (b *Breaker) probeFreeLocked(now time.Time) bool {
	return b.state == Open && now.Sub(b.openedAt) >= b.Cooldown ||
		b.state == HalfOpen && b.ProbeExpiry > 0 && now.Sub(b.probeAt) >= b.ProbeExpiry
}

// Admissible reports whether a call may go through at now: the breaker
// is closed or its probe token is free. It claims nothing.
func (b *Breaker) Admissible(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == Closed || b.probeFreeLocked(now)
}

// Claim admits a call at now (ok): every call while the breaker is
// closed, and the one that takes the free probe token, for which at is
// the claim's time (zero for any other call). Any other call is refused.
func (b *Breaker) Claim(now time.Time) (at time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Closed || !b.probeFreeLocked(now) {
		return time.Time{}, b.state == Closed
	}
	b.state, b.probeAt = HalfOpen, now
	return now, true
}

// Release hands back the probe token claimed at at, unless an outcome
// has judged that probe; it does nothing for a zero at.
func (b *Breaker) Release(at time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probeAt.Equal(at) {
		b.state = Open
	}
}

// Judge settles the probe with the outcome of a call that began at
// began: healthy closes the breaker, anything else re-opens it at now.
// It reports whether the outcome judged the probe; one that began
// before the claim (a straggler) does not, nor any while no probe is out.
func (b *Breaker) Judge(began, now time.Time, healthy bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != HalfOpen || began.Before(b.probeAt) {
		return false
	}
	b.state, b.openedAt = Open, now
	if healthy {
		b.state = Closed
	}
	return true
}

// Trip opens the breaker at now; a probe out is void.
func (b *Breaker) Trip(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state, b.openedAt = Open, now
}

// Reset closes the breaker.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
}
