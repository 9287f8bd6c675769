package retry

import (
	"context"
	"sync"
	"testing"
	"time"
)

const ms = time.Millisecond

// TestBackoffSequences: doubling then clamping reproduces the delay
// sequence of each loop built on Backoff.
func TestBackoffSequences(t *testing.T) {
	for _, c := range []struct {
		loop     string
		min, max time.Duration
		want     []time.Duration
	}{
		{"certifier client failover", 1 * ms, 64 * ms, []time.Duration{1, 2, 4, 8, 16, 32, 64, 64}},
		{"tcp redial window", 5 * ms, 250 * ms, []time.Duration{5, 10, 20, 40, 80, 160, 250, 250}},
		{"detached resolve", 5 * ms, 640 * ms, []time.Duration{5, 10, 20, 40, 80, 160, 320, 640, 640}},
		{"merger target-only rounds", 2 * ms, 50 * ms, []time.Duration{2, 4, 8, 16, 32, 50, 50}},
		{"tashd re-execution and RunTx", 1 * ms, 64 * ms, []time.Duration{1, 2, 4, 8, 16, 32, 64, 64}},
	} {
		b := Backoff{Min: c.min, Max: c.max}
		for i, w := range c.want {
			if d := b.Delay(); d != w*ms {
				t.Fatalf("%s: delay %d peeks %v, want %v", c.loop, i, d, w*ms)
			}
			if d := b.Next(); d != w*ms {
				t.Fatalf("%s: delay %d is %v, want %v", c.loop, i, d, w*ms)
			}
		}
	}
}

func TestBackoffResetAndFloor(t *testing.T) {
	b := Backoff{Min: 1 * ms, Max: 64 * ms}
	for i := 0; i < 4; i++ {
		b.Next()
	}
	b.Reset()
	if d := b.Next(); d != 1*ms {
		t.Fatalf("after Reset: %v, want the minimum 1ms", d)
	}
	// A hint above the next delay raises it; the doubling goes on from it.
	b.Floor(10 * ms)
	if d := b.Next(); d != 10*ms {
		t.Fatalf("after Floor(10ms): %v, want 10ms", d)
	}
	if d := b.Next(); d != 20*ms {
		t.Fatalf("after the floored delay: %v, want 20ms", d)
	}
	// A hint below it changes nothing.
	b.Floor(3 * ms)
	if d := b.Next(); d != 40*ms {
		t.Fatalf("after Floor(3ms): %v, want 40ms", d)
	}
	// A hint above Max is honoured once; the delay after it is clamped.
	b.Floor(100 * ms)
	if d := b.Next(); d != 100*ms {
		t.Fatalf("after Floor(100ms): %v, want 100ms", d)
	}
	if d := b.Next(); d != 64*ms {
		t.Fatalf("after a floor above Max: %v, want 64ms", d)
	}
}

// TestBackoffWaitWakes: a sleep returns promptly when its wake channel
// closes or its ctx ends, and later sleeps on the same Backoff still run
// their delays out.
func TestBackoffWaitWakes(t *testing.T) {
	b := Backoff{Min: time.Hour, Max: time.Hour}
	wake := make(chan struct{})
	go close(wake)
	if b.Sleep(context.Background(), wake, time.Hour) {
		t.Fatal("a woken sleep reports that its delay ran out")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if err := b.Wait(ctx); err != context.Canceled {
		t.Fatalf("cancelled wait: %v, want %v", err, context.Canceled)
	}
	b = Backoff{Min: ms, Max: ms}
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < ms {
			t.Fatalf("wait %d returned after %v, before its 1ms delay", i, took)
		}
	}
	if !b.Sleep(context.Background(), nil, ms) {
		t.Fatal("a sleep that ran out reports that it was cut short")
	}
}

const cooldown = 100 * ms

func tripped(t0 time.Time) *Breaker {
	b := &Breaker{Cooldown: cooldown, ProbeExpiry: 4 * cooldown}
	b.Trip(t0)
	return b
}

// TestBreakerOneProbe: once the cooldown is over, concurrent claims hand
// the token to exactly one caller; the others are refused.
func TestBreakerOneProbe(t *testing.T) {
	t0 := time.Now()
	b := tripped(t0)
	if _, ok := b.Claim(t0.Add(cooldown - ms)); ok || b.Admissible(t0.Add(cooldown-ms)) {
		t.Fatal("a breaker in its cooldown admitted a call")
	}
	now := t0.Add(cooldown)
	if !b.Admissible(now) || b.State() != Open {
		t.Fatalf("cooled-down breaker: admissible %v, state %v; want true, open", b.Admissible(now), b.State())
	}
	const callers = 16
	var wg sync.WaitGroup
	probes := make(chan bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at, ok := b.Claim(now)
			if ok == at.IsZero() {
				t.Errorf("an open breaker admitted a call that is not its probe")
			}
			probes <- ok
		}()
	}
	wg.Wait()
	close(probes)
	n := 0
	for p := range probes {
		if p {
			n++
		}
	}
	if n != 1 || b.State() != HalfOpen {
		t.Fatalf("%d of %d concurrent claims took the probe (state %v), want 1 (half-open)", n, callers, b.State())
	}
}

// TestBreakerJudgedOnlyByProbe: a straggler that began before the claim
// does not judge the probe; the probe's own outcome does, and a failed
// probe re-opens the breaker for another cooldown.
func TestBreakerJudgedOnlyByProbe(t *testing.T) {
	t0 := time.Now()
	b := tripped(t0)
	if b.Judge(t0, t0.Add(ms), true) {
		t.Fatal("an outcome judged a breaker with no probe out")
	}
	at, _ := b.Claim(t0.Add(cooldown))
	if at.IsZero() {
		t.Fatal("no probe after the cooldown")
	}
	if b.Judge(t0.Add(-ms), at.Add(ms), true) || b.State() != HalfOpen {
		t.Fatalf("a straggler judged the probe (state %v)", b.State())
	}
	failedAt := at.Add(2 * ms)
	if !b.Judge(at, failedAt, false) || b.State() != Open {
		t.Fatalf("a failed probe left the breaker %v, want open", b.State())
	}
	if b.Admissible(failedAt.Add(cooldown - ms)) {
		t.Fatal("a failed probe did not restart the cooldown")
	}
	at, _ = b.Claim(failedAt.Add(cooldown))
	if at.IsZero() || !b.Judge(at, at.Add(ms), true) || b.State() != Closed {
		t.Fatalf("a healthy probe left the breaker %v, want closed", b.State())
	}
	if at, ok := b.Claim(at.Add(2 * ms)); !at.IsZero() || !ok {
		t.Fatal("a closed breaker refused a call or made it a probe")
	}
}

// TestBreakerReleaseHandsTokenBack: a probe released unjudged frees the
// token at once; a release after the probe was judged changes nothing.
func TestBreakerReleaseHandsTokenBack(t *testing.T) {
	t0 := time.Now()
	b := tripped(t0)
	now := t0.Add(cooldown)
	at, _ := b.Claim(now)
	if b.Admissible(now) {
		t.Fatal("a breaker with its probe out admits calls")
	}
	b.Release(at)
	if b.State() != Open || !b.Admissible(now) {
		t.Fatalf("after release: state %v, admissible %v; want open, true", b.State(), b.Admissible(now))
	}
	if at, _ = b.Claim(now); at.IsZero() {
		t.Fatal("the released token was not claimable")
	}
	b.Judge(at, now, true)
	b.Release(at)
	if b.State() != Closed {
		t.Fatalf("a release after the judgement moved the breaker to %v", b.State())
	}
}

// TestBreakerProbeExpires: a probe neither judged nor released frees the
// token after ProbeExpiry, and the lost probe's late outcome no longer
// judges the new one.
func TestBreakerProbeExpires(t *testing.T) {
	t0 := time.Now()
	b := tripped(t0)
	lost, _ := b.Claim(t0.Add(cooldown))
	if _, ok := b.Claim(lost.Add(b.ProbeExpiry - ms)); ok {
		t.Fatal("the token was free before the probe expired")
	}
	at, _ := b.Claim(lost.Add(b.ProbeExpiry))
	if at.IsZero() {
		t.Fatal("the token was not free once the probe expired")
	}
	if b.Judge(lost, at.Add(ms), true) {
		t.Fatal("the expired probe's outcome judged its successor")
	}
	b.Release(lost)
	if b.State() != HalfOpen {
		t.Fatalf("the expired probe's release took its successor's token (state %v)", b.State())
	}
	never := &Breaker{Cooldown: cooldown}
	never.Trip(t0)
	lost, _ = never.Claim(t0.Add(cooldown))
	if never.Admissible(lost.Add(time.Hour)) {
		t.Fatal("a probe expired with ProbeExpiry 0")
	}
}
