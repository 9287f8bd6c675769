package chaos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/transport"
)

// TestPlanDigestDeterministic: the planned fault schedule is a pure
// function of the seed — two injectors with the same seed plan the
// identical schedule, and different seeds plan different ones.
func TestPlanDigestDeterministic(t *testing.T) {
	links := []string{"replica-1→cert-g0-0", "cert-g0-0→cert-g0-1", "cert-g0-1→cert-g0-0"}
	rules := Rules{DropProb: 0.05, DropRespProb: 0.02, DupProb: 0.02, DelayProb: 0.1, MaxDelay: 5 * time.Millisecond}
	a := NewInjector(42, rules).PlanDigest(links, 256)
	b := NewInjector(42, rules).PlanDigest(links, 256)
	if a != b {
		t.Fatalf("same seed planned different schedules: %x vs %x", a, b)
	}
	c := NewInjector(43, rules).PlanDigest(links, 256)
	if a == c {
		t.Fatalf("different seeds planned the same schedule %x", a)
	}
}

// TestDecisionStreamPerLink: the i-th message on a link draws the i-th
// decision of that link's stream, independent of traffic on other
// links — the property that makes per-seed replays meaningful.
func TestDecisionStreamPerLink(t *testing.T) {
	rules := Rules{DropProb: 0.5, DelayProb: 0.3, MaxDelay: time.Millisecond}
	draw := func(in *Injector, link string, n int) []decision {
		l := in.link(link)
		out := make([]decision, n)
		for i := range out {
			l.mu.Lock()
			out[i] = sample(l.rng, in.rules)
			l.mu.Unlock()
		}
		return out
	}
	a := NewInjector(7, rules)
	b := NewInjector(7, rules)
	// Interleave traffic on another link in b only; link "x→y" must
	// still see the identical stream.
	draw(b, "noise→y", 100)
	sa := draw(a, "x→y", 50)
	sb := draw(b, "x→y", 50)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// echoFabric builds a fabric with one echo server and a from-tagged
// client.
func echoFabric(t *testing.T, in *Injector) transport.Client {
	t.Helper()
	f := transport.NewLocalFabric(0)
	f.Serve("server", func(method string, req []byte) ([]byte, error) {
		return append([]byte("ok:"), req...), nil
	})
	f.SetInterposer(in)
	return f.DialFrom("client", "server")
}

func TestInjectorCutLink(t *testing.T) {
	in := NewInjector(1, Rules{})
	c := echoFabric(t, in)
	if _, err := c.Call("m", []byte("x")); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}
	in.CutLink("client", "server")
	if _, err := c.Call("m", []byte("x")); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("cut link: want ErrUnavailable, got %v", err)
	}
	in.HealLink("client", "server")
	if _, err := c.Call("m", []byte("x")); err != nil {
		t.Fatalf("healed link failed: %v", err)
	}
	// Asymmetric: cutting the reverse direction loses responses but
	// the request still lands.
	in.CutLink("server", "client")
	if _, err := c.Call("m", []byte("x")); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("reverse cut: want ErrUnavailable (lost response), got %v", err)
	}
	in.HealAll()
	if _, err := c.Call("m", []byte("x")); err != nil {
		t.Fatalf("after HealAll: %v", err)
	}
}

func TestInjectorDropsAndHeals(t *testing.T) {
	in := NewInjector(3, Rules{DropProb: 0.5})
	c := echoFabric(t, in)
	in.Enable()
	drops := 0
	for i := 0; i < 200; i++ {
		if _, err := c.Call("m", nil); err != nil {
			if !errors.Is(err, transport.ErrUnavailable) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			drops++
		}
	}
	if drops == 0 || drops == 200 {
		t.Fatalf("50%% drop rate produced %d/200 drops", drops)
	}
	if got := in.Stats().DroppedReqs; got != int64(drops) {
		t.Fatalf("stats counted %d dropped requests, observed %d", got, drops)
	}
	in.Disable()
	for i := 0; i < 50; i++ {
		if _, err := c.Call("m", nil); err != nil {
			t.Fatalf("disabled injector still dropping: %v", err)
		}
	}
}

// --- checker unit tests ---

func wsOf(table, key, col, value string) *core.Writeset {
	ws := &core.Writeset{}
	ws.Add(core.WriteOp{
		Kind: core.OpUpdate, Table: table, Key: key,
		Cols: []core.ColUpdate{{Col: col, Value: []byte(value)}},
	})
	return ws
}

func testLog(n int) []LogEntry {
	log := make([]LogEntry, n)
	for i := range log {
		v := uint64(i + 1)
		log[i] = LogEntry{Version: v, Origin: 1, WS: wsOf("t", "k", "v", fmt.Sprintf("val%d", v))}
	}
	return log
}

func TestCheckerPassesCleanRun(t *testing.T) {
	c := NewChecker()
	log := testLog(3)
	c.RecordAck(Ack{Worker: 0, Origin: 1, Version: 2, Table: "t", Key: "k", Col: "v", Value: "val2"})
	c.RecordAck(Ack{Worker: 0, Origin: 1, Version: 3, Table: "t", Key: "k", Col: "v", Value: "val3"})
	c.RecordRead(Read{Start: 2, Observed: 2, Table: "t", Key: "k", Col: "v", Value: "val2", Found: true})
	// Conservative bounds: a read of val3 with start 2 is legal when
	// observed covers version 3.
	c.RecordRead(Read{Start: 2, Observed: 3, Table: "t", Key: "k", Col: "v", Value: "val3", Found: true})
	if vs := c.Verify(VerifyInput{Log: log, Fingerprints: []uint32{7, 7}}); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
}

func TestCheckerDetectsLostAck(t *testing.T) {
	c := NewChecker()
	c.RecordAck(Ack{Worker: 0, Origin: 1, Version: 9, Table: "t", Key: "k", Col: "v", Value: "ghost"})
	if vs := c.Verify(VerifyInput{Log: testLog(3)}); len(vs) == 0 {
		t.Fatal("acked commit missing from log not flagged")
	}
}

func TestCheckerDetectsWrongAckedValue(t *testing.T) {
	c := NewChecker()
	c.RecordAck(Ack{Worker: 0, Origin: 1, Version: 2, Table: "t", Key: "k", Col: "v", Value: "not-val2"})
	if vs := c.Verify(VerifyInput{Log: testLog(3)}); len(vs) == 0 {
		t.Fatal("acked value absent from log entry not flagged")
	}
}

func TestCheckerDetectsSIViolation(t *testing.T) {
	c := NewChecker()
	// Snapshot bounded by version 1 must not see version 3's write.
	c.RecordRead(Read{Start: 1, Observed: 1, Table: "t", Key: "k", Col: "v", Value: "val3", Found: true})
	if vs := c.Verify(VerifyInput{Log: testLog(3)}); len(vs) == 0 {
		t.Fatal("future read not flagged")
	}
	// A value that no committed transaction ever wrote (dirty read).
	c2 := NewChecker()
	c2.RecordRead(Read{Start: 3, Observed: 3, Table: "t", Key: "k", Col: "v", Value: "uncommitted", Found: true})
	if vs := c2.Verify(VerifyInput{Log: testLog(3)}); len(vs) == 0 {
		t.Fatal("dirty read not flagged")
	}
}

func TestCheckerDetectsStaleAbsentRead(t *testing.T) {
	c := NewChecker()
	// Key written at v1; a snapshot at [1,1] must find it.
	c.RecordRead(Read{Start: 1, Observed: 1, Table: "t", Key: "k", Col: "v", Found: false})
	if vs := c.Verify(VerifyInput{Log: testLog(1)}); len(vs) == 0 {
		t.Fatal("vanished row not flagged")
	}
	// But a snapshot at [0,0] legitimately misses it.
	c2 := NewChecker()
	c2.RecordRead(Read{Start: 0, Observed: 0, Table: "t", Key: "k", Col: "v", Found: false})
	if vs := c2.Verify(VerifyInput{Log: testLog(1)}); len(vs) != 0 {
		t.Fatalf("legal absent read flagged: %v", vs)
	}
}

func TestCheckerDetectsSessionOrderViolation(t *testing.T) {
	c := NewChecker()
	c.RecordAck(Ack{Worker: 4, Origin: 1, Version: 3, Table: "t", Key: "k", Col: "v", Value: "val3"})
	c.RecordAck(Ack{Worker: 4, Origin: 1, Version: 2, Table: "t", Key: "k", Col: "v", Value: "val2"})
	if vs := c.Verify(VerifyInput{Log: testLog(3)}); len(vs) == 0 {
		t.Fatal("non-monotonic per-worker versions not flagged")
	}
}

func TestCheckerDetectsDivergentFingerprints(t *testing.T) {
	c := NewChecker()
	if vs := c.Verify(VerifyInput{Fingerprints: []uint32{1, 2}}); len(vs) == 0 {
		t.Fatal("divergent fingerprints not flagged")
	}
	if vs := c.Verify(VerifyInput{Fingerprints: []uint32{5, 5}, ReplayFingerprint: 6}); len(vs) == 0 {
		t.Fatal("replay-witness mismatch not flagged")
	}
}

func TestWaitUntil(t *testing.T) {
	n := 0
	if !WaitUntil(time.Second, func() bool { n++; return n >= 3 }) {
		t.Fatal("condition never observed")
	}
	if WaitUntil(10*time.Millisecond, func() bool { return false }) {
		t.Fatal("impossible condition reported met")
	}
}

func TestWaitStable(t *testing.T) {
	start := time.Now()
	v, ok := WaitStable(time.Second, 10*time.Millisecond, func() int {
		if time.Since(start) < 20*time.Millisecond {
			return int(time.Since(start) / time.Millisecond) // still changing
		}
		return -1
	})
	if !ok || v != -1 {
		t.Fatalf("WaitStable = (%d, %v), want (-1, true)", v, ok)
	}
}
