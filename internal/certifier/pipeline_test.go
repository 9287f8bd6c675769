package certifier

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/paxos"
	"tashkent/internal/simdisk"
)

// slowDisk gives a node a 20 ms flush, so the echo window (an eighth of
// the cycle, ≈ 2.5 ms) stays far above goroutine latency, under -race
// too.
func slowDisk(i int, cfg *Config) {
	cfg.Disk = simdisk.New(simdisk.Profile{FsyncLatency: 20 * time.Millisecond}, int64(i))
}

// runClients starts n closed-loop clients. Each thinks for think, then
// certifies a key of its own, and starts over once it is answered. The
// returned function stops them and waits.
func runClients(t *testing.T, c *Client, n int, think time.Duration) (stop func()) {
	t.Helper()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var seen uint64
			for k := 0; ; k++ {
				time.Sleep(think)
				select {
				case <-done:
					return
				default:
				}
				resp, err := c.Certify(Request{Origin: 1 + i%3, StartVersion: seen, ReplicaVersion: seen,
					WSBytes: wsBytes(fmt.Sprintf("c%d-%d", i, k))})
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				seen = resp.SystemVersion
			}
		}(i)
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// idleServer is a certifier whose loop never runs, so a test can call
// gatherBatch itself.
func idleServer(t *testing.T) *Server {
	s := New(Config{ID: 0})
	t.Cleanup(s.Stop)
	return s
}

// expectCohort puts s just after a fan-out whose window is open for w
// (from at) with a full cohort of twelve expected back.
func expectCohort(s *Server, at time.Time, w time.Duration) {
	s.expected = 12
	s.fanout.Store(&fanout{at: at, window: w})
}

// enqueue admits a task the way certify does, without waiting for it.
func enqueue(s *Server, deadline time.Time) *certifyTask {
	t := &certifyTask{deadline: deadline, done: make(chan struct{})}
	<-s.slots
	t.enqueued = time.Now()
	if f := s.fanout.Load(); f != nil {
		f.admitted(t.enqueued)
	}
	s.admitCh <- t
	return t
}

func newTask() *certifyTask { return &certifyTask{done: make(chan struct{})} }

// TestGatherOneCohortPerFlush: twelve clients certifying back to back
// share one flush. Without the echo gather they settle into two cohorts
// of six, each waiting out the other's barrier in the queue. The shed
// hint follows the measured cycle.
func TestGatherOneCohortPerFlush(t *testing.T) {
	g := newTestGroup(t, 1, slowDisk)
	ld := g.waitLeader(t)
	if hint := ld.retryAfterHint(); hint != 2*time.Millisecond {
		t.Errorf("retry-after hint before the first barrier = %v, want 2ms", hint)
	}
	stop := runClients(t, g.client, 12, 0)
	time.Sleep(200 * time.Millisecond) // ≈ 10 cycles: the expected echo count builds up
	ld.ResetActivityStats()
	time.Sleep(600 * time.Millisecond)
	stop()
	if bs := ld.BatchStats(); bs.Mean < 10 {
		t.Errorf("batch mean %.2f over %d batches, want >= 10 (one cohort of 12 clients)", bs.Mean, bs.Count)
	}
	cycle := time.Duration(ld.cycle.Load())
	if hint := ld.retryAfterHint(); hint != cycle || hint < 20*time.Millisecond {
		t.Errorf("retry-after hint %v on an idle queue, want the last cycle %v (at least one 20 ms flush)", hint, cycle)
	}
}

// TestGatherSpacedRequestsNoLinger: a client that comes back only after
// 4W is no echo, and its requests never wait for one, even right after
// a closed loop taught the loop to expect a full cohort.
func TestGatherSpacedRequestsNoLinger(t *testing.T) {
	g := newTestGroup(t, 1, slowDisk)
	ld := g.waitLeader(t)
	stop := runClients(t, g.client, 12, 0)
	time.Sleep(200 * time.Millisecond)
	stop()
	w := ld.fanout.Load().window
	ld.ResetActivityStats()
	stop = runClients(t, g.client, 1, 4*w)
	time.Sleep(400 * time.Millisecond)
	stop()
	qs := ld.QueueStats()
	if qs.Wait.Count < 5 {
		t.Fatalf("only %d spaced requests were certified", qs.Wait.Count)
	}
	if qs.Wait.P99 >= w {
		t.Errorf("queue wait p99 %v of requests spaced at 4W, want < W = %v (no linger)", qs.Wait.P99, w)
	}
}

// TestGatherInstantDiskOnlyQueued: on an instant disk the echo window is
// close to zero, so a gather takes what is already queued and returns;
// it does not wait for a request that arrives later.
func TestGatherInstantDiskOnlyQueued(t *testing.T) {
	g := newTestGroup(t, 1, nil)
	ld := g.waitLeader(t)
	stop := runClients(t, g.client, 12, 0)
	time.Sleep(100 * time.Millisecond)
	stop()
	w := ld.fanout.Load().window
	if w > 500*time.Microsecond {
		t.Fatalf("echo window on an instant disk = %v, want close to zero", w)
	}

	s := idleServer(t)
	expectCohort(s, time.Now(), w)
	for i := 0; i < 3; i++ {
		enqueue(s, time.Time{})
	}
	late := make(chan struct{})
	go func() {
		defer close(late)
		time.Sleep(50 * time.Millisecond)
		enqueue(s, time.Time{})
	}()
	batch := s.gatherBatch(newTask())
	<-late
	if len(batch) != 4 {
		t.Errorf("gather took %d tasks, want the first and the 3 queued", len(batch))
	}
}

// TestGatherLingerEndsAtDeadlineAndStop: with the echoes expected and
// the window open, a gather still ends at the earliest deadline of a task
// it holds, and on Stop, where it fails what it holds.
func TestGatherLingerEndsAtDeadlineAndStop(t *testing.T) {
	s := idleServer(t)
	expectCohort(s, time.Now(), time.Minute)
	enqueue(s, time.Now().Add(time.Minute))
	dl := time.Now().Add(30 * time.Millisecond)
	enqueue(s, dl)
	batch := s.gatherBatch(newTask())
	if now := time.Now(); now.Before(dl) || now.Sub(dl) > 10*time.Second {
		t.Errorf("gather ended %v after the earliest deadline, want at it", now.Sub(dl))
	}
	if len(batch) != 3 {
		t.Errorf("gather took %d tasks, want 3", len(batch))
	}

	s = idleServer(t)
	expectCohort(s, time.Now(), time.Minute)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		time.Sleep(20 * time.Millisecond)
		s.Stop()
	}()
	first := newTask()
	if batch := s.gatherBatch(first); batch != nil {
		t.Errorf("gather returned %d tasks across Stop, want nil", len(batch))
	}
	<-stopped
	select {
	case <-first.done:
		if !errors.Is(first.err, paxos.ErrStopped) {
			t.Errorf("task held across Stop failed with %v, want ErrStopped", first.err)
		}
	default:
		t.Error("task held across Stop was never resolved")
	}
}

// TestGatherStaleFanoutNoLinger: the linger is anchored at the fan-out,
// so a fan-out older than its window — after an idle period, or on a node
// that lost leadership and won it back — never holds a batch open.
func TestGatherStaleFanoutNoLinger(t *testing.T) {
	s := idleServer(t)
	expectCohort(s, time.Now().Add(-time.Second), 500*time.Millisecond)
	start := time.Now()
	if batch := s.gatherBatch(newTask()); len(batch) != 1 {
		t.Errorf("gather took %d tasks, want 1", len(batch))
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Errorf("gather behind a stale fan-out took %v, want no linger", el)
	}

	// A leader that has learned to expect a full cohort loses leadership
	// and wins it back.
	var isolated [3]atomic.Bool
	errIsolated := errors.New("isolated")
	g := newTestGroup(t, 3, func(i int, cfg *Config) {
		slowDisk(i, cfg)
		cfg.PaxosCallHook = func(int, string) error {
			if isolated[i].Load() {
				return errIsolated
			}
			return nil
		}
	})
	ld := g.waitLeader(t)
	stop := runClients(t, g.client, 12, 0)
	time.Sleep(200 * time.Millisecond)
	stop()
	w := ld.fanout.Load().window

	// Cut the leader's outgoing traffic until another node leads, then
	// cut whichever other node leads until the old leader wins again.
	self := -1
	for i, s := range g.servers {
		if s == ld {
			self = i
		}
	}
	isolated[self].Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for ld.IsLeader() || g.waitLeader(t) == ld {
		if time.Now().After(deadline) {
			t.Fatal("the isolated leader never lost leadership")
		}
		time.Sleep(2 * time.Millisecond)
	}
	isolated[self].Store(false)
	for !ld.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("the deposed leader never regained leadership")
		}
		for i, s := range g.servers {
			isolated[i].Store(s != ld && s.IsLeader())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := range isolated {
		isolated[i].Store(false)
	}

	ld.ResetActivityStats()
	if _, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("after")}); err != nil {
		t.Fatal(err)
	}
	qs := ld.QueueStats()
	if qs.Wait.Count == 0 {
		t.Fatal("the request was not certified by the regained leader")
	}
	if qs.Wait.Max >= w {
		t.Errorf("first request after regaining leadership waited %v in the queue, want < W = %v (no linger)", qs.Wait.Max, w)
	}
}
