package certifier

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/core"
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
	s.fanout.Store(&fanout{at: at, window: w, answered: 12, target: 12})
}

// fanOutNow publishes a fan-out of answered client tasks, the prepares
// of awaited among them, whose window stays open for w.
func fanOutNow(s *Server, w time.Duration, answered int64, awaited ...uint64) {
	s.publishFanout(time.Now().Add(-lingerShare*w), answered, awaited)
}

// enqueue admits a certify task the way submit does, without waiting
// for it.
func enqueue(s *Server, deadline time.Time) *task {
	t := bareTask()
	t.deadline = deadline
	return enqueueTask(s, t)
}

// enqueueTask admits t the way submit does, without waiting for it.
func enqueueTask(s *Server, t *task) *task {
	<-s.slots
	t.enqueued = time.Now()
	if f := s.fanout.Load(); f != nil {
		f.admitted(t)
	}
	s.admitCh <- t
	return t
}

func bareTask() *task { return &task{done: make(chan struct{})} }

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
	batch := s.gatherBatch(bareTask())
	<-late
	if len(batch) != 4 {
		t.Errorf("gather took %d tasks, want the first and the 3 queued", len(batch))
	}
}

// TestGatherLingerEndsAtDeadlineAndStop: with the window open for a
// minute, whether the echoes of a cohort are expected or the decision
// marker of gid 7's prepare is awaited (and arrives 30 ms in), a gather
// still ends at the earliest deadline of a task it holds, and on Stop,
// where it fails what it holds.
func TestGatherLingerEndsAtDeadlineAndStop(t *testing.T) {
	for _, awaiting := range []bool{false, true} {
		open := func(s *Server) {
			if awaiting {
				fanOutNow(s, time.Minute, 1, 7)
			} else {
				expectCohort(s, time.Now(), time.Minute)
			}
		}
		s := idleServer(t)
		open(s)
		want := 3
		if awaiting {
			want++
			go func() {
				time.Sleep(30 * time.Millisecond)
				enqueueTask(s, resolveTask(7, true))
			}()
		}
		enqueue(s, time.Now().Add(time.Minute))
		dl := time.Now().Add(60 * time.Millisecond)
		enqueue(s, dl)
		batch := s.gatherBatch(bareTask())
		if now := time.Now(); now.Before(dl) || now.Sub(dl) > 10*time.Second {
			t.Errorf("awaiting %v: gather ended %v after the earliest deadline, want at it", awaiting, now.Sub(dl))
		}
		if len(batch) != want {
			t.Errorf("awaiting %v: gather took %d tasks, want %d", awaiting, len(batch), want)
		}

		s = idleServer(t)
		open(s)
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			time.Sleep(20 * time.Millisecond)
			s.Stop()
		}()
		first := bareTask()
		if batch := s.gatherBatch(first); batch != nil {
			t.Errorf("awaiting %v: gather returned %d tasks across Stop, want nil", awaiting, len(batch))
		}
		<-stopped
		select {
		case <-first.done:
			if !errors.Is(first.err, paxos.ErrStopped) {
				t.Errorf("awaiting %v: task held across Stop failed with %v, want ErrStopped", awaiting, first.err)
			}
		default:
			t.Errorf("awaiting %v: task held across Stop was never resolved", awaiting)
		}
	}
}

// TestGatherStaleFanoutNoLinger: the linger is anchored at the fan-out,
// so a fan-out older than its window — after an idle period, or on a node
// that lost leadership and won it back — never holds a batch open.
func TestGatherStaleFanoutNoLinger(t *testing.T) {
	s := idleServer(t)
	expectCohort(s, time.Now().Add(-time.Second), 500*time.Millisecond)
	start := time.Now()
	if batch := s.gatherBatch(bareTask()); len(batch) != 1 {
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

// TestGatherHoldsWindowPastMarker: a fan-out that answered the prepares
// of gids 7 to 10 holds the next batch open until W after the marker
// that brings in half of them, past its own window: gid 7's marker
// arrives 100 ms into a 200 ms window, gid 8's abort marker at 150 ms
// and gid 9's at 300 ms. The batch stays open to the end with all three
// markers in hand, so that a group closes in step with its partners'
// round, not on a count of its own.
func TestGatherHoldsWindowPastMarker(t *testing.T) {
	const w = 200 * time.Millisecond
	s := idleServer(t)
	fanOutNow(s, w, 4, 7, 8, 9, 10)
	f := s.fanout.Load()
	go func() {
		time.Sleep(100 * time.Millisecond)
		enqueueTask(s, resolveTask(7, true))
		time.Sleep(50 * time.Millisecond)
		enqueueTask(s, resolveTask(8, false))
		time.Sleep(150 * time.Millisecond)
		enqueueTask(s, resolveTask(9, true))
	}()
	batch := s.gatherBatch(bareTask())
	end := time.Since(f.at)
	if len(batch) != 4 {
		t.Fatalf("gather took %d tasks, want the first and three markers", len(batch))
	}
	anchor := time.Unix(0, f.anchor.Load())
	if !anchor.Equal(batch[2].enqueued) {
		t.Errorf("anchored at %v, want gid 8's marker (%v)", anchor, batch[2].enqueued)
	}
	if want := anchor.Add(w).Sub(f.at); end < want || end > want+2*time.Second {
		t.Errorf("gather ended %v after the fan-out, want W after gid 8's marker (%v)", end, want)
	}
}

// TestGatherLateMarkerReopensWindow: when the partner group answers after
// the hold has ended, the first awaited marker starts a gather that
// lingers W for the rest of the partner's answers.
func TestGatherLateMarkerReopensWindow(t *testing.T) {
	const w = 50 * time.Millisecond
	s := idleServer(t)
	fanOutNow(s, w, 2, 7, 8)
	time.Sleep(lingerShare / holdShare * w * 3 / 2)
	enqueueTask(s, resolveTask(7, true))
	first := <-s.admitCh
	s.releaseSlot()
	go func() {
		time.Sleep(w / 2)
		enqueueTask(s, resolveTask(8, true))
	}()
	batch := s.gatherBatch(first)
	if len(batch) != 2 || batch[1].entry.GID != 8 {
		t.Fatalf("gather took %d tasks, want gid 7's marker and gid 8's", len(batch))
	}
	if el := time.Since(first.enqueued); el < w || el > w+2*time.Second {
		t.Errorf("gather ended %v after the first marker, want W = %v", el, w)
	}
}

// TestGatherUnawaitedMarkerNoLonger: a marker for a gid the fan-out does
// not await is no anchor. With it or with no marker at all, a fan-out
// that answered a prepare holds the batch for half a cycle (four
// windows), and no longer.
func TestGatherUnawaitedMarkerNoLonger(t *testing.T) {
	const w = 50 * time.Millisecond
	for _, marker := range []bool{true, false} {
		s := idleServer(t)
		fanOutNow(s, w, 1, 7)
		f := s.fanout.Load()
		want := 1
		if marker {
			enqueueTask(s, resolveTask(8, true))
			want++
		}
		batch := s.gatherBatch(bareTask())
		end := time.Since(f.at)
		if len(batch) != want {
			t.Errorf("marker %v: gather took %d tasks, want %d", marker, len(batch), want)
		}
		if hold := lingerShare / holdShare * w; end < hold || end > hold+2*time.Second {
			t.Errorf("marker %v: gather ended %v after the fan-out, want at half the cycle (%v)", marker, end, hold)
		}
	}
}

// TestFanoutAnchor drives admission's view of a fan-out that answered
// eight prepares with stamped admission times: the window's end moves
// only with the marker that brings in half of the awaited gids.
func TestFanoutAnchor(t *testing.T) {
	const cycle = 80 * time.Millisecond
	const w, hold = cycle / lingerShare, cycle / holdShare
	at := time.Unix(1000, 0)
	gids := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	marker := func(f *fanout, gid uint64, commit bool, after time.Duration) {
		m := resolveTask(gid, commit)
		m.enqueued = at.Add(after)
		f.admitted(m)
	}
	wantEnd := func(t *testing.T, f *fanout, want time.Duration) {
		t.Helper()
		if got := f.windowEnd().Sub(at); got != want {
			t.Errorf("window ends %v after the fan-out, want %v", got, want)
		}
	}

	t.Run("straggler", func(t *testing.T) {
		// A coordinator whose prepares straddled two rounds sends its
		// marker right after this group's fan-out.
		f := newFanout(at, cycle, 8, gids)
		marker(f, 3, true, 100*time.Microsecond)
		wantEnd(t, f, hold)
	})
	t.Run("half", func(t *testing.T) {
		f := newFanout(at, cycle, 8, gids)
		marker(f, 1, true, time.Millisecond)
		marker(f, 2, false, 2*time.Millisecond) // an abort marker counts too
		marker(f, 3, true, 3*time.Millisecond)
		wantEnd(t, f, hold)
		marker(f, 4, true, 15*time.Millisecond) // half of eight: the anchor
		wantEnd(t, f, 15*time.Millisecond+w)
		marker(f, 5, true, 30*time.Millisecond)
		wantEnd(t, f, 15*time.Millisecond+w)

		// Of two awaited gids, one marker is half.
		f = newFanout(at, cycle, 2, gids[:2])
		marker(f, 2, true, time.Millisecond)
		wantEnd(t, f, time.Millisecond+w)
	})
	t.Run("duplicate", func(t *testing.T) {
		f := newFanout(at, cycle, 8, gids)
		for i := 1; i <= 4; i++ { // a retried marker
			marker(f, 6, true, time.Duration(i)*time.Millisecond)
		}
		marker(f, 9, true, 5*time.Millisecond) // not awaited
		wantEnd(t, f, hold)
		if n := f.markers.Load(); n != 1 {
			t.Errorf("%d markers counted, want 1", n)
		}
	})
	t.Run("no marker", func(t *testing.T) {
		wantEnd(t, newFanout(at, cycle, 8, gids), hold)
		wantEnd(t, newFanout(at, cycle, 8, nil), w) // no prepares: the window alone
	})
}

// TestGatherOpenLoopNoLinger: a fan-out that answered many tasks, behind
// a learned ratio of echoes near zero (open-loop clients, who do not
// come back when answered), expects nobody and never lingers.
func TestGatherOpenLoopNoLinger(t *testing.T) {
	s := idleServer(t)
	s.echoRatio = 0.001
	fanOutNow(s, time.Minute, 500)
	if f := s.fanout.Load(); f.expects() {
		t.Fatalf("fan-out of 500 at ratio 0.001 expects %.2f echoes, want none", f.target)
	}
	start := time.Now()
	if batch := s.gatherBatch(bareTask()); len(batch) != 1 {
		t.Errorf("gather took %d tasks, want 1", len(batch))
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Errorf("gather took %v, want no linger", el)
	}
}

// TestGatherWholeCohort: the echo target follows the fan-out's own
// cohort. A closed loop of twelve has taught the loop that everyone comes
// back; a fan-out that answered twenty gathers all twenty, the last
// eight trickling in after the first twelve, and then returns at once.
func TestGatherWholeCohort(t *testing.T) {
	s := idleServer(t)
	for i := 0; i < 3*echoDecay; i++ { // a closed loop of twelve
		fanOutNow(s, time.Minute, 12)
		s.fanout.Load().echoes.Store(12)
	}
	fanOutNow(s, time.Minute, 20)
	if s.echoRatio < 0.95 {
		t.Fatalf("learned echo ratio %.2f after a closed loop, want close to 1", s.echoRatio)
	}
	start := time.Now()
	for i := 0; i < 12; i++ {
		enqueue(s, time.Time{})
	}
	go func() {
		for i := 0; i < 8; i++ {
			time.Sleep(3 * time.Millisecond)
			enqueue(s, time.Time{})
		}
	}()
	batch := s.gatherBatch(bareTask())
	if len(batch) != 21 {
		t.Errorf("gather took %d tasks, want the first and a cohort of 20", len(batch))
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("gather returned after %v, want right after the last of the cohort", el)
	}
}

// prepareTask is the task a cross-partition commit request of gid over
// keys submits.
func prepareTask(t *testing.T, gid uint64, keys ...string) *task {
	t.Helper()
	entry, err := newLogEntry(core.KindPrepare, 1, 0, gid, []int{0, 1}, wsBytes(keys...))
	if err != nil {
		t.Fatal(err)
	}
	return newTask(kindCommit, entry)
}

// resolveTask is the task a Resolve of gid submits.
func resolveTask(gid uint64, commit bool) *task {
	kind := core.KindAbortMarker
	if commit {
		kind = core.KindCommitMarker
	}
	return newTask(kindResolve, emptyEntry(kind, gid))
}

// inOneBatch runs tasks through stages 2–5 as one batch, the way the
// certification loop does with what it gathered, and waits for their
// outcomes. The caller keeps every other request away meanwhile.
func inOneBatch(s *Server, tasks ...*task) {
	for _, t := range tasks {
		t.enqueued = time.Now()
	}
	s.processBatch(tasks)
	for _, t := range tasks {
		<-t.done
	}
}

// TestGatherTwoPhaseRounds: eight coordinators looping prepare →
// commit marker share flushes the way certifying clients do. Outside
// the batch loop each entry proposed on its own and only the log
// writer grouped them: the coordinators settled into two cohorts, each
// waiting out the other's flush (≈ 4 entries per fsync).
func TestGatherTwoPhaseRounds(t *testing.T) {
	g := newTestGroup(t, 1, slowDisk)
	ld := g.waitLeader(t)
	var gids atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Spread the first prepares over half a flush, so that the
			// coordinators do not start out as one cohort by luck.
			time.Sleep(time.Duration(i) * time.Millisecond)
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				gid := gids.Add(1)
				p, err := g.client.Certify(Request{GID: gid, Origin: 1 + i%2, Involved: []int{0, 1},
					WSBytes: wsBytes(fmt.Sprintf("c%d-%d", i, k))})
				if err != nil || !p.Yes {
					t.Errorf("coordinator %d: prepare %+v, %v", i, p, err)
					return
				}
				if _, err := g.client.Resolve(ResolveRequest{GID: gid, Commit: true}); err != nil {
					t.Errorf("coordinator %d: resolve: %v", i, err)
					return
				}
			}
		}(i)
	}
	time.Sleep(200 * time.Millisecond) // ≈ 10 cycles: the expected echo count builds up
	ld.ResetActivityStats()
	time.Sleep(600 * time.Millisecond)
	ds := ld.DiskStats()
	close(done)
	wg.Wait()
	t.Logf("%.2f entries per fsync over %d fsyncs", ds.GroupRatio(), ds.Fsyncs)
	if r := ds.GroupRatio(); r < 6 {
		t.Errorf("%.2f entries per fsync over %d fsyncs, want >= 6 (eight coordinators in one batch)", r, ds.Fsyncs)
	}
}

// TestGatherTwoGroupRounds: eight coordinators prepare in two groups at
// once and then resolve in both, as a partitioned replica's commit does.
// Each group holds its batch open for the markers of the prepares it has
// just answered, so both groups keep all eight in one batch per round
// and a prepare → resolve pair costs two cycles and the markers'
// windows, not the third cycle a round pays when a marker misses its
// group's batch. The disks take 40 ms, so that W (≈ 5 ms) stays above
// how far apart the race detector pushes the two groups' fan-outs.
func TestGatherTwoGroupRounds(t *testing.T) {
	disk := func(i int, cfg *Config) {
		cfg.Disk = simdisk.New(simdisk.Profile{FsyncLatency: 40 * time.Millisecond}, int64(i))
	}
	groups := []*testGroup{newTestGroup(t, 1, disk), newTestGroup(t, 1, disk)}
	var leaders []*Server
	for _, g := range groups {
		leaders = append(leaders, g.waitLeader(t))
	}
	// inBoth runs call against both groups at once and returns the first
	// error.
	inBoth := func(call func(c *Client) error) error {
		errs := make([]error, len(groups))
		var wg sync.WaitGroup
		for i, g := range groups {
			wg.Add(1)
			go func(i int, c *Client) {
				defer wg.Done()
				errs[i] = call(c)
			}(i, g.client)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	var gids atomic.Uint64
	var mu sync.Mutex
	var pairs []time.Duration
	measuring := atomic.Bool{}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * time.Millisecond)
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				gid := gids.Add(1)
				start := time.Now()
				err := inBoth(func(c *Client) error {
					p, err := c.Certify(Request{GID: gid, Origin: 1 + i%2, Involved: []int{0, 1},
						WSBytes: wsBytes(fmt.Sprintf("c%d-%d", i, k))})
					if err == nil && !p.Yes {
						err = fmt.Errorf("prepare refused: %+v", p)
					}
					return err
				})
				if err == nil {
					err = inBoth(func(c *Client) error {
						_, err := c.Resolve(ResolveRequest{GID: gid, Commit: true})
						return err
					})
				}
				if err != nil {
					t.Errorf("coordinator %d: %v", i, err)
					return
				}
				if measuring.Load() {
					mu.Lock()
					pairs = append(pairs, time.Since(start))
					mu.Unlock()
				}
			}
		}(i)
	}
	time.Sleep(400 * time.Millisecond) // ≈ 10 cycles: the echo ratio builds up
	for _, ld := range leaders {
		ld.ResetActivityStats()
	}
	measuring.Store(true)
	time.Sleep(1200 * time.Millisecond)
	measuring.Store(false)
	var ratios []float64
	var cycle time.Duration // the slower group's last drain-to-durability cycle
	for _, ld := range leaders {
		ratios = append(ratios, ld.DiskStats().GroupRatio())
		cycle = max(cycle, time.Duration(ld.cycle.Load()))
	}
	close(done)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(pairs) == 0 {
		t.Fatal("no prepare → resolve pair completed")
	}
	slices.Sort(pairs)
	median := pairs[len(pairs)/2]
	t.Logf("entries per fsync %.2f / %.2f; pair p50 %v over %d pairs; cycle %v", ratios[0], ratios[1], median, len(pairs), cycle)
	for g, r := range ratios {
		if r < 6 {
			t.Errorf("group %d: %.2f entries per fsync, want >= 6 (eight coordinators in one batch)", g, r)
		}
	}
	if limit := 5 * cycle / 2; median >= limit {
		t.Errorf("prepare → resolve pair p50 %v, want < 2.5 cycles (%v)", median, limit)
	}
}

// TestGatherOneRoundTwoGroups: eight coordinators prepare in two groups
// at once, as a partitioned replica's commit does, hand the commit
// markers to a goroutine and prepare again at once; one of them
// straggles by a quarter cycle before each round. The disks take 40 ms
// ± 5 ms, so one group often fans out more than W (≈ 5 ms) before the
// other. Each group holds for the markers and anchors its next batch on
// their bulk, which traces the partner's fan-out, so the groups flush in
// step and a round costs one cycle and a linger. A group that closed W
// after its own fan-out, before its late partner's markers came, or on
// the straggler's marker, would drift from its partner, and a round
// would then wait out a flush in one of them.
func TestGatherOneRoundTwoGroups(t *testing.T) {
	const fsync = 40 * time.Millisecond
	var mu sync.Mutex
	measuring := atomic.Bool{}
	var flushes [2][]time.Time // per group: fsync starts while measuring
	var groups []*testGroup
	for g := range 2 {
		groups = append(groups, newTestGroup(t, 1, func(i int, cfg *Config) {
			cfg.Disk = simdisk.New(simdisk.Profile{FsyncLatency: fsync, FsyncJitter: fsync / 8}, int64(g))
			cfg.Disk.SetHook(func(op simdisk.Op, _, _ int) {
				if op == simdisk.OpFsync && measuring.Load() {
					mu.Lock()
					flushes[g] = append(flushes[g], time.Now())
					mu.Unlock()
				}
			})
		}))
	}
	var leaders []*Server
	for _, g := range groups {
		leaders = append(leaders, g.waitLeader(t))
	}
	// inBoth runs call against both groups at once and returns the first
	// error.
	inBoth := func(call func(c *Client) error) error {
		errs := make([]error, len(groups))
		var wg sync.WaitGroup
		for i, g := range groups {
			wg.Add(1)
			go func(i int, c *Client) {
				defer wg.Done()
				errs[i] = call(c)
			}(i, g.client)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	var gids atomic.Uint64
	var rounds []time.Duration
	var wg, markers sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * time.Millisecond)
			for k := 0; ; k++ {
				if i == 0 {
					time.Sleep(fsync / 4)
				}
				select {
				case <-done:
					return
				default:
				}
				gid := gids.Add(1)
				start := time.Now()
				err := inBoth(func(c *Client) error {
					p, err := c.Certify(Request{GID: gid, Origin: 1 + i%2, Involved: []int{0, 1},
						WSBytes: wsBytes(fmt.Sprintf("c%d-%d", i, k))})
					if err == nil && !p.Yes {
						err = fmt.Errorf("prepare refused: %+v", p)
					}
					return err
				})
				if err != nil {
					t.Errorf("coordinator %d: %v", i, err)
					return
				}
				if measuring.Load() {
					mu.Lock()
					rounds = append(rounds, time.Since(start))
					mu.Unlock()
				}
				markers.Add(1)
				go func() {
					defer markers.Done()
					if err := inBoth(func(c *Client) error {
						_, err := c.Resolve(ResolveRequest{GID: gid, Commit: true})
						return err
					}); err != nil {
						t.Errorf("coordinator %d: resolve: %v", i, err)
					}
				}()
			}
		}(i)
	}
	time.Sleep(10 * fsync) // the echo ratio and the cycle build up
	measuring.Store(true)
	time.Sleep(30 * fsync)
	measuring.Store(false)
	var cycle time.Duration // the slower group's last drain-to-durability cycle
	for _, ld := range leaders {
		cycle = max(cycle, time.Duration(ld.cycle.Load()))
	}
	close(done)
	wg.Wait()
	markers.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(rounds) == 0 || len(flushes[0]) == 0 || len(flushes[1]) == 0 {
		t.Fatalf("%d rounds and %d / %d flushes measured", len(rounds), len(flushes[0]), len(flushes[1]))
	}
	// The offset of each of group 0's flushes from group 1's nearest.
	var offsets []time.Duration
	for _, a := range flushes[0] {
		near := time.Duration(1<<63 - 1)
		for _, b := range flushes[1] {
			near = min(near, max(a.Sub(b), b.Sub(a)))
		}
		offsets = append(offsets, near)
	}
	slices.Sort(offsets)
	slices.Sort(rounds)
	offset, round := offsets[len(offsets)/2], rounds[len(rounds)/2]
	w := cycle / lingerShare
	t.Logf("flush-start offset p50 %v over %d flushes; round p50 %v over %d rounds; cycle %v", offset, len(offsets), round, len(rounds), cycle)
	if offset > w {
		t.Errorf("the groups' flush starts are %v apart at the median, want within W = %v", offset, w)
	}
	if limit := 13 * cycle / 10; round > limit {
		t.Errorf("round p50 %v, want at most 1.3 cycles (%v)", round, limit)
	}
}

// TestTwoPhaseThroughTheLoop pins prepare and resolve semantics as stage
// 2 of the batch loop applies them, within one batch and across batches.
func TestTwoPhaseThroughTheLoop(t *testing.T) {
	g := newTestGroup(t, 1, nil)
	s := g.waitLeader(t)

	// One batch: a prepare, its duplicate, a second gid over the item
	// the first just locked, and a prepare over another item.
	first, dup, over, other := prepareTask(t, 1, "a"), prepareTask(t, 1, "a"), prepareTask(t, 2, "a"), prepareTask(t, 3, "b")
	inOneBatch(s, first, dup, over, other)
	for _, tk := range []*task{first, dup, over, other} {
		if tk.err != nil {
			t.Fatalf("gid %d: %v", tk.entry.GID, tk.err)
		}
	}
	if !first.yes {
		t.Fatal("the first prepare was refused")
	}
	if !dup.yes || dup.index != first.index {
		t.Errorf("duplicate in the same batch answered index %d (yes %v), want the first's %d", dup.index, dup.yes, first.index)
	}
	// The refusal is a vote: its abort marker is the next entry.
	if over.yes || over.index != first.index+1 {
		t.Errorf("a prepare over an item prepared earlier in the batch answered index %d (yes %v), want a no at %d", over.index, over.yes, first.index+1)
	}
	if !other.yes || other.index != first.index+2 {
		t.Errorf("prepare over another item answered index %d (yes %v), want %d", other.index, other.yes, first.index+2)
	}
	// A duplicate in a later batch.
	if resp, err := s.Certify(Request{GID: 1, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("a")}); err != nil || !resp.Yes || resp.Index != first.index {
		t.Errorf("duplicate in a later batch: %+v, %v; want index %d", resp, err, first.index)
	}

	// An abort marker fences its gid: a prepare arriving after it is
	// refused, although its item is free.
	if _, err := s.Resolve(ResolveRequest{GID: 4}); err != nil {
		t.Fatal(err)
	}
	if resp, err := s.Certify(Request{GID: 4, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("c")}); err != nil || resp.Yes {
		t.Errorf("prepare after its gid's abort marker: %+v, %v; want a refusal", resp, err)
	}
	// A commit decision for a gid this group never prepared is an error.
	if resp, err := s.Resolve(ResolveRequest{GID: 99, Commit: true}); err == nil {
		t.Errorf("resolve-commit of an unknown gid answered %+v", resp)
	}

	// A marker and its retry in one batch, then a retry in a later batch:
	// all get the first marker's index. The commit's answer carries the
	// log from the replica's frontier through the marker.
	commit, retry := resolveTask(1, true), resolveTask(1, true)
	commit.after = first.index - 1
	inOneBatch(s, commit, retry)
	if commit.err != nil || retry.err != nil {
		t.Fatalf("resolve: %v / %v", commit.err, retry.err)
	}
	if retry.index != commit.index {
		t.Errorf("retry in the same batch got index %d, want the first marker's %d", retry.index, commit.index)
	}
	if n := len(commit.remote); n == 0 || commit.remote[0].Version != first.index || commit.remote[n-1].Version != commit.index ||
		n != int(commit.index-first.index+1) {
		t.Errorf("the commit's answer ships %d entries %+v, want (%d, %d]", n, commit.remote, first.index-1, commit.index)
	}
	resp, err := s.Resolve(ResolveRequest{GID: 1, Commit: true, ReplicaVersion: commit.index - 1})
	if err != nil || resp.Index != commit.index {
		t.Errorf("retry in a later batch: %+v, %v; want index %d", resp, err, commit.index)
	}
	if len(resp.Remote) != 1 || resp.Remote[0].Version != commit.index {
		t.Errorf("retry's answer ships %+v, want the marker alone", resp.Remote)
	}
	// A certify answer ships the log after the replica's version through
	// its own entry: the markers before it, and itself.
	if r, err := g.client.Certify(Request{Origin: 1, StartVersion: resp.SystemVersion, ReplicaVersion: commit.index - 1, WSBytes: wsBytes("d")}); err != nil ||
		!r.Yes || len(r.Remote) == 0 || r.Remote[0].Version != commit.index || r.Remote[len(r.Remote)-1].Version != r.Index {
		t.Errorf("first certify after the 2PC traffic: %+v, %v; want the log (%d, commit]", r, err, commit.index-1)
	}
}

// TestVotesAreFirstRecords pins a group's vote for a gid as the first
// record its log holds for it. A refused prepare logs an abort marker —
// a no that outlives the answer — and a later duplicate of the prepare
// gets that no although its item is free by then. A veto on a gid
// without a record appends an abort marker; on a prepared gid it
// appends nothing and answers yes with the prepare's index, and ships
// the entries after the replica's frontier through the prepare, as the
// prepare's own answer does.
func TestVotesAreFirstRecords(t *testing.T) {
	g := newTestGroup(t, 1, nil)
	s := g.waitLeader(t)
	logLen := func() uint64 { return s.node.LogLength() }

	held, err := s.Certify(Request{GID: 1, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("a")})
	if err != nil || !held.Yes {
		t.Fatalf("prepare of gid 1: %+v, %v", held, err)
	}
	if n := len(held.Remote); n == 0 || held.Remote[n-1].Version != held.Index+alignPad {
		t.Errorf("the yes ships %+v, want the log through the prepare at %d and its batch's pad", held.Remote, held.Index)
	}

	// gid 2 meets gid 1's lock: refused, and the refusal is logged.
	before := logLen()
	refused, err := s.Certify(Request{GID: 2, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("a"), ReplicaVersion: held.Index})
	if err != nil || refused.Yes || refused.Index != before+1 || len(refused.Remote) != 0 {
		t.Fatalf("prepare over a locked item: %+v, %v; want a no at %d", refused, err, before+1)
	}
	s.mu.Lock()
	e, err := s.engine.Entry(core.Version(refused.Index))
	s.mu.Unlock()
	if err != nil || e.Kind != core.KindAbortMarker || e.GID != 2 {
		t.Fatalf("entry %d = %+v (%v), want gid 2's abort marker", refused.Index, e, err)
	}
	// Free the item; a late duplicate of the refused prepare still gets
	// the no, and logs nothing.
	if _, err := s.Resolve(ResolveRequest{GID: 1, Commit: true}); err != nil {
		t.Fatal(err)
	}
	before = logLen()
	dup, err := s.Certify(Request{GID: 2, Origin: 1, StartVersion: before, Involved: []int{0, 1}, WSBytes: wsBytes("a")})
	if err != nil || dup.Yes || dup.Index != refused.Index || logLen() != before {
		t.Errorf("late duplicate of the refused prepare: %+v, %v (log %d -> %d); want the no at %d", dup, err, before, logLen(), refused.Index)
	}

	// A veto on a gid without a record casts the no.
	before = logLen()
	veto, err := s.Resolve(ResolveRequest{GID: 3, Veto: true})
	if err != nil || veto.Prepared || veto.Index != before+1 {
		t.Fatalf("veto of an unknown gid: %+v, %v; want a no at %d", veto, err, before+1)
	}
	if p, err := s.Certify(Request{GID: 3, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("c")}); err != nil || p.Yes || p.Index != veto.Index {
		t.Errorf("prepare after its veto: %+v, %v; want the veto's no at %d", p, err, veto.Index)
	}

	// A veto on a prepared gid appends nothing and answers its yes.
	yes, err := s.Certify(Request{GID: 4, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("d")})
	if err != nil || !yes.Yes {
		t.Fatalf("prepare of gid 4: %+v, %v", yes, err)
	}
	before = logLen()
	veto, err = s.Resolve(ResolveRequest{GID: 4, Veto: true, ReplicaVersion: yes.Index - 1})
	if err != nil || !veto.Prepared || veto.Index != yes.Index || logLen() != before {
		t.Errorf("veto of a prepared gid: %+v, %v (log %d -> %d); want the yes at %d and no entry", veto, err, before, logLen(), yes.Index)
	}
	if len(veto.Remote) != 1 || veto.Remote[0].Version != yes.Index {
		t.Errorf("the veto's yes ships %+v, want the prepare alone", veto.Remote)
	}
	s.mu.Lock()
	oldest := s.engine.OldestPrepared()
	s.mu.Unlock()
	if oldest != core.Version(yes.Index) {
		t.Errorf("oldest unresolved prepare %d, want gid 4's at %d: a veto must not resolve a yes", oldest, yes.Index)
	}
	if _, err := s.Resolve(ResolveRequest{GID: 4, Commit: true, Veto: true}); err == nil {
		t.Error("a resolve that both commits and vetoes was served")
	}
}

// TestPreparePadsToFillTo: a yes pads the group's log with fill no-ops
// up to FillTo before its prepare, and its batch ends alignPad no-ops
// past its last entry; the yes ships them all. A FillTo below the head
// pads nothing before the prepare, and a refusal pads nothing at all.
func TestPreparePadsToFillTo(t *testing.T) {
	g := newTestGroup(t, 1, nil)
	s := g.waitLeader(t)
	head := s.node.LogLength()
	p, err := s.Certify(Request{GID: 1, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("a"), FillTo: head + 3})
	if err != nil || !p.Yes || p.Index != head+4 || s.node.LogLength() != head+4+alignPad {
		t.Fatalf("prepare with FillTo %d over a log of %d: %+v, %v (log %d); want a yes at %d and a log of %d",
			head+3, head, p, err, s.node.LogLength(), head+4, head+4+alignPad)
	}
	s.mu.Lock()
	for v := head + 1; v <= p.Index+alignPad; v++ {
		if v == p.Index {
			continue
		}
		if e, err := s.engine.Entry(core.Version(v)); err != nil || e.Kind != core.KindData || !e.WS.Empty() {
			t.Errorf("entry %d = %+v (%v), want a fill no-op", v, e, err)
		}
	}
	s.mu.Unlock()
	if n := len(p.Remote); n != 4+alignPad || p.Remote[3].Version != p.Index || p.Remote[n-1].Version != p.Index+alignPad {
		t.Errorf("the yes ships %d entries, want the fills, the prepare and the pad", n)
	}
	head = s.node.LogLength()
	if p, err := s.Certify(Request{GID: 2, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("b"), FillTo: head - 2}); err != nil || p.Index != head+1 {
		t.Errorf("prepare with FillTo below the head: %+v, %v; want a yes at %d", p, err, head+1)
	}
	head = s.node.LogLength()
	if p, err := s.Certify(Request{GID: 3, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("a"), FillTo: head + 5}); err != nil || p.Yes || p.Index != head+1 || s.node.LogLength() != head+1 {
		t.Errorf("refused prepare with FillTo %d: %+v, %v (log %d); want a no at %d and no fill", head+5, p, err, s.node.LogLength(), head+1)
	}
}

// TestExpiredRequestLogsNothing: a commit request whose caller's
// deadline has passed fails with the expired error before it is checked,
// one-group and cross-partition alike: nothing of it enters the log, and
// admission counts it as expired.
func TestExpiredRequestLogsNothing(t *testing.T) {
	s := StartLeader(t)
	past := time.Now().Add(-time.Second).UnixNano()
	for i, involved := range [][]int{nil, {0, 1}} {
		before := s.node.LogLength()
		resp, err := s.Certify(Request{GID: uint64(i + 1), Origin: 1, Involved: involved, WSBytes: wsBytes("k"), Deadline: past})
		if !errors.Is(err, errDeadlineExpired) {
			t.Errorf("involved %v: expired request answered %+v, %v; want the expired error", involved, resp, err)
		}
		if n := s.node.LogLength(); n != before {
			t.Errorf("involved %v: the log grew from %d to %d entries", involved, before, n)
		}
		if n := s.QueueStats().Expired; n != int64(i+1) {
			t.Errorf("involved %v: %d requests counted expired, want %d", involved, n, i+1)
		}
	}
}

// TestFailedProposeFailsEveryPrepare: when the batched propose fails,
// every prepare of the batch fails with it — the duplicate answered by
// the batch's own entry included — and the rebuilt engine holds none of
// their locks.
func TestFailedProposeFailsEveryPrepare(t *testing.T) {
	g := newTestGroup(t, 1, nil)
	s := g.waitLeader(t)
	if _, err := s.pull(PullRequest{}); err != nil { // builds the engine
		t.Fatal(err)
	}
	// Skew the engine one entry ahead of the log, as a propose that
	// landed elsewhere would leave it.
	s.mu.Lock()
	skew := noop
	skew.Version = s.engine.SystemVersion() + 1
	if err := s.engine.Append(skew); err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	tasks := []*task{prepareTask(t, 1, "a"), prepareTask(t, 1, "a"), prepareTask(t, 2, "b")}
	inOneBatch(s, tasks...)
	for i, tk := range tasks {
		if tk.err == nil {
			t.Errorf("prepare %d of the batch answered index %d after a failed propose", i, tk.index)
		}
	}
	if _, err := s.pull(PullRequest{}); err != nil { // rebuilds the engine
		t.Fatal(err)
	}
	s.mu.Lock()
	oldest := s.engine.OldestPrepared()
	s.mu.Unlock()
	if oldest != 0 {
		t.Errorf("the rebuilt engine holds an unresolved prepare at %d", oldest)
	}
	if resp, err := s.Certify(Request{GID: 1, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("a")}); err != nil || !resp.Yes || resp.Index != 1 {
		t.Errorf("prepare after the failed batch: %+v, %v; want index 1", resp, err)
	}
}

// TestResolveLandsThroughFullQueue: a decision marker is never shed. The
// queue holds one task, admission waits 1 ms, and certify requests keep
// it full, so they are shed — but a commit marker still lands.
func TestResolveLandsThroughFullQueue(t *testing.T) {
	g := newTestGroup(t, 1, func(i int, cfg *Config) {
		slowDisk(i, cfg)
		cfg.MaxBatch, cfg.QueueDepth, cfg.AdmitTimeout = 1, 1, time.Millisecond
	})
	ld := g.waitLeader(t)
	if p, err := g.client.Certify(Request{GID: 7, Origin: 1, Involved: []int{0, 1}, WSBytes: wsBytes("held")}); err != nil || !p.Yes {
		t.Fatalf("prepare: %+v, %v", p, err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				_, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes(fmt.Sprintf("f%d-%d", i, k))})
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("flood %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	defer func() {
		close(done)
		wg.Wait()
	}()
	for ld.QueueStats().Shed == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := g.client.Resolve(ResolveRequest{GID: 7, Commit: true}); err != nil {
		t.Fatalf("resolve through a full queue: %v", err)
	}
	ld.mu.Lock()
	oldest := ld.engine.OldestPrepared()
	ld.mu.Unlock()
	if oldest != 0 {
		t.Errorf("the prepare at %d is still unresolved", oldest)
	}
}
