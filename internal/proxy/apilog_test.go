package proxy

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/mvstore"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
)

// Tashkent-API logs every commit record of a run of the merged stream on
// the merger goroutine, as one batch (applyRun, logRun). These tests pin
// what that buys and what it must not break: one fsync per response, log
// order = global order, durability before publication and
// acknowledgement, each range logged once whatever its installs go
// through, an own commit that leaves the merger without losing its place
// in the dependency window, and recovery from a crash between the append
// and its fsync.

// logRanges crashes store (the test is done with it) and returns the
// (from, to] labels of its surviving commit records, in log order.
func logRanges(t *testing.T, store *mvstore.Store) [][2]uint64 {
	t.Helper()
	img, _ := store.Crash()
	payloads, err := wal.Scan(img)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]uint64
	for _, p := range payloads {
		rec, err := mvstore.DecodeCommitRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]uint64{rec.From, rec.To})
	}
	return out
}

func TestAPIResponseCostsOneFsync(t *testing.T) {
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 4 * time.Millisecond}, 3)
	r := newRig(t, 3, TashkentAPI, func(i int, _ *Config, scfg *mvstore.Config) {
		if i == 2 {
			scfg.LogDisk = logDisk
		}
	})
	// Two remote writesets wait at the certifier for replica 2.
	if err := commitUpdate(t, r.proxies[0], "t", "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := commitUpdate(t, r.proxies[1], "t", "b", "2"); err != nil {
		t.Fatal(err)
	}

	// Every flush of replica 2's log, with what the replica had announced
	// and acknowledged when the flush began.
	type flush struct {
		records   int
		announced uint64
		acked     bool
	}
	var (
		mu      sync.Mutex
		flushes []flush
		acked   atomic.Bool
	)
	store := r.stores[2]
	logDisk.SetHook(func(op simdisk.Op, records, _ int) {
		if op != simdisk.OpFsync {
			return
		}
		mu.Lock()
		flushes = append(flushes, flush{records, store.AnnouncedVersion(), acked.Load()})
		mu.Unlock()
	})
	if err := commitUpdate(t, r.proxies[2], "t", "c", "3"); err != nil {
		t.Fatal(err)
	}
	acked.Store(true)
	if got := store.AnnouncedVersion(); got != 3 {
		t.Fatalf("replica 2 announced %d after its commit at version 3", got)
	}
	logDisk.SetHook(nil)

	chunks := int(r.proxies[2].Stats().RemoteChunks)
	if chunks == 0 || r.proxies[2].Stats().RemoteApplied != 2 {
		t.Fatalf("response carried %d remote writesets in %d chunks, want 2 in >= 1",
			r.proxies[2].Stats().RemoteApplied, chunks)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(flushes) != 1 {
		t.Fatalf("the response cost %d fsyncs %+v, want exactly 1", len(flushes), flushes)
	}
	f := flushes[0]
	if f.records != chunks+1 {
		t.Errorf("the fsync covered %d records, want the response's %d chunk record(s) + its own commit", f.records, chunks)
	}
	if f.announced != 0 || f.acked {
		t.Errorf("announced %d / acked %v before the response's records were durable", f.announced, f.acked)
	}
	ranges := logRanges(t, store)
	if len(ranges) != chunks+1 {
		t.Fatalf("log holds %v, want %d records", ranges, chunks+1)
	}
	var at uint64
	for _, rg := range ranges {
		if rg[0] != at || rg[1] <= rg[0] {
			t.Fatalf("log order %v is not the ascending chain (0,..](..,3]", ranges)
		}
		at = rg[1]
	}
	if at != 3 {
		t.Errorf("log %v ends at %d, want 3", ranges, at)
	}
}

// TestAPIAppendsEachRangeOnce: the database rejecting a commit (§8.1
// soft recovery) makes the proxy retry it — a requeued chunk install, a
// re-apply of the local writeset — behind the record the slot already
// logged, not behind a second one.
func TestAPIAppendsEachRangeOnce(t *testing.T) {
	t.Run("chunk install", func(t *testing.T) {
		r := newRig(t, 2, TashkentAPI, nil)
		if err := commitUpdate(t, r.proxies[0], "t", "a", "1"); err != nil {
			t.Fatal(err)
		}
		// The local commit at version 2 waits for the chunk (0,1] to
		// publish, so the chunk's first install attempt takes the
		// rejection.
		r.stores[1].FailNextCommit(1)
		if err := commitUpdate(t, r.proxies[1], "t", "b", "2"); err != nil {
			t.Fatal(err)
		}
		if got := r.proxies[1].Stats().SoftRecoveries; got != 1 {
			t.Errorf("SoftRecoveries = %d, want 1 (the requeued chunk)", got)
		}
		if err := r.proxies[0].PullOnce(); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, r, 2)
		if a, b := r.stores[0].Fingerprint(), r.stores[1].Fingerprint(); a != b {
			t.Errorf("replicas diverged: %08x vs %08x", a, b)
		}
		if got := fmt.Sprint(logRanges(t, r.stores[1])); got != "[[0 1] [1 2]]" {
			t.Errorf("replica 1 log = %s, want each range once: [[0 1] [1 2]]", got)
		}
	})
	t.Run("own commit", func(t *testing.T) {
		r := newRig(t, 1, TashkentAPI, nil)
		r.stores[0].FailNextCommit(1)
		if err := commitUpdate(t, r.proxies[0], "t", "x", "v1"); err != nil {
			t.Fatalf("commit with injected rejection should soft-recover: %v", err)
		}
		if v, ok := readVal(t, r.proxies[0], "t", "x"); !ok || v != "v1" {
			t.Errorf("after soft recovery x = %q %v", v, ok)
		}
		if r.proxies[0].Stats().SoftRecoveries == 0 {
			t.Error("soft recovery not recorded")
		}
		if got := fmt.Sprint(logRanges(t, r.stores[0])); got != "[[0 1]]" {
			t.Errorf("log = %s, want the range once: [[0 1]]", got)
		}
	})
}

// TestAPIOwnCommitHeldInTheWindow: the merger hands a Tashkent-API own
// commit to its client and goes on to the next run. Here the client still
// waits for its run's fsync when a later remote writeset on the same row
// is scheduled; that writeset must install after the own commit
// publishes — not first, and not by killing the client's transaction.
func TestAPIOwnCommitHeldInTheWindow(t *testing.T) {
	logDisk := simdisk.New(simdisk.Instant(), 11)
	r := newRig(t, 2, TashkentAPI, func(i int, _ *Config, scfg *mvstore.Config) {
		if i == 0 {
			scfg.LogDisk = logDisk
		}
	})
	reached, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	logDisk.SetHook(func(op simdisk.Op, _, _ int) {
		if op == simdisk.OpFsync {
			first.Do(func() {
				close(reached)
				<-release
			})
		}
	})
	own := make(chan error, 1)
	go func() { own <- commitUpdate(t, r.proxies[0], "t", "x", "own") }()
	<-reached // version 1's run is logged; its client waits for the fsync

	// Replica 1 writes the row again at version 2, and replica 0 pulls it.
	if err := r.proxies[1].PullOnce(); err != nil {
		t.Fatal(err)
	}
	if err := r.stores[1].WaitAnnounced(1, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := commitUpdate(t, r.proxies[1], "t", "x", "remote"); err != nil {
		t.Fatal(err)
	}
	if err := r.proxies[0].PullOnce(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for r.proxies[0].ApplyStats().Submitted < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("version 2 never reached replica 0's window (stats %+v)", r.proxies[0].ApplyStats())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // a chunk free to install does so now
	close(release)
	if err := <-own; err != nil {
		t.Fatalf("own commit: %v", err)
	}
	if err := r.stores[0].WaitAnnounced(2, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := readVal(t, r.proxies[0], "t", "x"); v != "remote" {
		t.Errorf("replica 0 x = %q, want remote (version 2 over version 1)", v)
	}
	if st := r.proxies[0].Stats(); st.EagerKills != 0 || st.SoftRecoveries != 0 {
		t.Errorf("EagerKills = %d SoftRecoveries = %d, want 0/0: version 2 did not wait for the own commit",
			st.EagerKills, st.SoftRecoveries)
	}
	if a, b := r.stores[0].Fingerprint(), r.stores[1].Fingerprint(); a != b {
		t.Errorf("replicas diverged: %08x vs %08x", a, b)
	}
}

// TestAPIOwnCommitWaitIsBounded: a Tashkent-API local commit publishes
// only at its turn, so one whose predecessor never publishes would park
// its client for good. Its client gives up after ChunkWaitTimeout with
// the outcome unknown, and a late publish still resolves the entry.
func TestAPIOwnCommitWaitIsBounded(t *testing.T) {
	const bound = 150 * time.Millisecond
	r := newRig(t, 1, TashkentAPI, func(_ int, cfg *Config, _ *mvstore.Config) {
		cfg.ChunkWaitTimeout = bound
	})
	p, store := r.proxies[0], r.stores[0]
	tx, err := store.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", "x", map[string][]byte{"v": []byte("own")}); err != nil {
		t.Fatal(err)
	}
	// The local commit at (1,2], logged as its run would log it; (0,1]
	// is never announced.
	e := &applyEntry{from: 1, to: 2, ws: tx.Writeset(), held: true, done: make(chan mvstore.PendingOutcome, 1)}
	if err := p.logRun([]*applyEntry{e}, store.AnnouncedVersion()); err != nil || e.logged == nil {
		t.Fatalf("logRun: %v (ticket %v)", err, e.logged != nil)
	}
	p.sched.submit(e)
	start := time.Now()
	err = p.finishOwn(e, tx)
	if took := time.Since(start); err == nil || took > bound+500*time.Millisecond {
		t.Fatalf("finishOwn returned %v after %v, want an error within %v", err, took, bound)
	}
	if got := store.AnnouncedVersion(); got != 0 {
		t.Fatalf("announced %d behind a (0,1] that never came", got)
	}
	if _, ok := readVal(t, p, "t", "x"); ok {
		t.Fatal("the local commit is visible before its turn")
	}

	// (0,1] lands late: the held commit publishes after it.
	commitVersion1(t, store)
	if err := store.WaitAnnounced(2, time.Second); err != nil {
		t.Fatalf("the local commit did not publish once (0,1] landed: %v", err)
	}
	if v, ok := readVal(t, p, "t", "x"); !ok || v != "own" {
		t.Errorf("x = %q %v after the late publish, want own", v, ok)
	}
	if st := settledStats(p, 1); st.Published != 1 || st.GaveUp != 0 {
		t.Errorf("Published = %d GaveUp = %d, want the held entry resolved once, published", st.Published, st.GaveUp)
	}
}

// TestAPICrashBetweenAppendAndFsync: a response's batch is in the log
// queue and its fsync is held; nothing of the response is visible or
// acknowledged; the replica crashes there. Recovery replays a log whose
// last records never had an installer, resyncs, and ends on the state of
// the replicas that never crashed with every acknowledged commit in it.
func TestAPICrashBetweenAppendAndFsync(t *testing.T) {
	logDisk := simdisk.New(simdisk.Instant(), 9)
	r := newRig(t, 3, TashkentAPI, func(i int, _ *Config, scfg *mvstore.Config) {
		if i == 2 {
			scfg.LogDisk = logDisk
		}
	})
	acked := map[string]string{}
	commit := func(i int, key, val string) {
		t.Helper()
		if err := commitUpdate(t, r.proxies[i], "t", key, val); err != nil {
			t.Fatal(err)
		}
		acked[key] = val
	}
	commit(2, "c0", "0") // version 1, durable at replica 2
	commit(0, "a", "1")
	commit(1, "b", "2")

	reached, release := make(chan struct{}, 1), make(chan struct{})
	logDisk.SetHook(func(op simdisk.Op, _, _ int) {
		if op != simdisk.OpFsync {
			return
		}
		select {
		case reached <- struct{}{}:
		default:
		}
		<-release
	})
	// Versions 2 and 3 arrive with this commit's response; its batch is
	// appended in the slot and its fsync blocks.
	inFlight := make(chan error, 1)
	go func() { inFlight <- commitUpdate(t, r.proxies[2], "t", "c1", "3") }()
	<-reached
	store := r.stores[2]
	if got := store.AnnouncedVersion(); got != 1 {
		t.Errorf("replica 2 announced %d with the response's fsync still held, want 1", got)
	}
	select {
	case err := <-inFlight:
		t.Fatalf("commit returned (%v) before its record was durable", err)
	default:
	}

	// Crash. The store refuses every commit from here on; the log then
	// drains, so the held batch survives with no installer behind it.
	crashed := make(chan []byte, 1)
	go func() {
		img, _ := store.Crash()
		crashed <- img
	}()
	for {
		tx, err := store.Begin()
		if err != nil {
			break
		}
		tx.Abort()
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	img := <-crashed
	logDisk.SetHook(nil)
	if err := <-inFlight; err == nil {
		t.Error("a commit was acknowledged by a store that crashed before its record was durable")
	}
	r.proxies[2].Close()

	// Standard recovery (replica.Recover): replay, announce the chain,
	// resync from the certifier log.
	scfg := mvstore.Config{LockTimeout: 500 * time.Millisecond}
	recovered, info, err := mvstore.RecoverFromWAL(scfg, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if info.Records != 3 || info.CoveredTo != 4 || info.Gaps != 0 {
		t.Errorf("recovery info %+v, want the records (0,1] (1,3] (3,4] chained to 4", info)
	}
	pcfg := r.proxies[2].cfg
	pcfg.Store = recovered
	p := New(pcfg)
	defer p.Close()
	p.SetReplicaVersion(info.CoveredTo)
	if err := p.Resync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.proxies[i].PullOnce(); err != nil {
			t.Fatal(err)
		}
	}
	// The in-flight commit's fate is the certifier's: version 4 exists.
	waitConverged(t, &rig{stores: []*mvstore.Store{r.stores[0], r.stores[1], recovered}}, 4)
	if a, b, c := r.stores[0].Fingerprint(), r.stores[1].Fingerprint(), recovered.Fingerprint(); a != b || a != c {
		t.Errorf("recovered replica %08x diverges from the never-crashed witnesses %08x / %08x", c, a, b)
	}
	for key, val := range acked {
		if got, ok := readVal(t, p, "t", key); !ok || got != val {
			t.Errorf("acknowledged commit %s=%s reads %q %v after recovery", key, val, got, ok)
		}
	}
}
