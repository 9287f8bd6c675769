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

// Tashkent-API logs every commit record of a certifier response in the
// response's sequencer slot, as one batch (applyRun, logRun). These
// tests pin what that buys and what it must not break: one fsync per
// response, log order = global order, durability before publication and
// acknowledgement, each range logged once whatever its installs go
// through, and recovery from a crash between the append and its fsync.

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
	scfg := mvstore.Config{LockTimeout: 500 * time.Millisecond, OrderTimeout: 2 * time.Second}
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
