package proxy

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
)

// upEntry builds one single-key update RemoteEntry at version v.
func upEntry(v uint64, key string, cols ...core.ColUpdate) RemoteEntry {
	if len(cols) == 0 {
		cols = []core.ColUpdate{{Col: "v", Value: []byte(fmt.Sprintf("%d", v))}}
	}
	return RemoteEntry{Version: v, WS: &core.Writeset{Ops: []core.WriteOp{
		{Kind: core.OpUpdate, Table: "t", Key: key, Cols: cols},
	}}}
}

// submitRemotes hands labeled writesets (ascending versions) to p's
// scheduler without a certification round trip, one entry each, and
// returns once they are scheduled: wait on Store.WaitAnnounced for
// completion.
func submitRemotes(p *Proxy, entries []RemoteEntry) { submitWaiting(p, entries, nil) }

// submitWaiting is submitRemotes, except that the entry at version v
// waits for the store to announce waitFor[v] before it takes its locks —
// the version wait of a requeued install.
func submitWaiting(p *Proxy, entries []RemoteEntry, waitFor map[uint64]uint64) {
	ents := make([]*applyEntry, len(entries))
	for i, e := range entries {
		ents[i] = &applyEntry{from: e.Version - 1, to: e.Version, ws: e.WS, waitFor: waitFor[e.Version]}
	}
	p.sched.submit(ents...)
	p.advanceRV(entries[len(entries)-1].Version)
}

// settledStats returns the applier's snapshot once n entries have
// resolved: publication callbacks trail the store's announce by a
// moment, so the counters may lag a WaitAnnounced that just returned.
func settledStats(p *Proxy, n int64) ApplyStats {
	deadline := time.Now().Add(time.Second)
	for {
		st := p.ApplyStats()
		if st.Published+st.Superseded+st.GaveUp >= n || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParallelApplyDisjointParallelizes(t *testing.T) {
	// Disjoint-key writesets must install concurrently: with a slow
	// fsync the workers' WAL appends group into shared fsyncs, and the
	// parallelism high-watermark exceeds one.
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 2 * time.Millisecond}, 1)
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ApplyWorkers = 8
		scfg.LogDisk = logDisk
		scfg.WALMode = wal.SyncCommits
	})
	p := r.proxies[0]
	const n = 64
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, fmt.Sprintf("k%03d", v)))
	}
	submitRemotes(p, entries)
	if err := r.stores[0].WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	for v := uint64(1); v <= n; v++ {
		if got, ok := readVal(t, p, "t", fmt.Sprintf("k%03d", v)); !ok || got != fmt.Sprintf("%d", v) {
			t.Fatalf("k%03d = %q, %v", v, got, ok)
		}
	}
	st := settledStats(p, n)
	if st.Published != n {
		t.Errorf("Published = %d, want %d (superseded %d, gaveUp %d)",
			st.Published, n, st.Superseded, st.GaveUp)
	}
	if st.Parallelism.Max < 2 {
		t.Errorf("Parallelism.Max = %d; disjoint installs never overlapped", st.Parallelism.Max)
	}
	if f := logDisk.Stats().Fsyncs; f >= n {
		t.Errorf("%d fsyncs for %d parallel installs; expected group commit", f, n)
	}
}

func TestParallelApplyOverlappingSerializes(t *testing.T) {
	// Same-key writesets form a dependency chain: each install must wait
	// for its predecessor's publication, because update-installs merge
	// the previously visible columns. Every version updates a different
	// column of one hot row; if the scheduler ever installed out of
	// order, the merge would drop a predecessor's column.
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ApplyWorkers = 8
	})
	p := r.proxies[0]
	const n = 16
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, "hot",
			core.ColUpdate{Col: fmt.Sprintf("c%02d", v), Value: []byte(fmt.Sprintf("%d", v))}))
	}
	submitRemotes(p, entries)
	if err := r.stores[0].WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	row, ok, err := tx.Read("t", "hot")
	if err != nil || !ok {
		t.Fatalf("Read(hot) = %v, %v", ok, err)
	}
	for v := uint64(1); v <= n; v++ {
		col := fmt.Sprintf("c%02d", v)
		if string(row[col]) != fmt.Sprintf("%d", v) {
			t.Errorf("column %s = %q; a same-key install ran before its predecessor published",
				col, row[col])
		}
	}
	if st := settledStats(p, n); st.Published != n {
		t.Errorf("Published = %d, want %d", st.Published, n)
	}
}

func TestParallelApplyPublicationOrderTotal(t *testing.T) {
	// Under concurrent installs a reader must always see a version-
	// ordered prefix: if key v is visible, every key v' < v is too.
	// Mixed dependency structure (every third version hits a hot key)
	// exercises both parallel and chained publication paths.
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 500 * time.Microsecond}, 1)
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ApplyWorkers = 8
		scfg.LogDisk = logDisk
		scfg.WALMode = wal.SyncCommits
	})
	p, store := r.proxies[0], r.stores[0]
	const n = 96
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		key := fmt.Sprintf("k%03d", v)
		e := upEntry(v, key)
		if v%3 == 0 {
			e.WS.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: "hot",
				Cols: []core.ColUpdate{{Col: "v", Value: []byte(fmt.Sprintf("%d", v))}}})
		}
		entries = append(entries, e)
	}

	var stop atomic.Bool
	violation := make(chan string, 1)
	go func() {
		for !stop.Load() {
			tx, err := store.Begin()
			if err != nil {
				return
			}
			// Scan from the top: the highest visible version bounds what
			// the snapshot must contain below it.
			high := uint64(0)
			for v := uint64(n); v >= 1; v-- {
				if _, ok, _ := tx.ReadCol("t", fmt.Sprintf("k%03d", v), "v"); ok {
					high = v
					break
				}
			}
			for v := uint64(1); v < high; v++ {
				if _, ok, _ := tx.ReadCol("t", fmt.Sprintf("k%03d", v), "v"); !ok {
					select {
					case violation <- fmt.Sprintf("snapshot shows k%03d but not k%03d", high, v):
					default:
					}
					break
				}
			}
			tx.Abort()
		}
	}()

	submitRemotes(p, entries)
	if err := store.WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	stop.Store(true)
	select {
	case msg := <-violation:
		t.Fatal(msg)
	default:
	}
	if st := settledStats(p, n); st.Published != n || st.GaveUp != 0 {
		t.Errorf("Published = %d GaveUp = %d, want %d/0", st.Published, st.GaveUp, n)
	}
}

func TestParallelApplyMatchesSerialState(t *testing.T) {
	// The pool must reach exactly the state a bare store reaches applying
	// the stream one version at a time on a conflicted stream (same-key
	// versions serialize through dependency edges; disjoint ones commute
	// via absolute values). The reference shares no proxy code and
	// commits unlabeled, so it does not go through the pending list it
	// judges; labels do not enter the fingerprint.
	r := newRig(t, 1, TashkentAPI, nil)
	const n = 150
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, fmt.Sprintf("k%02d", (v*7)%30)))
	}
	submitRemotes(r.proxies[0], entries)
	if err := r.stores[0].WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	ref := mvstore.Open(mvstore.Config{})
	defer ref.Close()
	for _, e := range entries {
		tx, err := ref.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.ApplyWriteset(e.WS); err != nil {
			t.Fatalf("serial apply of v%d: %v", e.Version, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("serial commit of v%d: %v", e.Version, err)
		}
	}
	if a, b := r.stores[0].Fingerprint(), ref.Fingerprint(); a != b {
		t.Fatalf("parallel fingerprint %08x != serial fingerprint %08x", a, b)
	}
}

func TestApplySubmitLargerThanWindow(t *testing.T) {
	// One submission larger than the window bound parks the submitter
	// until entries drain; it must wake the idle pool before it parks.
	r := newRig(t, 1, TashkentAPI, nil)
	p, store := r.proxies[0], r.stores[0]
	const n = maxApplyWindow + 904
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, fmt.Sprintf("k%04d", v)))
	}
	submitted := make(chan struct{})
	go func() {
		submitRemotes(p, entries)
		close(submitted)
	}()
	select {
	case <-submitted:
	case <-time.After(20 * time.Second):
		t.Fatalf("submit of %d entries never returned (stats %+v)", n, p.ApplyStats())
	}
	if err := store.WaitAnnounced(n, 20*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	if st := settledStats(p, n); st.Published != n || st.GaveUp != 0 {
		t.Errorf("Published = %d GaveUp = %d, want %d/0", st.Published, st.GaveUp, n)
	}
}

func TestApplyVersionWaitClockStartsWhenRunnable(t *testing.T) {
	// An entry waiting for a version, queued behind a slow same-key
	// chain, must not be given up while the version it awaits is still
	// ahead of it in the window: its ChunkWaitTimeout starts when its
	// dependencies have published, not at submit.
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 10 * time.Millisecond}, 1)
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ChunkWaitTimeout = 100 * time.Millisecond
		scfg.LogDisk = logDisk
		scfg.WALMode = wal.SyncCommits
	})
	p, store := r.proxies[0], r.stores[0]
	const n = 31 // 30 chained fsyncs ≈ 3 × ChunkWaitTimeout ahead of the last entry
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, "hot"))
	}
	submitWaiting(p, entries, map[uint64]uint64{n: n - 1})
	if err := store.WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v (stats %+v)", n, err, p.ApplyStats())
	}
	if st := settledStats(p, n); st.GaveUp != 0 || st.Published != n {
		t.Errorf("GaveUp = %d Published = %d, want 0/%d", st.GaveUp, st.Published, n)
	}
}

func TestApplyOneWorkerIsSerialGate(t *testing.T) {
	// The serial apply discipline is the pool size 1: one install at a
	// time, so on a sync-WAL store every writeset pays its own fsync.
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 200 * time.Microsecond}, 1)
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ApplyWorkers = 1
		scfg.LogDisk = logDisk
		scfg.WALMode = wal.SyncCommits
	})
	p := r.proxies[0]
	const n = 64
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, fmt.Sprintf("k%03d", v)))
	}
	submitRemotes(p, entries)
	if err := r.stores[0].WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	st := settledStats(p, n)
	if st.Workers != 1 || st.Published != n || st.Parallelism.Max != 1 {
		t.Errorf("Workers = %d Published = %d Parallelism.Max = %d, want 1/%d/1",
			st.Workers, st.Published, st.Parallelism.Max, n)
	}
	if f := logDisk.Stats().Fsyncs; f != n {
		t.Errorf("%d fsyncs for %d serial installs, want one each", f, n)
	}
}

func TestApplyDefaultPoolSize(t *testing.T) {
	r := newRig(t, 1, Base, nil)
	if w := r.proxies[0].ApplyStats().Workers; w != defaultApplyWorkers {
		t.Errorf("ApplyWorkers: 0 built a pool of %d, want %d", w, defaultApplyWorkers)
	}
}

// commitVersion1 announces version 1 from outside the scheduler, the way
// a client's own commit or a resync does.
func commitVersion1(t *testing.T, store *mvstore.Store) {
	t.Helper()
	tx, err := store.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", "own", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitLabeled(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestApplyVersionWaitsNeverHoldWorkers(t *testing.T) {
	// Two workers; v4 and v5 wait for v3, which chains behind v2, which
	// cannot publish before v1 lands. If the version waits occupied the
	// workers, v3 would become runnable with nobody to run it: the pool
	// would sit out ChunkWaitTimeout, give an entry up and leave v5
	// unannounced.
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ApplyWorkers = 2
	})
	p, store := r.proxies[0], r.stores[0]
	submitWaiting(p, []RemoteEntry{upEntry(2, "a"), upEntry(3, "a"), upEntry(4, "c"), upEntry(5, "d")},
		map[uint64]uint64{4: 3, 5: 3})
	time.Sleep(50 * time.Millisecond) // let the pool take what it will
	commitVersion1(t, store)
	if err := store.WaitAnnounced(5, time.Second); err != nil {
		t.Fatalf("v5 not announced within 1 s of v1 landing: %v (stats %+v)", err, p.ApplyStats())
	}
	if st := settledStats(p, 4); st.GaveUp != 0 || st.Published != 4 {
		t.Errorf("GaveUp = %d Published = %d, want 0/4", st.GaveUp, st.Published)
	}
}

func TestApplyVersionWaitWakesOnOutsideAnnounce(t *testing.T) {
	// The awaited version may be announced by code that is not a
	// scheduler entry; the scheduler's one version waiter must notice.
	// One that never arrives gives its entry up after ChunkWaitTimeout.
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ChunkWaitTimeout = 150 * time.Millisecond
	})
	p, store := r.proxies[0], r.stores[0]
	submitWaiting(p, []RemoteEntry{upEntry(2, "a"), upEntry(9, "b")}, map[uint64]uint64{2: 1, 9: 8})
	time.Sleep(20 * time.Millisecond)
	if st := p.ApplyStats(); st.Parallelism.Count != 0 {
		t.Fatalf("%d entries dispatched before their waitFor version was announced", st.Parallelism.Count)
	}
	commitVersion1(t, store)
	if err := store.WaitAnnounced(2, time.Second); err != nil {
		t.Fatalf("v2 not announced after v1 landed outside the scheduler: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.ApplyStats().GaveUp == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.ApplyStats(); st.GaveUp != 1 || st.Published != 1 {
		t.Errorf("GaveUp = %d Published = %d, want 1/1 (v9 waits for a v8 that never comes)", st.GaveUp, st.Published)
	}
}

func TestCloseLetsFinishersSubmit(t *testing.T) {
	// A goroutine Close waits for (a detached commit finisher) may still
	// hand remote writesets to the scheduler and then wait for a version
	// among them. Close must stop the pool after such goroutines, not
	// before: a finisher submitting into a stopped scheduler waits on
	// every retry for a version nobody will install.
	r := newRig(t, 1, TashkentAPI, nil)
	p, store := r.proxies[0], r.stores[0]
	const n = 8
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, fmt.Sprintf("k%d", v)))
	}
	finished := make(chan error, 1)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		<-p.life.Done()
		time.Sleep(20 * time.Millisecond) // Close is past whatever it does first
		submitRemotes(p, entries)
		finished <- store.WaitAnnounced(n, time.Second)
	}()
	p.Close()
	if err := <-finished; err != nil {
		t.Fatalf("the scheduler was stopped under a finisher Close still waits for: %v", err)
	}
}

func TestBuildChunksEdges(t *testing.T) {
	mk := func(v uint64) RemoteEntry {
		return RemoteEntry{Version: v,
			WS: &core.Writeset{Ops: []core.WriteOp{{Kind: core.OpUpdate, Table: "t", Key: fmt.Sprintf("k%d", v)}}}}
	}
	// Empty remotes: no chunks, nil or zero-length.
	if got := buildChunks([]RemoteEntry{}); len(got) != 0 {
		t.Errorf("empty remotes → %+v", got)
	}
	// Gap-only stream: every version is isolated; each gets its own
	// single-version chunk with from = version-1.
	chunks := buildChunks([]RemoteEntry{mk(5), mk(7), mk(9)})
	if len(chunks) != 3 {
		t.Fatalf("gap-only chunks = %+v", chunks)
	}
	for i, want := range []uint64{5, 7, 9} {
		if chunks[i].from != want-1 || chunks[i].to != want {
			t.Errorf("chunk %d = (%d,%d], want (%d,%d]", i, chunks[i].from, chunks[i].to, want-1, want)
		}
	}
	// Consecutive writesets of one row share a chunk, in version order.
	chunks = buildChunks([]RemoteEntry{upEntry(10, "x"), upEntry(11, "x")})
	if len(chunks) != 1 || chunks[0].from != 9 || chunks[0].to != 11 ||
		len(chunks[0].ws.Ops) != 2 || string(chunks[0].ws.Ops[1].Cols[0].Value) != "11" {
		t.Errorf("same-row chunks = %+v", chunks)
	}
}
