package proxy

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
	"tashkent/internal/wal"
)

// rig is a single-certifier test system with N replicas.
type rig struct {
	fabric  *transport.LocalFabric
	cert    *certifier.Server
	stores  []*mvstore.Store
	proxies []*Proxy
}

func newRig(t *testing.T, n int, mode Mode, mutate func(i int, cfg *Config, scfg *mvstore.Config)) *rig {
	t.Helper()
	r := &rig{fabric: transport.NewLocalFabric(0)}
	r.cert = certifier.New(certifier.Config{
		ID: 0, Peers: map[int]transport.Client{},
		ElectionTimeout: 20 * time.Millisecond, Seed: 1,
	})
	r.fabric.Serve("cert0", r.cert.Handle)
	r.cert.Start()
	t.Cleanup(r.cert.Stop)
	deadline := time.Now().Add(3 * time.Second)
	for !r.cert.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("no certifier leader")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		scfg := mvstore.Config{
			LockTimeout:  500 * time.Millisecond,
			OrderTimeout: 2 * time.Second,
		}
		if mode == TashkentMW {
			scfg.WALMode = wal.NoSync
		}
		pcfg := Config{
			Mode:             mode,
			ReplicaID:        i + 1,
			Parts:            oneGroup(r.fabric.Dial("cert0")),
			ChunkWaitTimeout: 2 * time.Second,
		}
		if mutate != nil {
			mutate(i, &pcfg, &scfg)
		}
		store := mvstore.Open(scfg)
		pcfg.Store = store
		p := New(pcfg)
		r.stores = append(r.stores, store)
		r.proxies = append(r.proxies, p)
		t.Cleanup(func() { p.Close(); store.Close() })
	}
	return r
}

// oneGroup is the classic certifier tier: one group, here of one node.
func oneGroup(node transport.Client) *partition.Topology {
	return &partition.Topology{Groups: []*certifier.Client{certifier.NewClient([]transport.Client{node}, 3*time.Second)}}
}

func commitUpdate(t *testing.T, p *Proxy, table, key, val string) error {
	t.Helper()
	tx, err := p.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := tx.Update(table, key, map[string][]byte{"v": []byte(val)}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func readVal(t *testing.T, p *Proxy, table, key string) (string, bool) {
	t.Helper()
	tx, err := p.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	defer tx.Abort()
	v, ok, err := tx.ReadCol(table, key, "v")
	if err != nil {
		t.Fatalf("ReadCol: %v", err)
	}
	return string(v), ok
}

func TestReadOnlyCommitStaysLocal(t *testing.T) {
	r := newRig(t, 1, Base, nil)
	p := r.proxies[0]
	tx, _ := p.Begin()
	tx.Read("t", "nothing")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().ReadOnlyCommits; got != 1 {
		t.Errorf("ReadOnlyCommits = %d", got)
	}
	if got := r.cert.Stats().Requests; got != 0 {
		t.Errorf("certifier saw %d requests for a read-only commit", got)
	}
}

func testCommitAndPropagate(t *testing.T, mode Mode) {
	r := newRig(t, 2, mode, nil)
	if err := commitUpdate(t, r.proxies[0], "t", "x", "hello"); err != nil {
		t.Fatalf("commit at replica 0: %v", err)
	}
	if v, ok := readVal(t, r.proxies[0], "t", "x"); !ok || v != "hello" {
		t.Errorf("local read = %q %v", v, ok)
	}
	// Replica 1 has not seen traffic; a pull brings it up to date.
	if err := r.proxies[1].PullOnce(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, r, 1)
	if v, ok := readVal(t, r.proxies[1], "t", "x"); !ok || v != "hello" {
		t.Errorf("propagated read = %q %v", v, ok)
	}
	if r.stores[0].Fingerprint() != r.stores[1].Fingerprint() {
		t.Error("replica states diverged")
	}
}

// waitConverged waits for every replica's announced version to reach v.
func waitConverged(t *testing.T, r *rig, v uint64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, s := range r.stores {
			if s.AnnouncedVersion() < v {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("replicas failed to converge")
}

func TestCommitAndPropagateBase(t *testing.T) { testCommitAndPropagate(t, Base) }
func TestCommitAndPropagateMW(t *testing.T)   { testCommitAndPropagate(t, TashkentMW) }
func TestCommitAndPropagateAPI(t *testing.T)  { testCommitAndPropagate(t, TashkentAPI) }

func testConflictAborts(t *testing.T, mode Mode) {
	r := newRig(t, 2, mode, nil)
	// Seed the row.
	if err := commitUpdate(t, r.proxies[0], "t", "x", "0"); err != nil {
		t.Fatal(err)
	}
	r.proxies[1].PullOnce()
	waitConverged(t, r, 1)

	// Two concurrent snapshots writing the same key on different
	// replicas: exactly one commits.
	tx0, _ := r.proxies[0].Begin()
	tx1, _ := r.proxies[1].Begin()
	if err := tx0.Update("t", "x", map[string][]byte{"v": []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Update("t", "x", map[string][]byte{"v": []byte("b")}); err != nil {
		t.Fatal(err)
	}
	err0 := tx0.Commit()
	err1 := tx1.Commit()
	okCount := 0
	for _, err := range []error{err0, err1} {
		if err == nil {
			okCount++
		} else if !errors.Is(err, ErrCertificationAbort) {
			t.Errorf("unexpected commit error: %v", err)
		}
	}
	if okCount != 1 {
		t.Fatalf("%d commits succeeded, want exactly 1 (err0=%v err1=%v)", okCount, err0, err1)
	}
}

func TestConflictAbortsBase(t *testing.T) { testConflictAborts(t, Base) }
func TestConflictAbortsAPI(t *testing.T)  { testConflictAborts(t, TashkentAPI) }

func TestLocalCertificationAvoidsRoundTrip(t *testing.T) {
	r := newRig(t, 2, Base, nil)
	// Replica 1 starts a transaction against version 0.
	tx1, _ := r.proxies[1].Begin()
	if err := tx1.Update("t", "x", map[string][]byte{"v": []byte("stale")}); err != nil {
		t.Fatal(err)
	}
	// Replica 0 commits x; replica 1 pulls, so its proxy log now holds
	// the remote writeset for x.
	if err := commitUpdate(t, r.proxies[0], "t", "x", "fresh"); err != nil {
		t.Fatal(err)
	}
	if err := r.proxies[1].PullOnce(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, r, 1)
	reqsBefore := r.cert.Stats().Requests
	err := tx1.Commit()
	if !errors.Is(err, ErrCertificationAbort) {
		t.Fatalf("stale commit err = %v, want certification abort", err)
	}
	if r.cert.Stats().Requests != reqsBefore {
		t.Error("local certification still went to the certifier")
	}
	if r.proxies[1].Stats().LocalCertAborts != 1 {
		t.Errorf("LocalCertAborts = %d", r.proxies[1].Stats().LocalCertAborts)
	}
}

func TestEagerPreCertKillsConflictingLocal(t *testing.T) {
	r := newRig(t, 2, Base, nil)
	if err := commitUpdate(t, r.proxies[0], "t", "x", "0"); err != nil {
		t.Fatal(err)
	}
	r.proxies[1].PullOnce()
	waitConverged(t, r, 1)

	// A local transaction on replica 1 takes the write lock on x and
	// sits there (simulating a long transaction).
	blocker, _ := r.proxies[1].Begin()
	if err := blocker.Update("t", "x", map[string][]byte{"v": []byte("held")}); err != nil {
		t.Fatal(err)
	}
	// Replica 0 commits x again; replica 1 must apply the remote
	// writeset, which requires killing the blocker.
	if err := commitUpdate(t, r.proxies[0], "t", "x", "1"); err != nil {
		t.Fatal(err)
	}
	if err := r.proxies[1].PullOnce(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, r, 2)
	if v, _ := readVal(t, r.proxies[1], "t", "x"); v != "1" {
		t.Errorf("replica 1 x = %q, want 1", v)
	}
	if r.proxies[1].Stats().EagerKills == 0 {
		t.Error("no eager kills recorded")
	}
	// The blocker is dead.
	if err := blocker.Commit(); err == nil {
		t.Error("killed blocker committed successfully")
	}
}

func TestMWNoReplicaFsyncs(t *testing.T) {
	var logDisks []*simdisk.Disk
	r := newRig(t, 1, TashkentMW, func(i int, _ *Config, scfg *mvstore.Config) {
		d := simdisk.New(simdisk.Profile{FsyncLatency: 5 * time.Millisecond}, 9)
		scfg.LogDisk = d
		logDisks = append(logDisks, d)
	})
	for i := 0; i < 5; i++ {
		if err := commitUpdate(t, r.proxies[0], "t", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if f := logDisks[0].Stats().Fsyncs; f != 0 {
		t.Errorf("Tashkent-MW replica issued %d fsyncs, want 0", f)
	}
}

func TestBasePaysSerialFsyncs(t *testing.T) {
	var logDisks []*simdisk.Disk
	r := newRig(t, 2, Base, func(i int, _ *Config, scfg *mvstore.Config) {
		d := simdisk.New(simdisk.Instant(), int64(i))
		scfg.LogDisk = d
		logDisks = append(logDisks, d)
	})
	// Prime replica 1 so it receives remote writesets with each commit.
	commitUpdate(t, r.proxies[0], "t", "seed", "0")
	r.proxies[1].PullOnce()
	waitConverged(t, r, 1)
	base := logDisks[1].Stats().Fsyncs
	const n = 4
	for i := 0; i < n; i++ {
		// Interleave: replica 0 commits (creating a remote writeset
		// for replica 1), then replica 1 commits (paying one fsync for
		// the remote batch + one for its own commit).
		if err := commitUpdate(t, r.proxies[0], "t", fmt.Sprintf("a%d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if err := commitUpdate(t, r.proxies[1], "t", fmt.Sprintf("b%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	got := logDisks[1].Stats().Fsyncs - base
	if got < 2*n {
		t.Errorf("replica 1 paid %d fsyncs for %d commits, want >= %d (2 per local commit)", got, n, 2*n)
	}
}

func TestAPIGroupsCommitRecords(t *testing.T) {
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 4 * time.Millisecond}, 5)
	r := newRig(t, 2, TashkentAPI, func(i int, _ *Config, scfg *mvstore.Config) {
		if i == 1 {
			scfg.LogDisk = logDisk
		}
	})
	// Within a response: every commit of replica 1 brings one remote
	// writeset with it, and the chunk's record and the commit's own share
	// the response's one fsync. No luck is involved — two appends some
	// tens of microseconds apart on an idle disk paid two.
	const n = 8
	for i := 0; i < n; i++ {
		if err := commitUpdate(t, r.proxies[0], "t", fmt.Sprintf("a%d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if err := commitUpdate(t, r.proxies[1], "t", fmt.Sprintf("b%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	serial := logDisk.Stats()
	if serial.Fsyncs != n || serial.RecordsSynced != 2*n {
		t.Errorf("%d fsyncs covering %d records for %d responses of one chunk + one commit each, want %d covering %d",
			serial.Fsyncs, serial.RecordsSynced, n, n, 2*n)
	}

	// Across responses: concurrent commits still share fsyncs through the
	// log writer's group commit.
	const m = 16
	var wg sync.WaitGroup
	errs := make([]error, m)
	for i := 0; i < m; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = commitUpdate(t, r.proxies[1], "t", fmt.Sprintf("k%d", i), "v")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	s := logDisk.Stats()
	// A commit raced past by its own remote-applied copy supersedes and
	// skips its record (the covering catch-up chunk logged it instead,
	// possibly merged with neighbors), so discount those.
	sup := r.stores[1].Stats().SupersededCommits
	if got := s.RecordsSynced - serial.RecordsSynced + sup; got < m {
		t.Errorf("RecordsSynced = %d (+%d superseded), want >= %d", got-sup, sup, m)
	}
	if got := s.Fsyncs - serial.Fsyncs; got >= m {
		t.Errorf("%d fsyncs for %d concurrent ordered commits, want grouping", got, m)
	}
}

// TestAPIArtificialConflictSerializes: two writesets on one row reach a
// replica in one pull (the second was certified against the first — an
// artificial conflict, §5.2.1). They install in version order, with no
// install refused along the way.
func TestAPIArtificialConflictSerializes(t *testing.T) {
	r := newRig(t, 3, TashkentAPI, nil)
	if err := commitUpdate(t, r.proxies[0], "t", "x", "1"); err != nil {
		t.Fatal(err)
	}
	if err := commitUpdate(t, r.proxies[0], "t", "x", "2"); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.proxies[1:] {
		if err := p.PullOnce(); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, r, 2)
	for i := 1; i < 3; i++ {
		if v, _ := readVal(t, r.proxies[i], "t", "x"); v != "2" {
			t.Errorf("replica %d x = %q, want 2 (installed in version order)", i, v)
		}
		if r.stores[i].Fingerprint() != r.stores[0].Fingerprint() {
			t.Errorf("replica %d diverged", i)
		}
		if n := r.proxies[i].Stats().SoftRecoveries; n != 0 {
			t.Errorf("replica %d took %d soft recoveries", i, n)
		}
	}
	// Replica 2's log holds the two versions in order: its records chain
	// (0, ..] up to 2.
	var at uint64
	for _, rg := range logRanges(t, r.stores[2]) {
		if rg[0] != at || rg[1] <= rg[0] {
			t.Fatalf("replica 2's log is not the ascending chain (0,..](..,2]")
		}
		at = rg[1]
	}
	if at != 2 {
		t.Errorf("replica 2's log ends at %d, want 2", at)
	}
}

func TestConcurrentLoadConverges(t *testing.T) {
	modes := []Mode{Base, TashkentMW, TashkentAPI}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, 3, mode, nil)
			var wg sync.WaitGroup
			var commits, aborts int64
			var mu sync.Mutex
			for rep := 0; rep < 3; rep++ {
				for c := 0; c < 4; c++ {
					rep, c := rep, c
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 15; i++ {
							// Mostly disjoint keys with occasional contention.
							key := fmt.Sprintf("r%dc%d-%d", rep, c, i)
							if i%5 == 0 {
								key = "hot"
							}
							err := commitUpdate(t, r.proxies[rep], "t", key, fmt.Sprintf("%d", i))
							mu.Lock()
							switch {
							case err == nil:
								commits++
							case errors.Is(err, ErrCertificationAbort),
								errors.Is(err, mvstore.ErrWriteConflict),
								errors.Is(err, mvstore.ErrTxKilled),
								errors.Is(err, mvstore.ErrDeadlock),
								errors.Is(err, mvstore.ErrLockTimeout):
								aborts++ // SI aborts: retryable by the client
							default:
								t.Errorf("commit error: %v", err)
							}
							mu.Unlock()
						}
					}()
				}
			}
			wg.Wait()
			if commits == 0 {
				t.Fatal("no commits succeeded")
			}
			// Bring all replicas fully up to date and compare state.
			final := uint64(commits)
			for _, p := range r.proxies {
				if err := p.PullOnce(); err != nil {
					t.Fatal(err)
				}
			}
			waitConverged(t, r, final)
			// Quiesce in-flight chunk installs.
			time.Sleep(50 * time.Millisecond)
			fp := r.stores[0].Fingerprint()
			for i, s := range r.stores[1:] {
				if s.Fingerprint() != fp {
					t.Errorf("replica %d diverged under %v load", i+1, mode)
				}
			}
			t.Logf("%v: commits=%d aborts=%d", mode, commits, aborts)
		})
	}
}

func TestStalenessBoundPullsAutomatically(t *testing.T) {
	r := newRig(t, 2, TashkentMW, func(i int, cfg *Config, _ *mvstore.Config) {
		if i == 1 {
			cfg.StalenessBound = 20 * time.Millisecond
		}
	})
	if err := commitUpdate(t, r.proxies[0], "t", "x", "fresh"); err != nil {
		t.Fatal(err)
	}
	// Replica 1 receives the update without any local traffic.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := readVal(t, r.proxies[1], "t", "x"); ok && v == "fresh" {
			if r.proxies[1].Stats().StalenessPulls == 0 {
				t.Error("no staleness pulls recorded")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("staleness bound never propagated the update")
}

// TestSoftRecoveryOnCommitRejection: in every mode, a local commit the
// database refuses is re-applied by writeset (§8.1) and the client hears
// success.
func TestSoftRecoveryOnCommitRejection(t *testing.T) {
	for _, mode := range []Mode{Base, TashkentMW, TashkentAPI} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, 1, mode, nil)
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
		})
	}
}

func TestResyncAfterGap(t *testing.T) {
	r := newRig(t, 2, Base, nil)
	for i := 0; i < 3; i++ {
		if err := commitUpdate(t, r.proxies[0], "t", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Resync replica 1 from scratch.
	if err := r.proxies[1].Resync(); err != nil {
		t.Fatal(err)
	}
	if r.stores[1].Fingerprint() != r.stores[0].Fingerprint() {
		t.Error("resync did not converge state")
	}
	if got := r.stores[1].AnnouncedVersion(); got != 3 {
		t.Errorf("announced version after resync = %d", got)
	}
}

func TestBuildChunks(t *testing.T) {
	mk := func(v uint64) RemoteEntry {
		return RemoteEntry{Version: v,
			WS: &core.Writeset{Ops: []core.WriteOp{{Kind: core.OpUpdate, Table: "t", Key: fmt.Sprintf("k%d", v)}}}}
	}
	// Dense: one chunk.
	chunks := buildChunks([]RemoteEntry{mk(5), mk(6), mk(7)})
	if len(chunks) != 1 || chunks[0].from != 4 || chunks[0].to != 7 || chunks[0].waitFor != 0 {
		t.Errorf("dense chunks = %+v", chunks)
	}
	// Gap at 7 splits.
	chunks = buildChunks([]RemoteEntry{mk(5), mk(6), mk(8)})
	if len(chunks) != 2 || chunks[1].from != 7 || chunks[1].to != 8 {
		t.Errorf("gap chunks = %+v", chunks)
	}
	// A writeset this replica originated keeps a chunk of its own.
	own := mk(6)
	own.Own = true
	chunks = buildChunks([]RemoteEntry{mk(5), own, mk(7)})
	if len(chunks) != 3 || chunks[1].from != 5 || chunks[1].to != 6 {
		t.Errorf("own-writeset chunks = %+v", chunks)
	}
	if got := buildChunks(nil); got != nil {
		t.Errorf("empty chunks = %v", got)
	}
}

// TestNewRefusesConfigWithoutTopology: a proxy wired without one
// certifier client per group of its map is refused with a message that
// names the field, not left to a nil dereference on its first commit.
func TestNewRefusesConfigWithoutTopology(t *testing.T) {
	one := oneGroup(transport.NewLocalFabric(0).Dial("cert0")).Groups
	for name, parts := range map[string]*partition.Topology{
		"nil":              nil,
		"no groups":        {},
		"short of its map": {Map: partition.Map{N: 2}, Groups: one},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Config.Parts") {
					t.Errorf("New accepted it (recovered %v)", r)
				}
			}()
			New(Config{Mode: TashkentMW, Parts: parts})
		})
	}
}

func TestModeString(t *testing.T) {
	if Base.String() != "base" || TashkentMW.String() != "tashMW" || TashkentAPI.String() != "tashAPI" {
		t.Error("Mode.String mismatch")
	}
}

// TestProxyLogTrimIsAmortized: once the proxy log is full, recording a
// response's remote writesets must not copy the log — trimming it on
// every call allocated 131 KB a response. Local certification still
// sees the newest maxRecent records, oldest and newest alike.
func TestProxyLogTrimIsAmortized(t *testing.T) {
	p := newRig(t, 1, TashkentMW, nil).proxies[0]
	version := uint64(0)
	wsFor := func(v uint64) *core.Writeset {
		ws := &core.Writeset{}
		ws.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: fmt.Sprintf("k%d", v)})
		return ws
	}
	record := func() {
		version++
		p.recordRemotes([]RemoteEntry{{Version: version, WS: wsFor(version)}})
	}
	for i := 0; i < 2*maxRecent+10; i++ { // past the first trim: the backing array has its final size
		record()
	}
	batch := make([]RemoteEntry, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 1000
	for i := 0; i < calls; i++ {
		version++
		batch[0] = RemoteEntry{Version: version, WS: wsFor(version)}
		p.recordRemotes(batch)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 1024 {
		t.Errorf("recordRemotes allocates %d bytes a call on a full log, want < 1 KB", perCall)
	}
	for i := 0; i < maxRecent; i++ { // across a trim boundary
		record()
	}
	p.logMu.Lock()
	n, oldest := len(p.recent), p.recent[0].version
	p.logMu.Unlock()
	if n < maxRecent || n >= 2*maxRecent {
		t.Fatalf("proxy log holds %d records, want [%d, %d)", n, maxRecent, 2*maxRecent)
	}
	for _, v := range []uint64{oldest, version - maxRecent + 1, version} {
		if !p.localConflict(wsFor(v), 0) {
			t.Errorf("local certification misses retained version %d (log holds %d..%d)", v, oldest, version)
		}
		if p.localConflict(wsFor(v), v) {
			t.Errorf("version %d conflicts with a snapshot that includes it", v)
		}
	}
	if p.localConflict(wsFor(oldest-1), 0) {
		t.Errorf("version %d is still in the log below its oldest record %d", oldest-1, oldest)
	}
}
