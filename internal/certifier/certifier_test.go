package certifier

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
)

// testGroup is a running certifier group on a local fabric.
type testGroup struct {
	fabric  *transport.LocalFabric
	servers []*Server
	client  *Client
}

func newTestGroup(t *testing.T, n int, mutate func(i int, cfg *Config)) *testGroup {
	t.Helper()
	g := &testGroup{fabric: transport.NewLocalFabric(0)}
	for i := 0; i < n; i++ {
		peers := make(map[int]transport.Client)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = g.fabric.Dial(fmt.Sprintf("cert%d", j))
			}
		}
		cfg := Config{
			ID: i, Peers: peers,
			ElectionTimeout: 30 * time.Millisecond,
			Seed:            int64(i + 1),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := New(cfg)
		g.servers = append(g.servers, srv)
		g.fabric.Serve(fmt.Sprintf("cert%d", i), srv.Handle)
	}
	for _, srv := range g.servers {
		srv.Start()
	}
	t.Cleanup(func() {
		for _, srv := range g.servers {
			srv.Stop()
		}
	})
	var clients []transport.Client
	for i := 0; i < n; i++ {
		clients = append(clients, g.fabric.Dial(fmt.Sprintf("cert%d", i)))
	}
	g.client = NewClient(clients, 5*time.Second)
	g.waitLeader(t)
	return g
}

func (g *testGroup) waitLeader(t *testing.T) *Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range g.servers {
			if s.IsLeader() {
				return s
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no certifier leader")
	return nil
}

func wsBytes(keys ...string) []byte {
	ws := &core.Writeset{}
	for _, k := range keys {
		ws.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: k,
			Cols: []core.ColUpdate{{Col: "v", Value: []byte(k)}}})
	}
	return ws.Encode(nil)
}

func TestCertifyCommitAndVersions(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	for i := 1; i <= 5; i++ {
		resp, err := g.client.Certify(Request{
			Origin: 1, StartVersion: uint64(i - 1), ReplicaVersion: uint64(i - 1),
			WSBytes: wsBytes(fmt.Sprintf("k%d", i)),
		})
		if err != nil {
			t.Fatalf("certify %d: %v", i, err)
		}
		if !resp.Yes || resp.Index != uint64(i) {
			t.Fatalf("certify %d: committed=%v version=%d", i, resp.Yes, resp.Index)
		}
	}
}

func TestCertifyConflictAborts(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	r1, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("x")})
	if err != nil || !r1.Yes {
		t.Fatalf("first: %v %v", r1, err)
	}
	// Same start version, same key, different replica: conflict.
	r2, err := g.client.Certify(Request{Origin: 2, StartVersion: 0, WSBytes: wsBytes("x")})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Yes {
		t.Error("conflicting writeset committed")
	}
	// Starting after the conflict commits cleanly.
	r3, err := g.client.Certify(Request{Origin: 2, StartVersion: 1, ReplicaVersion: 1, WSBytes: wsBytes("x")})
	if err != nil || !r3.Yes {
		t.Fatalf("post-conflict: %v %v", r3, err)
	}
}

func TestRemoteWritesetsExcludeOwn(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	// Replica 1 commits k1; replica 2 commits k2.
	if _, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("k1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.client.Certify(Request{Origin: 2, StartVersion: 1, WSBytes: wsBytes("k2")}); err != nil {
		t.Fatal(err)
	}
	// Replica 1 commits k3 from a replica view at version 1: the answer
	// carries v2 (origin 2) and v3, the commit itself, but not v1 (its
	// own, below the replica's version).
	resp, err := g.client.Certify(Request{Origin: 1, StartVersion: 2, ReplicaVersion: 1, WSBytes: wsBytes("k3")})
	if err != nil || !resp.Yes {
		t.Fatalf("certify: %v %v", resp, err)
	}
	if len(resp.Remote) != 2 || resp.Remote[0].Version != 2 || resp.Remote[1].Version != 3 {
		t.Fatalf("remotes = %+v, want versions 2 and 3", resp.Remote)
	}
}

func TestPull(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	for i := 1; i <= 4; i++ {
		origin := 1 + i%2
		if _, err := g.client.Certify(Request{
			Origin: origin, StartVersion: uint64(i - 1), WSBytes: wsBytes(fmt.Sprintf("k%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := g.client.Pull(PullRequest{ReplicaVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Remote) != 3 {
		t.Fatalf("pull remotes = %d, want 3 (versions 2..4)", len(resp.Remote))
	}
	if resp.SystemVersion < 4 {
		t.Errorf("system version = %d", resp.SystemVersion)
	}
}

func TestAbortInjectionAfterFullCheck(t *testing.T) {
	g := newTestGroup(t, 1, func(i int, cfg *Config) { cfg.AbortRate = 1.0 })
	resp, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("x")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Yes {
		t.Fatal("100% abort rate still committed")
	}
	ld := g.waitLeader(t)
	st := ld.Stats()
	if st.InjectedAborts != 1 || st.Aborts != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Rate change takes effect.
	ld.SetAbortRate(0)
	resp, err = g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("x")})
	if err != nil || !resp.Yes {
		t.Fatalf("after rate reset: %v %v", resp, err)
	}
}

func TestGroupCommitBatchesWritesets(t *testing.T) {
	// Many concurrent certifications share leader-disk fsyncs: the
	// Tashkent-MW mechanism.
	var disks []*simdisk.Disk
	g := newTestGroup(t, 3, func(i int, cfg *Config) {
		d := simdisk.New(simdisk.Profile{FsyncLatency: 4 * time.Millisecond}, int64(i))
		cfg.Disk = d
		disks = append(disks, d)
	})
	ld := g.waitLeader(t)
	_ = ld
	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := g.client.Certify(Request{
				Origin: 1 + i%4, StartVersion: 0, WSBytes: wsBytes(fmt.Sprintf("k%d", i)),
			})
			if err != nil {
				t.Errorf("certify %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	var best float64
	for _, d := range disks {
		if r := d.Stats().GroupRatio(); r > best {
			best = r
		}
	}
	if best < 2 {
		t.Errorf("best group ratio %.1f, want >= 2 (batching across requests)", best)
	}
}

func TestPipelineBatchesConcurrentCertifications(t *testing.T) {
	// K concurrent certify requests must complete in far fewer fsyncs
	// than K: the pipeline drains the admission queue into one
	// replication round and one durability barrier per batch.
	var disk *simdisk.Disk
	g := newTestGroup(t, 1, func(i int, cfg *Config) {
		disk = simdisk.New(simdisk.Profile{FsyncLatency: 4 * time.Millisecond}, int64(i))
		cfg.Disk = disk
	})
	ld := g.waitLeader(t)
	const k = 40
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.client.Certify(Request{
				Origin: 1 + i%4, StartVersion: 0, WSBytes: wsBytes(fmt.Sprintf("k%d", i)),
			})
			if err != nil {
				t.Errorf("certify %d: %v", i, err)
			} else if !resp.Yes {
				t.Errorf("certify %d aborted (disjoint writesets cannot conflict)", i)
			}
		}()
	}
	wg.Wait()
	st := disk.Stats()
	if st.Fsyncs >= k/2 {
		t.Errorf("%d fsyncs for %d concurrent certifications; want far fewer (batching)", st.Fsyncs, k)
	}
	if r := st.GroupRatio(); r < 2 {
		t.Errorf("writesets per fsync = %.1f, want >= 2", r)
	}
	bs := ld.BatchStats()
	if bs.Max < 2 {
		t.Errorf("batch stats %v: pipeline never formed a multi-commit batch", bs)
	}
	if bs.Sum != k {
		t.Errorf("batch stats account for %d commits, want %d", bs.Sum, k)
	}
}

func TestLeadershipChangeReanchorsSequencing(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	r1, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("a")})
	if err != nil || !r1.Yes {
		t.Fatalf("pre-failover: %+v %v", r1, err)
	}
	g.waitLeader(t).Stop()

	// Certification resumes under a new leader after failover.
	var r2 Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err = g.client.Certify(Request{Origin: 1, StartVersion: 1, WSBytes: wsBytes("b")})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-failover certify never succeeded: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The new leader's answer runs through the commit, the old term's
	// entry before it included.
	if n := len(r2.Remote); !r2.Yes || n < 2 || r2.Remote[n-1].Version != r2.Index {
		t.Errorf("post-failover commit ships %+v, want the log through its own version %d", r2.Remote, r2.Index)
	}

	// A pull served by the new leader ships only majority-durable
	// versions: everything it returns is <= its reported SystemVersion.
	pull, err := g.client.Pull(PullRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pull.Remote) < 2 {
		t.Fatalf("pull remotes = %d, want both committed versions", len(pull.Remote))
	}
	for _, r := range pull.Remote {
		if r.Version > pull.SystemVersion {
			t.Errorf("pull shipped version %d beyond committed cap %d", r.Version, pull.SystemVersion)
		}
	}
}

func TestDisableDurabilitySkipsFsyncs(t *testing.T) {
	var disk *simdisk.Disk
	g := newTestGroup(t, 1, func(i int, cfg *Config) {
		disk = simdisk.New(simdisk.Profile{FsyncLatency: 5 * time.Millisecond}, 3)
		cfg.Disk = disk
		cfg.DisableDurability = true
	})
	for i := 0; i < 5; i++ {
		if _, err := g.client.Certify(Request{Origin: 1, StartVersion: uint64(i), WSBytes: wsBytes(fmt.Sprintf("k%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if f := disk.Stats().Fsyncs; f != 0 {
		t.Errorf("tashAPInoCERT mode issued %d fsyncs, want 0", f)
	}
}

func TestFollowerRedirects(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	ld := g.waitLeader(t)
	// Call a follower directly: must get a NOTLEADER error.
	var follower int = -1
	for i, s := range g.servers {
		if s != ld {
			follower = i
			break
		}
	}
	c := g.fabric.Dial(fmt.Sprintf("cert%d", follower))
	req, _ := transport.EncodeMessage(&Request{Origin: 1, WSBytes: wsBytes("x")})
	_, err := c.Call(MethodCertify, req)
	var rerr *transport.RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v", err)
	}
	if _, isRedirect := parseNotLeader(rerr.Msg); !isRedirect {
		t.Errorf("follower reply %q is not a redirect", rerr.Msg)
	}
	// The retrying client handles it transparently.
	resp, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("y")})
	if err != nil || !resp.Yes {
		t.Fatalf("client certify: %v %v", resp, err)
	}
}

func TestLeaderFailoverPreservesLog(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	r1, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("a")})
	if err != nil || !r1.Yes {
		t.Fatalf("pre-failover: %v %v", r1, err)
	}
	ld := g.waitLeader(t)
	ld.Stop()
	// Client fails over; version numbering continues from 1.
	var r2 Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err = g.client.Certify(Request{Origin: 2, StartVersion: 1, WSBytes: wsBytes("b")})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-failover certify never succeeded: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !r2.Yes || r2.Index != 2 {
		t.Fatalf("post-failover: %+v", r2)
	}
	// The new leader still knows version 1's writeset: a conflicting
	// request from version 0 must abort.
	r3, err := g.client.Certify(Request{Origin: 2, StartVersion: 0, WSBytes: wsBytes("a")})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Yes {
		t.Error("new leader lost conflict state from before failover")
	}
}

func TestCertifierRecoveryStateTransfer(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	for i := 0; i < 6; i++ {
		if _, err := g.client.Certify(Request{Origin: 1, StartVersion: uint64(i), WSBytes: wsBytes(fmt.Sprintf("k%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash a non-leader, recover from its WAL image, rejoin, catch up.
	ld := g.waitLeader(t)
	var victim int = -1
	for i, s := range g.servers {
		if s != ld {
			victim = i
			break
		}
	}
	img := g.servers[victim].WALImage()
	g.servers[victim].Stop()

	peers := make(map[int]transport.Client)
	for j := range g.servers {
		if j != victim {
			peers[j] = g.fabric.Dial(fmt.Sprintf("cert%d", j))
		}
	}
	revived := New(Config{ID: victim, Peers: peers, ElectionTimeout: 30 * time.Millisecond, Seed: 77})
	if err := revived.RestoreFromImage(img); err != nil {
		t.Fatal(err)
	}
	g.fabric.Serve(fmt.Sprintf("cert%d", victim), revived.Handle)
	revived.Start()
	defer revived.Stop()

	if _, err := g.client.Certify(Request{Origin: 1, StartVersion: 6, WSBytes: wsBytes("post")}); err != nil {
		t.Fatal(err)
	}
	// The leader replicates its log on traffic, so a quiet group can
	// leave the revived node one entry behind for the whole window;
	// nudge with fresh commits while waiting. The assertion stays
	// meaningful: a broken rejoin keeps the revived node's commit index
	// below 7 no matter how much traffic flows.
	deadline := time.Now().Add(15 * time.Second)
	lastNudge := time.Now()
	nudge := 7
	for time.Now().Before(deadline) && revived.Node().CommitIndex() < 7 {
		time.Sleep(2 * time.Millisecond)
		if time.Since(lastNudge) > 200*time.Millisecond {
			lastNudge = time.Now()
			g.client.Certify(Request{Origin: 1, StartVersion: uint64(nudge),
				WSBytes: wsBytes(fmt.Sprintf("nudge%d", nudge))})
			nudge++
		}
	}
	if got := revived.Node().CommitIndex(); got < 7 {
		t.Errorf("revived certifier commit index = %d, want >= 7", got)
	}
}

func TestEntryDataRoundTrip(t *testing.T) {
	ws := &core.Writeset{Ops: []core.WriteOp{{Kind: core.OpInsert, Table: "a", Key: "b",
		Cols: []core.ColUpdate{{Col: "c", Value: []byte("d")}}}}}
	data := EncodeEntry(Entry{Kind: core.KindData, Origin: 7, Start: 42, WS: ws})
	e, err := DecodeLogEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != core.KindData || e.Origin != 7 || e.Start != 42 || !e.WS.Intersects(ws) {
		t.Errorf("decoded kind=%v origin=%d start=%d ws=%v", e.Kind, e.Origin, e.Start, e.WS)
	}
	if _, err := DecodeLogEntry(data[:5]); err == nil {
		t.Error("short entry accepted")
	}

	pdata := EncodeEntry(Entry{Kind: core.KindPrepare, Origin: 3, Start: 9, GID: 77, Involved: []int{0, 2}, WS: ws})
	pe, err := DecodeLogEntry(pdata)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Kind != core.KindPrepare || pe.GID != 77 || len(pe.Involved) != 2 || pe.Involved[1] != 2 {
		t.Errorf("decoded prepare = %+v", pe)
	}
}

func TestParseNotLeader(t *testing.T) {
	if h, ok := parseNotLeader("transport: remote error: NOTLEADER 2"); !ok || h != 2 {
		t.Errorf("parse = %d %v", h, ok)
	}
	if _, ok := parseNotLeader("some other error"); ok {
		t.Error("non-redirect parsed as redirect")
	}
	if h, ok := parseNotLeader("NOTLEADER -1"); !ok || h != -1 {
		t.Errorf("unknown-hint parse = %d %v", h, ok)
	}
}

func TestCertifyEmptyWritesetRejected(t *testing.T) {
	g := newTestGroup(t, 1, nil)
	_, err := g.client.Certify(Request{Origin: 1, WSBytes: (&core.Writeset{}).Encode(nil)})
	if err == nil {
		t.Error("empty writeset certification accepted")
	}
}

// longLogLeader returns the leader of a one-node group whose committed
// log has been padded to n entries.
func longLogLeader(tb testing.TB, n uint64) *Server {
	tb.Helper()
	srv := New(Config{ID: 0, ElectionTimeout: 30 * time.Millisecond, Seed: 1})
	srv.Start()
	tb.Cleanup(srv.Stop)
	deadline := time.Now().Add(5 * time.Second)
	for !srv.IsLeader() {
		if time.Now().After(deadline) {
			tb.Fatal("no certifier leader")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for head := uint64(0); head < n; {
		var err error
		if head, err = srv.FillTo(n); err != nil {
			tb.Fatalf("fill to %d: %v", n, err)
		}
	}
	return srv
}

// medianAllocPerCall is the median, over rounds calls of fn, of the
// bytes the process allocated during one call. The median discards the
// calls on which an append-only structure (paxos log, WAL image, engine
// log) happened to double its backing array.
func medianAllocPerCall(rounds int, fn func(i int)) uint64 {
	deltas := make([]uint64, rounds)
	var before, after runtime.MemStats
	for i := range deltas {
		runtime.ReadMemStats(&before)
		fn(i)
		runtime.ReadMemStats(&after)
		deltas[i] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(deltas, func(a, b int) bool { return deltas[a] < deltas[b] })
	return deltas[rounds/2]
}

// TestRequestCostIndependentOfLogLength pins the certifier request path
// at O(1) in committed history: a Pull and a prepare against a
// 20 000-entry log allocate no more than twice what they do against a
// 200-entry log. A request path that copies the paxos log to read role
// and term misses this by two orders of magnitude.
func TestRequestCostIndependentOfLogLength(t *testing.T) {
	measure := func(entries uint64) (pull, prepare uint64) {
		srv := longLogLeader(t, entries)
		pull = medianAllocPerCall(101, func(int) {
			if _, err := srv.pull(PullRequest{ReplicaVersion: srv.committedCap()}); err != nil {
				t.Fatalf("pull at %d entries: %v", entries, err)
			}
		})
		prepare = medianAllocPerCall(101, func(i int) {
			// The replica is caught up, as its pull above: the yes ships
			// the prepare alone.
			head := srv.committedCap()
			resp, err := srv.Certify(Request{
				GID: uint64(i + 1), Origin: 1, StartVersion: head, Involved: []int{0, 1},
				WSBytes: wsBytes(fmt.Sprintf("k%d", i)), ReplicaVersion: head,
			})
			if err != nil || !resp.Yes {
				t.Fatalf("prepare at %d entries: %+v %v", entries, resp, err)
			}
		})
		return pull, prepare
	}
	shortPull, shortPrepare := measure(200)
	longPull, longPrepare := measure(20000)
	t.Logf("bytes allocated per call: pull %d → %d, prepare %d → %d (200 → 20000 entries)",
		shortPull, longPull, shortPrepare, longPrepare)
	if longPull > 2*shortPull {
		t.Errorf("a pull allocates %d bytes at 20000 entries against %d at 200: the request path grows with the log", longPull, shortPull)
	}
	if longPrepare > 2*shortPrepare {
		t.Errorf("a prepare allocates %d bytes at 20000 entries against %d at 200: the request path grows with the log", longPrepare, shortPrepare)
	}
}

// BenchmarkPullLongLog is the steady-state cost of the cheapest request
// — a pull with nothing to ship — on a leader holding 20 000 committed
// entries.
func BenchmarkPullLongLog(b *testing.B) {
	srv := longLogLeader(b, 20000)
	req := PullRequest{ReplicaVersion: srv.committedCap()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.pull(req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBytesAfterWritesetNeverEnterLog: a certify or prepare request
// whose WSBytes carry anything after the writeset is refused before it
// takes a version, and the log holds nothing of it. (The payload is the
// request's bytes as sent, so there is no re-encode to lose them in.)
func TestBytesAfterWritesetNeverEnterLog(t *testing.T) {
	g := newTestGroup(t, 1, nil)
	srv := g.servers[0]
	if _, err := g.client.Certify(Request{Origin: 1, WSBytes: wsBytes("a")}); err != nil {
		t.Fatal(err)
	}
	smuggled := []byte("SMUGGLED")
	if resp, err := g.client.Certify(Request{Origin: 1, StartVersion: 1, WSBytes: append(wsBytes("b"), smuggled...)}); err == nil {
		t.Errorf("certify with bytes after the writeset answered %+v", resp)
	}
	if resp, err := srv.Certify(Request{GID: 9, Origin: 1, StartVersion: 1, Involved: []int{0, 1},
		WSBytes: append(wsBytes("c"), smuggled...)}); err == nil {
		t.Errorf("prepare with bytes after the writeset answered %+v", resp)
	}
	// The group still works, and the next version is 2.
	resp, err := g.client.Certify(Request{Origin: 1, StartVersion: 1, WSBytes: wsBytes("d")})
	if err != nil || !resp.Yes || resp.Index != 2 {
		t.Fatalf("certify after the refusals: %+v, %v", resp, err)
	}
	_, _, log := srv.Node().SnapshotLog()
	if len(log) != 2 {
		t.Errorf("log holds %d entries, want 2", len(log))
	}
	for _, e := range log {
		if bytes.Contains(e.Data, smuggled) {
			t.Errorf("entry %d carries the smuggled bytes", e.Index)
		}
		if _, err := DecodeLogEntry(e.Data); err != nil {
			t.Errorf("entry %d: %v", e.Index, err)
		}
	}
}

// TestPullAllocationsDoNotGrowWithEntries: shipping committed entries
// allocates the response's two slices and nothing per entry — each
// RemoteWS carries the log entry's own payload. Re-encoding every
// writeset cost at least two allocations an entry.
func TestPullAllocationsDoNotGrowWithEntries(t *testing.T) {
	g := newTestGroup(t, 1, nil)
	srv := g.servers[0]
	const entries = 200
	for i := 0; i < entries; i++ {
		if _, err := srv.Certify(Request{Origin: 1 + i%3, StartVersion: uint64(i), WSBytes: wsBytes(fmt.Sprintf("k%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, log := srv.Node().SnapshotLog()
	req := PullRequest{}
	allocs := testing.AllocsPerRun(50, func() {
		resp, err := srv.pull(req)
		if err != nil || len(resp.Remote) != entries {
			t.Fatalf("pull: %d remotes, %v", len(resp.Remote), err)
		}
		// The shipped bytes are the paxos log's, by reference.
		if r := resp.Remote[entries-1]; &r.WSBytes[0] != &log[entries-1].Data[0] {
			t.Fatal("a shipped writeset is a copy of its log entry")
		}
	})
	if allocs > 4 {
		t.Errorf("a pull of %d entries allocates %.0f times, want a small constant", entries, allocs)
	}
}
