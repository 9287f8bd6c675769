package paxos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
	"tashkent/internal/wal"
)

// group spins up n nodes on a local fabric.
type group struct {
	fabric  *LocalFabricAlias
	nodes   []*Node
	servers []transport.Server
}

// LocalFabricAlias avoids an import cycle in the test helper name.
type LocalFabricAlias = transport.LocalFabric

func newGroup(t testing.TB, n int, mode wal.Mode) *group {
	t.Helper()
	g := &group{fabric: transport.NewLocalFabric(0)}
	for i := 0; i < n; i++ {
		peers := make(map[int]transport.Client)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = g.fabric.Dial(fmt.Sprintf("cert%d", j))
			}
		}
		node := NewNode(Config{
			ID:              i,
			Peers:           peers,
			Disk:            simdisk.New(simdisk.Instant(), int64(i)),
			WALMode:         mode,
			ElectionTimeout: 40 * time.Millisecond,
			Seed:            int64(i) + 1,
		})
		g.nodes = append(g.nodes, node)
		g.servers = append(g.servers, g.fabric.Serve(fmt.Sprintf("cert%d", i), node.HandleRPC))
	}
	for _, node := range g.nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range g.nodes {
			node.Stop()
		}
	})
	return g
}

// waitLeader blocks until some node is leader, returning its index.
func (g *group) waitLeader(t testing.TB) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for i, n := range g.nodes {
			if r, _ := n.Role(); r == Leader {
				return i
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return -1
}

func proposeAndWait(t *testing.T, n *Node, data string) uint64 {
	t.Helper()
	idx, term, err := n.Propose([]byte(data))
	if err != nil {
		t.Fatalf("Propose(%q): %v", data, err)
	}
	if err := n.WaitCommitted(idx, term); err != nil {
		t.Fatalf("WaitCommitted(%q): %v", data, err)
	}
	return idx
}

func TestSingleNodeCommits(t *testing.T) {
	g := newGroup(t, 1, wal.SyncCommits)
	ld := g.waitLeader(t)
	for i := 0; i < 5; i++ {
		idx := proposeAndWait(t, g.nodes[ld], fmt.Sprintf("e%d", i))
		if idx != uint64(i+1) {
			t.Fatalf("entry %d got index %d", i, idx)
		}
	}
	if g.nodes[ld].CommitIndex() != 5 {
		t.Errorf("CommitIndex = %d", g.nodes[ld].CommitIndex())
	}
}

// TestEntriesBoundsAndCopies: Entries returns the log's (after, upTo]
// clamped to the log, nil for an empty range, and a copy that neither
// later appends to the log nor writes to the result reach through.
func TestEntriesBoundsAndCopies(t *testing.T) {
	g := newGroup(t, 1, wal.SyncCommits)
	n := g.nodes[g.waitLeader(t)]
	for i := 1; i <= 5; i++ {
		proposeAndWait(t, n, fmt.Sprintf("e%d", i))
	}
	check := func(got []Entry, first, last uint64) {
		t.Helper()
		if uint64(len(got)) != last-first+1 {
			t.Fatalf("got %d entries, want %d..%d", len(got), first, last)
		}
		for i, e := range got {
			idx := first + uint64(i)
			if e.Index != idx || string(e.Data) != fmt.Sprintf("e%d", idx) {
				t.Errorf("entry %d = {%d %q}, want {%d e%d}", i, e.Index, e.Data, idx, idx)
			}
		}
	}
	check(n.Entries(1, 3), 2, 3)
	check(n.Entries(0, 5), 1, 5)
	check(n.Entries(3, 99), 4, 5)
	for _, r := range [][2]uint64{{5, 5}, {3, 2}, {5, 99}, {99, 100}} {
		if got := n.Entries(r[0], r[1]); got != nil {
			t.Errorf("Entries(%d, %d) = %v, want nil", r[0], r[1], got)
		}
	}

	got := n.Entries(2, 5)
	proposeAndWait(t, n, "e6")
	check(got, 3, 5)
	got[0] = Entry{Index: 99}
	_ = append(got[:1], Entry{Index: 98})
	check(n.Entries(0, 6), 1, 6)
}

func TestThreeNodeReplication(t *testing.T) {
	g := newGroup(t, 3, wal.SyncCommits)
	ld := g.waitLeader(t)
	for i := 0; i < 10; i++ {
		proposeAndWait(t, g.nodes[ld], fmt.Sprintf("e%d", i))
	}
	// All nodes converge on the committed log.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, n := range g.nodes {
			if n.CommitIndex() < 10 {
				ok = false
			}
		}
		if ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, n := range g.nodes {
		if n.CommitIndex() < 10 {
			t.Errorf("node %d commit = %d, want >= 10", i, n.CommitIndex())
		}
		if n.LogLength() < 10 {
			t.Errorf("node %d log = %d", i, n.LogLength())
		}
	}
	// Every node's committed prefix holds the same entries in the same
	// order.
	for i, n := range g.nodes {
		commit := n.CommitIndex()
		_, _, log := n.SnapshotLog()
		if commit < 10 || uint64(len(log)) < commit {
			continue // reported above
		}
		for j, e := range log[:10] {
			if e.Index != uint64(j+1) || string(e.Data) != fmt.Sprintf("e%d", j) {
				t.Errorf("node %d committed[%d] = %+v", i, j, e)
			}
		}
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	g := newGroup(t, 3, wal.SyncCommits)
	ld := g.waitLeader(t)
	follower := (ld + 1) % 3
	if _, _, err := g.nodes[follower].Propose([]byte("x")); !errors.Is(err, ErrNotLeader) {
		t.Errorf("Propose on follower: %v, want ErrNotLeader", err)
	}
}

func TestLeaderFailover(t *testing.T) {
	g := newGroup(t, 3, wal.SyncCommits)
	ld := g.waitLeader(t)
	proposeAndWait(t, g.nodes[ld], "before")
	// Kill the leader (stop node + unregister its server).
	g.nodes[ld].Stop()
	g.servers[ld].Close()
	// A new leader emerges among the survivors.
	deadline := time.Now().Add(5 * time.Second)
	newLd := -1
	for time.Now().Before(deadline) && newLd == -1 {
		for i, n := range g.nodes {
			if i == ld {
				continue
			}
			if r, _ := n.Role(); r == Leader {
				newLd = i
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if newLd == -1 {
		t.Fatal("no new leader after failover")
	}
	// The committed entry survives and progress continues.
	idx := proposeAndWait(t, g.nodes[newLd], "after")
	if idx != 2 {
		t.Errorf("post-failover entry at index %d, want 2 (entry 'before' must survive)", idx)
	}
}

func TestRecoveryFromWALImage(t *testing.T) {
	g := newGroup(t, 3, wal.SyncCommits)
	ld := g.waitLeader(t)
	for i := 0; i < 5; i++ {
		proposeAndWait(t, g.nodes[ld], fmt.Sprintf("e%d", i))
	}
	// Crash a follower, recover a fresh node from its WAL image.
	// Commit only waits for a majority, so the victim may still lag the
	// last entry; wait until its *durable* image holds all 5 entries
	// (the in-memory log runs ahead of the stable WAL prefix).
	victim := (ld + 1) % 3
	waitDeadline := time.Now().Add(2 * time.Second)
	var img []byte
	for time.Now().Before(waitDeadline) {
		img = g.nodes[victim].WALImage()
		recs, err := wal.Scan(img)
		if err != nil {
			t.Fatal(err)
		}
		entries := 0
		for _, rec := range recs {
			if len(rec) > 0 && rec[0] == recEntry {
				entries++
			}
		}
		if entries >= 5 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	g.nodes[victim].Stop()
	g.servers[victim].Close()

	peers := make(map[int]transport.Client)
	for j := range g.nodes {
		if j != victim {
			peers[j] = g.fabric.Dial(fmt.Sprintf("cert%d", j))
		}
	}
	revived := NewNode(Config{
		ID: victim, Peers: peers,
		Disk:            simdisk.New(simdisk.Instant(), 99),
		ElectionTimeout: 40 * time.Millisecond,
		Seed:            99,
	})
	if err := revived.RestoreFromImage(img); err != nil {
		t.Fatal(err)
	}
	if revived.LogLength() < 5 {
		t.Errorf("restored log length %d, want >= 5", revived.LogLength())
	}
	g.fabric.Serve(fmt.Sprintf("cert%d", victim), revived.HandleRPC)
	revived.Start()
	defer revived.Stop()

	// It catches up and follows new commits.
	proposeAndWait(t, g.nodes[ld], "post-recovery")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && revived.CommitIndex() < 6 {
		time.Sleep(2 * time.Millisecond)
	}
	if revived.CommitIndex() < 6 {
		t.Errorf("revived commit = %d, want >= 6", revived.CommitIndex())
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	n := NewNode(Config{ID: 0})
	defer n.Stop()
	if err := n.RestoreFromImage([]byte{1, 2, 3}); err == nil {
		// A 3-byte image is a torn header: wal.Scan yields no records,
		// so this actually succeeds with an empty log. That is correct
		// crash semantics; only structurally bad records must error.
		if n.LogLength() != 0 {
			t.Error("garbage image produced log entries")
		}
	}
}

func TestMinorityCannotCommit(t *testing.T) {
	g := newGroup(t, 3, wal.SyncCommits)
	ld := g.waitLeader(t)
	// Stop both followers: leader alone must not commit new entries.
	for i := range g.nodes {
		if i != ld {
			g.nodes[i].Stop()
			g.servers[i].Close()
		}
	}
	idx, term, err := g.nodes[ld].Propose([]byte("orphan"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.nodes[ld].WaitCommitted(idx, term) }()
	select {
	case err := <-done:
		// Check-quorum: the isolated leader steps down and releases
		// the waiter with ErrDeposed instead of committing (or
		// blocking the caller forever).
		if err == nil {
			t.Fatal("minority leader committed")
		}
		if !errors.Is(err, ErrDeposed) {
			t.Fatalf("waiter released with %v; want ErrDeposed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("minority leader never stepped down; proposal still blocked")
	}
	if g.nodes[ld].CommitIndex() >= idx {
		t.Error("commit index advanced without majority")
	}
}

func TestGroupCommitAcrossProposals(t *testing.T) {
	// Concurrent proposals at the leader must share leader-disk fsyncs.
	disk := simdisk.New(simdisk.Profile{FsyncLatency: 3 * time.Millisecond}, 7)
	fabric := transport.NewLocalFabric(0)
	n := NewNode(Config{
		ID: 0, Peers: map[int]transport.Client{},
		Disk:            disk,
		ElectionTimeout: 30 * time.Millisecond,
		Seed:            1,
	})
	fabric.Serve("cert0", n.HandleRPC)
	n.Start()
	defer n.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if r, _ := n.Role(); r == Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(2 * time.Millisecond)
	}
	const k = 32
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx, term, err := n.Propose([]byte{byte(i)})
			if err != nil {
				t.Errorf("propose %d: %v", i, err)
				return
			}
			if err := n.WaitCommitted(idx, term); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	// Allow a couple extra fsyncs for meta records.
	if f := disk.Stats().Fsyncs; f > k/2+4 {
		t.Errorf("%d fsyncs for %d concurrent proposals; want grouping", f, k)
	}
}

func TestProposeBatchAtReservesConsecutiveIndices(t *testing.T) {
	g := newGroup(t, 1, wal.SyncCommits)
	ld := g.waitLeader(t)
	n := g.nodes[ld]
	datas := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	first, term, err := n.ProposeBatchAt(0, datas)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first index = %d, want 1", first)
	}
	// One barrier on the last index covers the whole batch.
	if err := n.WaitCommitted(first+2, term); err != nil {
		t.Fatal(err)
	}
	if n.CommitIndex() != 3 || n.LogLength() != 3 {
		t.Errorf("commit=%d log=%d, want 3/3", n.CommitIndex(), n.LogLength())
	}
	_, _, entries := n.SnapshotLog()
	for i, e := range entries {
		if e.Index != uint64(i+1) || string(e.Data) != string(datas[i]) {
			t.Errorf("entry %d = %+v", i, e)
		}
	}
	// The optimistic guard still protects derived state.
	if _, _, err := n.ProposeBatchAt(0, datas); !errors.Is(err, ErrLogChanged) {
		t.Errorf("stale batch: %v, want ErrLogChanged", err)
	}
	if _, _, err := n.ProposeBatchAt(3, nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestProposeBatchSharesFsyncs(t *testing.T) {
	// A batched proposal must cost one entry fsync at the leader and
	// one per follower — not one per entry.
	fabric := transport.NewLocalFabric(0)
	var disks []*simdisk.Disk
	var nodes []*Node
	const nN = 3
	for i := 0; i < nN; i++ {
		peers := make(map[int]transport.Client)
		for j := 0; j < nN; j++ {
			if j != i {
				peers[j] = fabric.Dial(fmt.Sprintf("cert%d", j))
			}
		}
		d := simdisk.New(simdisk.Profile{FsyncLatency: 2 * time.Millisecond}, int64(i))
		disks = append(disks, d)
		n := NewNode(Config{
			ID: i, Peers: peers, Disk: d,
			ElectionTimeout: 40 * time.Millisecond,
			Seed:            int64(i) + 1,
		})
		nodes = append(nodes, n)
		fabric.Serve(fmt.Sprintf("cert%d", i), n.HandleRPC)
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	var leader *Node
	deadline := time.Now().Add(5 * time.Second)
	for leader == nil && time.Now().Before(deadline) {
		for _, n := range nodes {
			if r, _ := n.Role(); r == Leader {
				leader = n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader")
	}

	var before [nN]int64
	for i, d := range disks {
		before[i] = d.Stats().Fsyncs
	}
	const k = 24
	datas := make([][]byte, k)
	for i := range datas {
		datas[i] = []byte{byte(i)}
	}
	first, term, err := leader.ProposeBatchAt(0, datas)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.WaitCommitted(first+k-1, term); err != nil {
		t.Fatal(err)
	}
	// Let the slow follower finish persisting its round too.
	waitDeadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(waitDeadline) {
		all := true
		for _, n := range nodes {
			if n.LogLength() < k {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, d := range disks {
		// Heartbeat-era meta records are possible but rare; the k
		// entries themselves must share fsyncs rather than pay k.
		if delta := d.Stats().Fsyncs - before[i]; delta > 4 {
			t.Errorf("node %d: %d fsyncs for one %d-entry batch", i, delta, k)
		}
	}
}

func TestConcurrentProposalsKeepWALImageOrdered(t *testing.T) {
	// Each proposal persists from its own goroutine; the persist chain
	// must keep the WAL image in index order or the node cannot recover
	// from its own crash image.
	disk := simdisk.New(simdisk.Profile{FsyncLatency: 500 * time.Microsecond}, 11)
	fabric := transport.NewLocalFabric(0)
	n := NewNode(Config{
		ID: 0, Peers: map[int]transport.Client{},
		Disk:            disk,
		ElectionTimeout: 30 * time.Millisecond,
		Seed:            1,
	})
	fabric.Serve("cert0", n.HandleRPC)
	n.Start()
	defer n.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if r, _ := n.Role(); r == Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(2 * time.Millisecond)
	}
	const k = 64
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx, term, err := n.Propose([]byte{byte(i)})
			if err != nil {
				t.Errorf("propose %d: %v", i, err)
				return
			}
			if err := n.WaitCommitted(idx, term); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	revived := NewNode(Config{ID: 1, Disk: simdisk.New(simdisk.Instant(), 12)})
	defer revived.Stop()
	if err := revived.RestoreFromImage(n.WALImage()); err != nil {
		t.Fatalf("crash image does not restore: %v", err)
	}
	if got := revived.LogLength(); got != k {
		t.Errorf("restored log length %d, want %d", got, k)
	}
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Error("Role.String mismatch")
	}
	if Role(9).String() == "" {
		t.Error("unknown role should render")
	}
}

func TestStopIdempotent(t *testing.T) {
	n := NewNode(Config{ID: 0})
	n.Start()
	n.Stop()
	n.Stop()
	if _, _, err := n.Propose([]byte("x")); !errors.Is(err, ErrStopped) {
		t.Errorf("Propose after stop: %v", err)
	}
}

// BenchmarkProposeBatch is one replication round of the certifier's
// shape: 8 entries of 120 bytes proposed as one batch to a group of
// three in-process nodes on instant disks, and committed.
func BenchmarkProposeBatch(b *testing.B) {
	g := newGroup(b, 3, wal.SyncCommits)
	leader := g.nodes[g.waitLeader(b)]
	datas := make([][]byte, 8)
	for i := range datas {
		datas[i] = bytes.Repeat([]byte{byte(i)}, 120)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first, term, err := leader.ProposeBatchAt(leader.LogLength(), datas)
		if err != nil {
			b.Fatal(err)
		}
		if err := leader.WaitCommitted(first+uint64(len(datas))-1, term); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLeaderDoesNotSpinOnCutFollower: a leader whose appends to one
// follower fail at once retries that follower on its heartbeats and
// proposals, not in a loop of its own. The follower is cut both ways, so
// it cannot depose the leader by campaigning; the bound counts one
// attempt per heartbeat and per proposal in the window, plus slack.
func TestLeaderDoesNotSpinOnCutFollower(t *testing.T) {
	const nodes, proposals = 3, 5
	const electionTimeout = 40 * time.Millisecond
	errCut := errors.New("link cut")
	var cut atomic.Int32
	cut.Store(-1)
	var attempts atomic.Int64
	name := func(i int) string { return fmt.Sprintf("cert%d", i) }
	fabric := transport.NewLocalFabric(0)
	fabric.SetInterposer(linkFunc(func(from, to, method string) error {
		switch c := int(cut.Load()); {
		case c < 0:
			return nil
		case from == name(c):
			return errCut
		case to == name(c) && method == MethodAppend:
			attempts.Add(1)
			return errCut
		}
		return nil
	}))
	g := &group{fabric: fabric}
	for i := 0; i < nodes; i++ {
		peers := make(map[int]transport.Client)
		for j := 0; j < nodes; j++ {
			if j != i {
				peers[j] = fabric.DialFrom(name(i), name(j))
			}
		}
		g.nodes = append(g.nodes, NewNode(Config{
			ID:              i,
			Peers:           peers,
			Disk:            simdisk.New(simdisk.Instant(), int64(i)),
			ElectionTimeout: electionTimeout,
			Seed:            int64(i) + 1,
		}))
		g.servers = append(g.servers, fabric.Serve(name(i), g.nodes[i].HandleRPC))
	}
	for _, node := range g.nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range g.nodes {
			node.Stop()
		}
	})
	ld := g.waitLeader(t)
	leader := g.nodes[ld]
	start := time.Now()
	cut.Store(int32((ld + 1) % nodes))
	for i := 0; i < proposals; i++ {
		proposeAndWait(t, leader, fmt.Sprintf("p%d", i))
	}
	time.Sleep(300 * time.Millisecond)
	window := time.Since(start)
	n := attempts.Load()
	if r, _ := leader.Role(); r != Leader {
		t.Fatalf("node %d lost the lead during the window", ld)
	}
	heartbeats := int64(window/(electionTimeout/3)) + 1
	if bound := heartbeats + proposals + 10; n > bound {
		t.Errorf("%d append attempts to the cut follower in %v, want at most %d (%d heartbeats, %d proposals)", n, window.Round(time.Millisecond), bound, heartbeats, proposals)
	}
	t.Logf("%d append attempts to the cut follower in %v", n, window.Round(time.Millisecond))
}

// linkFunc adapts a per-link filter to transport.Interposer: a non-nil
// error cuts the call before it is delivered.
type linkFunc func(from, to, method string) error

func (f linkFunc) Call(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
	if err := f(from, to, method); err != nil {
		return nil, err
	}
	return deliver()
}
