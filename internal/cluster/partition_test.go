package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/chaos"
	"tashkent/internal/core"
	"tashkent/internal/partition"
	"tashkent/internal/proxy"
	"tashkent/internal/transport"
)

// keyInPartition finds a key that the n-way map assigns to pid.
func keyInPartition(n, pid, salt int) string {
	m := partition.Map{N: n}
	for i := 0; ; i++ {
		k := fmt.Sprintf("p%d-s%d-%d", pid, salt, i)
		if m.Of(core.ItemID{Table: "t", Key: k}) == pid {
			return k
		}
	}
}

// crossCommit writes one key in each of the given partitions in a
// single transaction.
func crossCommit(t *testing.T, c *Cluster, rep int, n int, pids []int, salt int, val string) error {
	t.Helper()
	tx, err := c.Begin(rep)
	if err != nil {
		return err
	}
	for _, pid := range pids {
		if err := tx.Update("t", keyInPartition(n, pid, salt), map[string][]byte{"v": []byte(val)}); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

func TestPartitionedEndToEnd(t *testing.T) {
	const parts = 4
	c := newTestCluster(t, proxy.TashkentMW, 3, func(cfg *Config) {
		cfg.Partitions = parts
	})
	if c.Groups() != parts {
		t.Fatalf("Groups() = %d, want %d", c.Groups(), parts)
	}
	// Single-partition commits spread across partitions and replicas.
	for i := 0; i < 12; i++ {
		key := keyInPartition(parts, i%parts, 100+i)
		if err := clusterCommit(t, c, i%3, key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("single-partition commit %d: %v", i, err)
		}
	}
	// Cross-partition commits, including one spanning all groups.
	if err := crossCommit(t, c, 0, parts, []int{0, 1}, 7, "cross-a"); err != nil {
		t.Fatalf("cross-partition commit {0,1}: %v", err)
	}
	if err := crossCommit(t, c, 1, parts, []int{1, 2, 3}, 8, "cross-b"); err != nil {
		t.Fatalf("cross-partition commit {1,2,3}: %v", err)
	}
	if err := crossCommit(t, c, 2, parts, []int{0, 1, 2, 3}, 9, "cross-c"); err != nil {
		t.Fatalf("cross-partition commit {0,1,2,3}: %v", err)
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := c.Fingerprints()
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			t.Fatalf("replica %d diverged: fingerprints %v", i, fps)
		}
	}
	// Every write visible on every replica.
	for rep := 0; rep < 3; rep++ {
		tx, err := c.Begin(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, pid := range []int{1, 2, 3} {
			v, ok, err := tx.ReadCol("t", keyInPartition(parts, pid, 8), "v")
			if err != nil || !ok || string(v) != "cross-b" {
				t.Errorf("replica %d cross-b part %d = %q %v %v", rep, pid, v, ok, err)
			}
		}
		tx.Abort()
	}
	// The cross-partition rounds were counted.
	var crossCommits int64
	for rep := 0; rep < 3; rep++ {
		crossCommits += c.Replica(rep).Proxy().Stats().CrossPartCommits
	}
	if crossCommits != 3 {
		t.Errorf("CrossPartCommits total = %d, want 3", crossCommits)
	}
}

// TestPartitionedOrderingUnderConcurrency drives concurrent mixed
// single- and cross-partition traffic from every replica and verifies
// all replicas converge to the same fingerprint — the merged apply
// order is deterministic even though each replica receives the group
// streams in different interleavings.
func TestPartitionedOrderingUnderConcurrency(t *testing.T) {
	const parts = 2
	c := newTestCluster(t, proxy.TashkentMW, 3, func(cfg *Config) {
		cfg.Partitions = parts
	})
	var wg sync.WaitGroup
	for rep := 0; rep < 3; rep++ {
		rep := rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if i%4 == 3 {
					// Cross-partition: both groups, per-worker keys.
					crossCommit(t, c, rep, parts, []int{0, 1}, 1000+rep, fmt.Sprintf("x%d-%d", rep, i))
					continue
				}
				key := keyInPartition(parts, i%parts, 2000+rep*100+i)
				clusterCommit(t, c, rep, key, fmt.Sprintf("v%d-%d", rep, i))
			}
		}()
	}
	wg.Wait()
	if err := c.ConvergeAll(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := c.Fingerprints()
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			t.Fatalf("replica %d diverged after concurrent load: %v", i, fps)
		}
	}
}

// TestPartitionedApplyBurst is the applier's acceptance drill, on
// Tashkent-API — the one policy that applies through the scheduler: one
// replica commits a few hundred transactions while the other hears
// nothing, then a single pull releases the whole merged stream into the
// idle replica's four-worker pool at once, as the chunks of a few long
// runs. The burst must drain without an entry given up, well inside the
// version-wait and order timeouts, and leave both replicas identical.
func TestPartitionedApplyBurst(t *testing.T) {
	const parts, clients, perClient = 2, 10, 30
	c := newTestCluster(t, proxy.TashkentAPI, 2, func(cfg *Config) {
		cfg.Partitions = parts
		cfg.ApplyWorkers = 4
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := 0
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var err error
				switch i % 5 {
				case 3: // same-key chain through the scheduler
					err = clusterCommit(t, c, 0, keyInPartition(parts, cl%parts, 5000+cl), fmt.Sprintf("h%d", i))
				case 4:
					err = crossCommit(t, c, 0, parts, []int{0, 1}, 6000+cl*100+i, fmt.Sprintf("x%d", i))
				default:
					err = clusterCommit(t, c, 0, keyInPartition(parts, i%parts, 7000+cl*100+i), fmt.Sprintf("v%d", i))
				}
				if err == nil {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if committed < 250 {
		t.Fatalf("only %d of %d commits succeeded; the burst is too small to mean anything", committed, clients*perClient)
	}
	idle := c.Replica(1)
	if v := idle.Store().AnnouncedVersion(); v != 0 {
		t.Fatalf("replica 1 already at version %d before the burst was released", v)
	}
	start := time.Now()
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("burst took %v to drain; a version wait or order wait expired on the way", d)
	}
	for i := 0; i < 2; i++ {
		st := c.Replica(i).Proxy().ApplyStats()
		if st.GaveUp != 0 {
			t.Errorf("replica %d gave up %d entries", i, st.GaveUp)
		}
		if i == 1 && st.Submitted == 0 {
			t.Error("replica 1 applied the burst without the scheduler")
		}
	}
	if fps := c.Fingerprints(); fps[0] != fps[1] {
		t.Fatalf("replicas diverged after the burst: %v", fps)
	}
}

// TestPartitionedGroupLeaderFailover kills one group's leader under
// load: acked commits must survive the failover (present on every
// replica afterward) and the merged order must stay identical.
func TestPartitionedGroupLeaderFailover(t *testing.T) {
	const parts = 2
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
		cfg.CertTimeout = 5 * time.Second
	})
	type acked struct{ key, val string }
	var oks []acked
	commit := func(pid, salt int, val string) {
		key := keyInPartition(parts, pid, salt)
		if err := clusterCommit(t, c, 0, key, val); err == nil {
			oks = append(oks, acked{key, val})
		}
	}
	for i := 0; i < 6; i++ {
		commit(i%parts, 3000+i, fmt.Sprintf("pre%d", i))
	}

	// Kill group 1's leader. Group 0 stays intact.
	victim := c.GroupLeaderIndex(1)
	if victim < 0 {
		t.Fatal("group 1 has no leader")
	}
	img := c.CrashCertifier(victim)

	// Commits to both groups continue; group 1's clients fail over to
	// the new leader (2-of-3 majority survives).
	for i := 0; i < 6; i++ {
		commit(i%parts, 4000+i, fmt.Sprintf("mid%d", i))
	}
	if err := crossCommit(t, c, 1, parts, []int{0, 1}, 5000, "cross-during-failover"); err != nil {
		t.Fatalf("cross-partition commit during failover: %v", err)
	}

	if err := c.RecoverCertifier(victim, img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		commit(i%parts, 6000+i, fmt.Sprintf("post%d", i))
	}

	if err := c.ConvergeAll(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := c.Fingerprints()
	if fps[0] != fps[1] {
		t.Fatalf("replicas diverged after group failover: %v", fps)
	}
	// No acked commit lost, on either replica.
	for rep := 0; rep < 2; rep++ {
		tx, err := c.Begin(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range oks {
			v, ok, err := tx.ReadCol("t", a.key, "v")
			if err != nil || !ok || string(v) != a.val {
				t.Errorf("replica %d lost acked commit %s=%s (got %q %v %v)", rep, a.key, a.val, v, ok, err)
			}
		}
		tx.Abort()
	}
}

// TestPartitionedReplicaCrashRecovery crashes and recovers a replica
// of a partitioned cluster: recovery replays all group streams through
// the deterministic merge and must land on the survivor's state.
func TestPartitionedReplicaCrashRecovery(t *testing.T) {
	const parts = 2
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
	})
	for i := 0; i < 6; i++ {
		if err := clusterCommit(t, c, i%2, keyInPartition(parts, i%parts, 7000+i), "pre"); err != nil {
			t.Fatal(err)
		}
	}
	if err := crossCommit(t, c, 0, parts, []int{0, 1}, 7100, "cross-pre"); err != nil {
		t.Fatal(err)
	}
	c.CrashReplica(0)
	for i := 0; i < 4; i++ {
		if err := clusterCommit(t, c, 1, keyInPartition(parts, i%parts, 7200+i), "during"); err != nil {
			t.Fatalf("commit during outage: %v", err)
		}
	}
	if _, err := c.RecoverReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ConvergeAll(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := c.Fingerprints()
	if fps[0] != fps[1] {
		t.Fatalf("recovered replica diverged: %v", fps)
	}
	if err := clusterCommit(t, c, 0, keyInPartition(parts, 0, 7300), "post"); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
}

// steerFunc adapts a function to transport.Interposer, for tests that
// reorder the 2PC messages of chosen transactions.
type steerFunc func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error)

func (f steerFunc) Call(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
	return f(from, to, method, req, deliver)
}

// event is a one-shot signal a steering interposer holds messages on.
type event struct {
	once sync.Once
	ch   chan struct{}
}

func newEvent() *event { return &event{ch: make(chan struct{})} }

func (e *event) fire() { e.once.Do(func() { close(e.ch) }) }

// steerHold bounds how long a steered message is held for the events it
// waits on; a hold that expires delivers the message and fails the test.
const steerHold = 2 * time.Second

// hold delays a steered message until every event has fired, counting
// in expired the waits that ran out first.
func hold(expired *atomic.Int32, events ...*event) {
	for _, e := range events {
		select {
		case <-e.ch:
		case <-time.After(steerHold):
			expired.Add(1)
		}
	}
}

// isPrepare reports whether a steered message is a cross-partition
// commit request — a prepare — rather than a one-group commit.
func isPrepare(method string, req []byte) bool {
	var r certifier.Request
	return method == certifier.MethodCertify && transport.DecodeMessage(req, &r) == nil && len(r.Involved) > 1
}

// groupOf parses the certifier group out of a partitioned cluster's
// fabric endpoint name (-1 if to is not a group certifier).
func groupOf(to string) int {
	var g, k int
	if _, err := fmt.Sscanf(to, "cert-g%d-%d", &g, &k); err != nil {
		return -1
	}
	return g
}

// groupEngine rebuilds a certification engine from group g's leader log,
// the way a newly elected leader would, and returns it with the decoded
// entries.
func groupEngine(t *testing.T, c *Cluster, g int) (*core.Engine, []certifier.Entry) {
	t.Helper()
	leader := c.GroupLeader(g)
	if leader == nil {
		t.Fatalf("group %d has no leader", g)
	}
	_, _, entries := leader.Node().SnapshotLog()
	eng := core.NewEngine()
	decoded := make([]certifier.Entry, len(entries))
	for i, e := range entries {
		dec, err := certifier.DecodeLogEntry(e.Data)
		if err != nil {
			t.Fatalf("group %d entry %d: %v", g, e.Index, err)
		}
		decoded[i] = dec
		if err := eng.Append(core.LogEntry{
			Version: core.Version(e.Index), WS: dec.WS, Origin: dec.Origin,
			Start: core.Version(dec.Start),
			Kind:  dec.Kind, GID: dec.GID, Involved: dec.Involved,
		}); err != nil {
			t.Fatalf("group %d entry %d: %v", g, e.Index, err)
		}
	}
	return eng, decoded
}

// waitNoPrepareUnresolved waits for the detached resolvers: every
// prepare in every group's log must get its decision marker.
func waitNoPrepareUnresolved(t *testing.T, c *Cluster) {
	t.Helper()
	var stuck string
	ok := chaos.WaitUntil(5*time.Second, func() bool {
		for g := 0; g < c.Groups(); g++ {
			if eng, _ := groupEngine(t, c, g); eng.OldestPrepared() != 0 {
				stuck = fmt.Sprintf("group %d still holds an unresolved prepare at index %d", g, eng.OldestPrepared())
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal(stuck)
	}
}

// TestCrossPartitionCommitIsOneRound holds group 0's prepare until
// group 1's has been sent, so only a coordinator that prepares every
// group at once gets through without a hold expiring; and it holds
// every Resolve of replica 0 until the commit has returned, so only a
// commit that the prepare round alone decides returns at all. The held
// markers then land, and the replicas converge.
func TestCrossPartitionCommitIsOneRound(t *testing.T) {
	const parts = 2
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
	})
	prepareSent, returned := newEvent(), newEvent()
	var expired, resolves atomic.Int32
	c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		if from == ReplicaName(0) {
			switch g := groupOf(to); {
			case g == 1 && isPrepare(method, req):
				prepareSent.fire()
			case g == 0 && isPrepare(method, req):
				hold(&expired, prepareSent)
			case g >= 0 && method == certifier.MethodResolve:
				resolves.Add(1)
				hold(&expired, returned)
			}
		}
		return deliver()
	}))
	err := crossCommit(t, c, 0, parts, []int{0, 1}, 8000, "one-round")
	returned.fire()
	if err != nil {
		t.Fatalf("cross-partition commit: %v", err)
	}
	if n := expired.Load(); n != 0 {
		t.Fatalf("%d of replica 0's messages waited out the hold: its prepares were not sent at once, or its commit waited for a marker", n)
	}
	waitNoPrepareUnresolved(t, c)
	if n := resolves.Load(); n < parts {
		t.Errorf("replica 0 sent %d resolves, want a commit marker to each of %d groups", n, parts)
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fps := c.Fingerprints(); fps[0] != fps[1] {
		t.Fatalf("replicas diverged: %v", fps)
	}
}

// TestCrossPartitionCommitNeedsNoPull: a yes vote's answer carries its
// group's log through the prepare, so on a quiet cluster the
// coordinator's merge reaches the union without a pull. The interposer
// counts replica 0's pulls between the end of the prepare round and the
// return of the commit; a coordinator that waited for the merger to
// pull the prepares makes at least one there.
func TestCrossPartitionCommitNeedsNoPull(t *testing.T) {
	const parts = 2
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
	})
	// Let every certifier client find its group's leader first.
	if err := crossCommit(t, c, 0, parts, []int{0, 1}, 8300, "warm"); err != nil {
		t.Fatal(err)
	}
	var prepared, pulls atomic.Int32
	c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		if from != ReplicaName(0) {
			return deliver()
		}
		if method == certifier.MethodPull && prepared.Load() == parts {
			pulls.Add(1)
		}
		resp, err := deliver()
		if isPrepare(method, req) && err == nil {
			prepared.Add(1)
		}
		return resp, err
	}))
	for i := 0; i < 3; i++ {
		if err := c.ConvergeAll(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		waitNoPrepareUnresolved(t, c)
		prepared.Store(0)
		err := crossCommit(t, c, 0, parts, []int{0, 1}, 8301+i, fmt.Sprintf("quiet-%d", i))
		prepared.Store(0)
		if err != nil {
			t.Fatalf("cross-partition commit %d: %v", i, err)
		}
	}
	if n := pulls.Load(); n != 0 {
		t.Errorf("replica 0 pulled %d times between its prepare rounds and the return of its commits, want 0", n)
	}
}

// TestCrossPartitionLostPrepareAnswerIsVetoed delivers group 1's prepare
// but replaces its answer with an error the certifier client does not
// retry, so the coordinator lacks the answer. The vote exists, and only the
// group knows it: the coordinator's veto must learn the yes instead of
// casting a no, and the commit lands. The client hears success or an
// error, never a certification abort, which would claim an outcome the
// logs contradict; every prepare is resolved and the replicas converge
// on the committed values.
func TestCrossPartitionLostPrepareAnswerIsVetoed(t *testing.T) {
	const parts, salt = 2, 8400
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
	})
	var lost, vetoes atomic.Int32
	c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		if from != ReplicaName(0) || groupOf(to) != 1 {
			return deliver()
		}
		resp, err := deliver()
		switch {
		case isPrepare(method, req):
			if err == nil && lost.CompareAndSwap(0, 1) {
				// An error the failover client surfaces rather than retries.
				return nil, &transport.RemoteError{Msg: "injected: prepare answer lost"}
			}
		case method == certifier.MethodResolve:
			var r certifier.ResolveRequest
			if transport.DecodeMessage(req, &r) == nil && r.Veto {
				vetoes.Add(1)
			}
		}
		return resp, err
	}))
	err := crossCommit(t, c, 0, parts, []int{0, 1}, salt, "landed")
	if errors.Is(err, proxy.ErrCertificationAbort) {
		t.Fatalf("commit returned %v: a certification abort although every group voted yes", err)
	}
	if lost.Load() == 0 {
		t.Fatal("no prepare answer was dropped")
	}
	if vetoes.Load() == 0 {
		t.Error("the coordinator never vetoed the group whose answer it lacked")
	}
	waitNoPrepareUnresolved(t, c)
	for g := 0; g < parts; g++ {
		eng, log := groupEngine(t, c, g)
		var gid uint64
		for _, e := range log {
			if e.Kind == core.KindPrepare {
				gid = e.GID
			}
		}
		if _, commit, ok := eng.Resolution(gid); gid == 0 || !ok || !commit {
			t.Errorf("group %d: gid %d resolution (commit %v, present %v), want its prepare and a commit marker", g, gid, commit, ok)
		}
	}
	c.Fabric().SetInterposer(nil)
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fps := c.Fingerprints(); fps[0] != fps[1] {
		t.Fatalf("replicas diverged: %v", fps)
	}
	for rep := 0; rep < 2; rep++ {
		tx, err := c.Begin(rep)
		if err != nil {
			t.Fatal(err)
		}
		for pid := 0; pid < parts; pid++ {
			if v, ok, err := tx.ReadCol("t", keyInPartition(parts, pid, salt), "v"); err != nil || !ok || string(v) != "landed" {
				t.Errorf("replica %d partition %d = %q %v %v, want the committed value", rep, pid, v, ok, err)
			}
		}
		tx.Abort()
	}
}

// TestSinglePartitionCommitNeedsNoPull: a certify response carries its
// group's log through the committed entry, so on a quiet cluster the
// committing replica's merge reaches its own commit with no Pull and no
// fill, at one group and at two.
func TestSinglePartitionCommitNeedsNoPull(t *testing.T) {
	forTopologies(t, func(t *testing.T, parts int) {
		c := newTopologyCluster(t, parts)
		pulls := func() (n int64) {
			for i := 0; i < c.Certifiers(); i++ {
				n += c.Certifier(i).Stats().Pulls
			}
			return n
		}
		logs := func() []uint64 {
			out := make([]uint64, parts)
			for g := range out {
				out[g] = c.GroupLeader(g).Node().LogLength()
			}
			return out
		}
		for i := 0; i < 3; i++ {
			if err := c.ConvergeAll(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			before, heads := pulls(), logs()
			// Group 0 commits: its entry is the next one of the merged order.
			if err := clusterCommit(t, c, 0, keyInPartition(parts, 0, 9400+i), "quiet"); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			time.Sleep(20 * time.Millisecond) // a stalled merge nudges within 2 ms
			if n := pulls() - before; n != 0 {
				t.Errorf("commit %d: %d pulls, want 0", i, n)
			}
			for g, n := range logs() {
				want := heads[g]
				if g == 0 {
					want++
				}
				if n != want {
					t.Errorf("commit %d: group %d log %d -> %d, want %d (no fill)", i, g, heads[g], n, want)
				}
			}
		}
	})
}

// TestCrossPartitionRefusalReleasesAnUnansweredGroup: group 0 refuses
// the prepare while group 1 logs its yes but its answer is lost. The
// refusal alone decides the abort, so the coordinator needs no veto, but
// group 1 holds a prepare the coordinator never heard of: the abort
// marker must reach it too, or its lock leaks.
func TestCrossPartitionRefusalReleasesAnUnansweredGroup(t *testing.T) {
	const parts, salt = 2, 8600
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
	})
	k0, k1 := keyInPartition(parts, 0, salt), keyInPartition(parts, 1, salt)
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{k0, k1} {
		if err := tx.Update("t", k, map[string][]byte{"v": []byte("loser")}); err != nil {
			t.Fatal(err)
		}
	}
	// Replica 1 commits k0 after the snapshot: group 0 must now refuse.
	if err := clusterCommit(t, c, 1, k0, "winner"); err != nil {
		t.Fatal(err)
	}
	var lost atomic.Int32
	c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		resp, err := deliver()
		if from == ReplicaName(0) && groupOf(to) == 1 && isPrepare(method, req) && err == nil && lost.CompareAndSwap(0, 1) {
			return nil, &transport.RemoteError{Msg: "injected: prepare answer lost"}
		}
		return resp, err
	}))
	if err := tx.Commit(); !errors.Is(err, proxy.ErrCertificationAbort) {
		t.Fatalf("commit returned %v, want a certification abort", err)
	}
	if lost.Load() == 0 {
		t.Fatal("group 1's prepare answer was not dropped")
	}
	waitNoPrepareUnresolved(t, c)
	c.Fabric().SetInterposer(nil)
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := crossCommit(t, c, 0, parts, []int{0, 1}, salt, "after"); err != nil {
		t.Fatalf("transaction over the same pair after the abort: %v (a lock leaked)", err)
	}
}

// TestCrossPartitionUnionMergedBeforeTheAnswers holds group 1's answer
// to replica 0's prepare while a single-partition commit on replica 0
// makes its merger pull both groups past the transaction's prepares:
// every vote is durable, so that merge applies the union before the
// coordinator has its last answer, with no waiter registered. The
// coordinator must find the union applied when it ingests the answers
// and return the commit at the union's merged version, instead of
// waiting 30 s for a waiter the merge will never take.
func TestCrossPartitionUnionMergedBeforeTheAnswers(t *testing.T) {
	const parts, salt = 2, 8500
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
	})
	// Let every certifier client find its group's leader first.
	if err := crossCommit(t, c, 0, parts, []int{0, 1}, salt+1, "warm"); err != nil {
		t.Fatal(err)
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitNoPrepareUnresolved(t, c)
	delivered, merged := newEvent(), newEvent()
	var expired atomic.Int32
	c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		if from != ReplicaName(0) || groupOf(to) != 1 || !isPrepare(method, req) {
			return deliver()
		}
		resp, err := deliver()
		delivered.fire()
		hold(&expired, merged)
		return resp, err
	}))
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < parts; pid++ {
		if err := tx.Update("t", keyInPartition(parts, pid, salt), map[string][]byte{"v": []byte("raced")}); err != nil {
			t.Fatal(err)
		}
	}
	committed := make(chan error, 1)
	go func() { committed <- tx.Commit() }()
	<-delivered.ch
	// This commit lands in group 0 after the prepare, so its merge
	// passes the union's position.
	err = clusterCommit(t, c, 0, keyInPartition(parts, 0, salt+2), "after")
	merged.fire()
	if err != nil {
		t.Fatalf("single-partition commit behind the prepares: %v", err)
	}
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("cross-partition commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cross-partition commit did not return within 5 s of its answers")
	}
	if n := expired.Load(); n != 0 {
		t.Fatalf("the held answer waited out its hold: the single-partition commit did not merge past the union")
	}
	if tx.CommitVersion() == 0 {
		t.Error("the commit returned no merged version")
	}
	waitNoPrepareUnresolved(t, c)
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fps := c.Fingerprints(); fps[0] != fps[1] {
		t.Fatalf("replicas diverged: %v", fps)
	}
	check, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Abort()
	for pid := 0; pid < parts; pid++ {
		if v, ok, err := check.ReadCol("t", keyInPartition(parts, pid, salt), "v"); err != nil || !ok || string(v) != "raced" {
			t.Errorf("replica 1 partition %d = %q %v %v, want the committed value", pid, v, ok, err)
		}
	}
}

// TestCrossPartitionCrossedPrepares races two transactions over one key
// pair, one key per group, and steers their messages so that T1 locks
// its key in group 0 first, T2 its key in group 1 first, and neither
// abort marker overtakes the other transaction's second prepare: each
// finds its second key locked. Prepare locks refuse instead of waiting,
// so there is no deadlock to avoid and, with every group asked at once,
// no guaranteed winner either — what must hold is that the two never
// both commit, that a loser is told it was a certification abort, and
// that the crossed refusals leak no lock: every prepare gets its marker
// and a later transaction over the same pair commits.
func TestCrossPartitionCrossedPrepares(t *testing.T) {
	const parts, salt = 2, 8100
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
	})
	// Let every certifier client find its group's leader first, so that
	// no steered prepare spends its head start on a follower's redirect.
	for rep := 0; rep < 2; rep++ {
		if err := crossCommit(t, c, rep, parts, []int{0, 1}, salt+1+rep, "warm"); err != nil {
			t.Fatalf("warm-up commit on replica %d: %v", rep, err)
		}
	}
	// answered[r][g] fires once group g's leader has answered the prepare
	// of replica r's transaction. Replica r goes to group r first.
	var answered [2][2]*event
	for r := range answered {
		for g := range answered[r] {
			answered[r][g] = newEvent()
		}
	}
	var expired atomic.Int32
	c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		r, g := -1, groupOf(to)
		for rep := 0; rep < 2; rep++ {
			if from == ReplicaName(rep) {
				r = rep
			}
		}
		if r < 0 || g < 0 {
			return deliver()
		}
		switch {
		case isPrepare(method, req):
			if g != r {
				hold(&expired, answered[1-r][g]) // the other transaction locks here first
			}
			resp, err := deliver()
			if err == nil {
				answered[r][g].fire()
			}
			return resp, err
		case method == certifier.MethodResolve:
			hold(&expired, answered[0][1], answered[1][0]) // both second prepares have met their lock
		}
		return deliver()
	}))

	var txs [2]*proxy.Tx
	for rep := range txs {
		tx, err := c.Begin(rep)
		if err != nil {
			t.Fatal(err)
		}
		for pid := 0; pid < parts; pid++ {
			if err := tx.Update("t", keyInPartition(parts, pid, salt), map[string][]byte{"v": []byte(fmt.Sprintf("t%d", rep+1))}); err != nil {
				t.Fatal(err)
			}
		}
		txs[rep] = tx
	}
	var errs [2]error
	var wg sync.WaitGroup
	for rep := range txs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rep] = txs[rep].Commit()
		}()
	}
	wg.Wait()

	if n := expired.Load(); n != 0 {
		t.Fatalf("%d steered messages waited out the hold: the crossed order was not produced", n)
	}
	for rep, err := range errs {
		if err == nil {
			t.Errorf("T%d committed although the other transaction held its second key", rep+1)
		} else if !errors.Is(err, proxy.ErrCertificationAbort) {
			t.Errorf("T%d: commit returned %v, want a certification abort", rep+1, err)
		}
	}
	waitNoPrepareUnresolved(t, c)
	c.Fabric().SetInterposer(nil)
	if err := crossCommit(t, c, 0, parts, []int{0, 1}, salt, "t3"); err != nil {
		t.Fatalf("third transaction over the same pair: %v (a lock leaked)", err)
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fps := c.Fingerprints(); fps[0] != fps[1] {
		t.Fatalf("replicas diverged: %v", fps)
	}
	for rep := 0; rep < 2; rep++ {
		tx, err := c.Begin(rep)
		if err != nil {
			t.Fatal(err)
		}
		for pid := 0; pid < parts; pid++ {
			if v, ok, err := tx.ReadCol("t", keyInPartition(parts, pid, salt), "v"); err != nil || !ok || string(v) != "t3" {
				t.Errorf("replica %d partition %d = %q %v %v, want t3", rep, pid, v, ok, err)
			}
		}
		tx.Abort()
	}
}

// TestCrossPartitionRefusedPrepareIsFenced has group 0 refuse a prepare
// (a newer committed write to its key) while group 1, asked at the same
// time, makes its own durable. The abort decision must reach both: group
// 1's marker releases the lock, and group 0's — for a gid it never
// prepared — is what keeps a late duplicate of the refused prepare from
// ever locking.
func TestCrossPartitionRefusedPrepareIsFenced(t *testing.T) {
	const parts, salt = 2, 8200
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Partitions = parts
	})
	k0, k1 := keyInPartition(parts, 0, salt), keyInPartition(parts, 1, salt)
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{k0, k1} {
		if err := tx.Update("t", k, map[string][]byte{"v": []byte("loser")}); err != nil {
			t.Fatal(err)
		}
	}
	// Replica 1 commits k0 after the snapshot: group 0 must now refuse.
	if err := clusterCommit(t, c, 1, k0, "winner"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, proxy.ErrCertificationAbort) {
		t.Fatalf("commit returned %v, want a certification abort", err)
	}
	waitNoPrepareUnresolved(t, c)

	eng1, log1 := groupEngine(t, c, 1)
	var gid uint64
	for _, e := range log1 {
		if e.Kind == core.KindPrepare {
			gid = e.GID
		}
	}
	if gid == 0 {
		t.Fatal("group 1 holds no prepare entry: it was not asked while group 0 refused")
	}
	if _, commit, ok := eng1.Resolution(gid); !ok || commit {
		t.Errorf("group 1: resolution of gid %d = (commit %v, present %v), want an abort marker", gid, commit, ok)
	}
	eng0, log0 := groupEngine(t, c, 0)
	for _, e := range log0 {
		if e.Kind == core.KindPrepare {
			t.Errorf("group 0 logged a prepare for gid %d; it should have refused", e.GID)
		}
	}
	if _, commit, ok := eng0.Resolution(gid); !ok || commit {
		t.Errorf("group 0: resolution of gid %d = (commit %v, present %v), want an abort marker", gid, commit, ok)
	}
	// A duplicate of the refused prepare arriving now — its conflict
	// gone with a fresh snapshot — must still be turned away.
	ws := &core.Writeset{}
	ws.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: k0, Cols: []core.ColUpdate{{Col: "v", Value: []byte("late")}}})
	leader0 := c.GroupLeader(0)
	resp, err := leader0.Certify(certifier.Request{
		GID: gid, Origin: 1, StartVersion: leader0.Node().CommitIndex(), Involved: []int{0, 1}, WSBytes: ws.Encode(nil),
	})
	if err != nil || resp.Yes {
		t.Errorf("late duplicate of the refused prepare: prepared=%v err=%v, want a refusal", resp.Yes, err)
	}
	// With replica 0 caught up to the write that beat it, the same pair
	// commits: the abort left no lock behind.
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := crossCommit(t, c, 0, parts, []int{0, 1}, salt, "after"); err != nil {
		t.Fatalf("transaction over the same pair after the abort: %v", err)
	}
}
