package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/chaos"
	"tashkent/internal/proxy"
)

// One topology outside the ordering point: a classic cluster is the
// one-group partition topology, so commit, pull, catch-up and
// convergence run the same code at any group count. Each test below runs
// at Partitions 1 and 2.

func forTopologies(t *testing.T, test func(t *testing.T, parts int)) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) { test(t, parts) })
	}
}

func newTopologyCluster(t *testing.T, parts int) *Cluster {
	return newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) { cfg.Partitions = parts })
}

// requireRows checks that every replica reads every key at its value,
// and that the replicas agree.
func requireRows(t *testing.T, c *Cluster, rows map[string]string) {
	t.Helper()
	if fps := c.Fingerprints(); fps[0] != fps[1] {
		t.Fatalf("replicas diverged: %v", fps)
	}
	for rep := 0; rep < c.Replicas(); rep++ {
		tx, err := c.Begin(rep)
		if err != nil {
			t.Fatal(err)
		}
		for key, val := range rows {
			if v, ok, err := tx.ReadCol("t", key, "v"); err != nil || !ok || string(v) != val {
				t.Errorf("replica %d %s = %q %v %v, want %q", rep, key, v, ok, err, val)
			}
		}
		tx.Abort()
	}
}

// TestTopologyOneClientPerGroup: every replica holds exactly one
// certifier client per group, and client g reaches group g.
func TestTopologyOneClientPerGroup(t *testing.T) {
	forTopologies(t, func(t *testing.T, parts int) {
		c := newTopologyCluster(t, parts)
		// Only the last group commits: a client wired to another group
		// reports a different head.
		if err := clusterCommit(t, c, 0, keyInPartition(parts, parts-1, 1), "v"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.Replicas(); i++ {
			topo := c.Replica(i).Topology()
			if len(topo.Groups) != parts || max(topo.Map.N, 1) != parts {
				t.Fatalf("replica %d holds %d clients over a %d-way map, want %d", i, len(topo.Groups), topo.Map.N, parts)
			}
			for g, client := range topo.Groups {
				resp, err := client.Pull(certifier.PullRequest{})
				if err != nil {
					t.Fatal(err)
				}
				if head := c.GroupLeader(g).Node().CommitIndex(); resp.SystemVersion != head {
					t.Errorf("replica %d client %d reports head %d, group %d's is %d", i, g, resp.SystemVersion, g, head)
				}
			}
		}
	})
}

// TestTopologyCancelledCommitResolvesDetached: a commit whose ctx is
// cancelled while its commit request is in flight returns ctx's error,
// and the round it leaves behind lands the decision the certifier made.
func TestTopologyCancelledCommitResolvesDetached(t *testing.T) {
	forTopologies(t, func(t *testing.T, parts int) {
		c := newTopologyCluster(t, parts)
		acked, cancelled := keyInPartition(parts, 0, 10), keyInPartition(parts, parts-1, 11)
		if err := clusterCommit(t, c, 0, acked, "acked"); err != nil {
			t.Fatal(err)
		}
		reached, release := newEvent(), newEvent()
		var expired atomic.Int32
		c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
			if from == ReplicaName(0) && method == certifier.MethodCertify {
				reached.fire()
				hold(&expired, release)
			}
			return deliver()
		}))
		defer c.Fabric().SetInterposer(nil)
		tx, err := c.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("t", cancelled, map[string][]byte{"v": []byte("cancelled")}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-reached.ch
			cancel()
		}()
		if err := tx.CommitCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled commit returned %v, want context.Canceled", err)
		}
		release.fire()
		if !chaos.WaitUntil(5*time.Second, func() bool { return c.Replica(0).Proxy().Stats().Commits == 2 }) {
			t.Fatalf("the detached round never committed the certified transaction (%d commits)", c.Replica(0).Proxy().Stats().Commits)
		}
		if n := expired.Load(); n != 0 {
			t.Fatalf("%d steered messages waited out the hold", n)
		}
		if err := c.ConvergeAll(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		requireRows(t, c, map[string]string{acked: "acked", cancelled: "cancelled"})
	})
}

// TestCrossPartitionCancelledCommitReturnsAtOnce: a cross-partition
// commit whose ctx is cancelled while group 1 holds its request returns
// ctx's error at once, before the hold is released, and the round it
// leaves behind still lands: both parts commit on every replica, and
// every prepare gets its decision marker.
func TestCrossPartitionCancelledCommitReturnsAtOnce(t *testing.T) {
	const parts = 2
	c := newTopologyCluster(t, parts)
	k0, k1 := keyInPartition(parts, 0, 12), keyInPartition(parts, 1, 12)
	reached, release := newEvent(), newEvent()
	var expired atomic.Int32
	c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		if from == ReplicaName(0) && groupOf(to) == 1 && isPrepare(method, req) {
			reached.fire()
			hold(&expired, release)
		}
		return deliver()
	}))
	defer c.Fabric().SetInterposer(nil)
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{k0, k1} {
		if err := tx.Update("t", key, map[string][]byte{"v": []byte("cancelled")}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-reached.ch
		cancel()
	}()
	err = tx.CommitCtx(ctx)
	release.fire()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cross-partition commit returned %v, want context.Canceled", err)
	}
	if n := expired.Load(); n != 0 {
		t.Fatalf("%d steered messages waited out the hold: the commit did not return at the cancel", n)
	}
	// Convergence covers only what the groups have committed: wait for
	// the detached round first.
	if !chaos.WaitUntil(5*time.Second, func() bool { return c.Replica(0).Proxy().Stats().CrossPartCommits == 1 }) {
		t.Fatalf("the detached round never committed the certified transaction (%+v)", c.Replica(0).Proxy().Stats())
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireRows(t, c, map[string]string{k0: "cancelled", k1: "cancelled"})
	waitNoPrepareUnresolved(t, c)
}

// TestTopologyPullOnceCatchesUpIdleReplica: a replica that received
// nothing reaches its peer's state from one PullOnce.
func TestTopologyPullOnceCatchesUpIdleReplica(t *testing.T) {
	forTopologies(t, func(t *testing.T, parts int) {
		c := newTopologyCluster(t, parts)
		rows := map[string]string{}
		for i := 0; i < 6; i++ {
			key := keyInPartition(parts, i%parts, 20+i)
			if err := clusterCommit(t, c, 0, key, fmt.Sprintf("v%d", i)); err != nil {
				t.Fatal(err)
			}
			rows[key] = fmt.Sprintf("v%d", i)
		}
		idle := c.Replica(1)
		if v := idle.Store().AnnouncedVersion(); v != 0 {
			t.Fatalf("replica 1 at version %d before its pull", v)
		}
		target := c.Replica(0).Store().AnnouncedVersion()
		if err := idle.Proxy().PullOnce(); err != nil {
			t.Fatal(err)
		}
		if err := idle.Store().WaitAnnounced(target, 5*time.Second); err != nil {
			t.Fatalf("replica 1 never reached version %d: %v", target, err)
		}
		requireRows(t, c, rows)
	})
}

// TestTopologyReplicaCrashResyncs: a crashed replica's recovery resyncs
// it onto the survivor's state, outage commits included.
func TestTopologyReplicaCrashResyncs(t *testing.T) {
	forTopologies(t, func(t *testing.T, parts int) {
		c := newTopologyCluster(t, parts)
		rows := map[string]string{}
		commit := func(rep, i int, val string) {
			t.Helper()
			key := keyInPartition(parts, i%parts, 30+i)
			if err := clusterCommit(t, c, rep, key, val); err != nil {
				t.Fatal(err)
			}
			rows[key] = val
		}
		for i := 0; i < 4; i++ {
			commit(i%2, i, "pre")
		}
		c.CrashReplica(0)
		for i := 4; i < 8; i++ {
			commit(1, i, "outage")
		}
		if _, err := c.RecoverReplica(0); err != nil {
			t.Fatal(err)
		}
		if err := c.ConvergeAll(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		requireRows(t, c, rows)
		commit(0, 8, "post")
	})
}

// TestTopologyConvergeAfterGroupLeaderCrash: ConvergeAll straight after
// a group leader's crash and recovery, with no Barrier first. The new
// leader may hold the acked tail of the old term uncommitted; ConvergeAll
// must finalize it rather than converge below acked commits.
func TestTopologyConvergeAfterGroupLeaderCrash(t *testing.T) {
	forTopologies(t, func(t *testing.T, parts int) {
		c := newTopologyCluster(t, parts)
		rows := map[string]string{}
		for i := 0; i < 6; i++ {
			key := keyInPartition(parts, i%parts, 40+i)
			if err := clusterCommit(t, c, 0, key, "acked"); err != nil {
				t.Fatal(err)
			}
			rows[key] = "acked"
		}
		victim := c.GroupLeaderIndex(0)
		if victim < 0 {
			t.Fatal("group 0 has no leader")
		}
		img := c.CrashCertifier(victim)
		if !chaos.WaitUntil(5*time.Second, func() bool { return c.GroupLeaderIndex(0) >= 0 }) {
			t.Fatal("group 0 never elected a new leader")
		}
		if err := c.RecoverCertifier(victim, img); err != nil {
			t.Fatal(err)
		}
		if leader := c.GroupLeader(0); leader != nil {
			t.Logf("new leader of group 0: commit index %d of log %d", leader.Node().CommitIndex(), leader.Node().LogLength())
		}
		if err := c.ConvergeAll(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		requireRows(t, c, rows)
	})
}
