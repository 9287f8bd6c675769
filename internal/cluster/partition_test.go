package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/partition"
	"tashkent/internal/proxy"
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

// TestPartitionedApplyBurst is the applier's acceptance drill: one
// replica commits a few hundred transactions while the other hears
// nothing, then a single pull releases the whole merged stream into the
// idle replica's four-worker pool at once. The burst must drain without
// an entry given up, well inside the version-wait and order timeouts,
// and leave both replicas identical.
func TestPartitionedApplyBurst(t *testing.T) {
	const parts, clients, perClient = 2, 10, 30
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
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
		if i == 1 && st.Published+st.Superseded < int64(committed) {
			t.Errorf("replica 1 resolved %d entries for %d commits", st.Published+st.Superseded, committed)
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
