package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/mvstore"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
)

// Mode × Partitions: the merger applies each run of the merged stream
// through proxy.applyRun at any group count, so Base, Tashkent-MW and
// Tashkent-API keep their fsync arithmetic at two certifier groups. The
// drills below run 2 replicas × 2 groups on 4 ms log disks with single-
// and cross-partition commits mixed, and read the arithmetic off replica
// 1's log disk.

const modeParts = 2

func newModeCluster(t *testing.T, mode proxy.Mode) *Cluster {
	return newTestCluster(t, mode, 2, func(cfg *Config) {
		cfg.Partitions = modeParts
		cfg.IOProfile = simdisk.Profile{FsyncLatency: 4 * time.Millisecond}
		cfg.DedicatedIO = true
	})
}

// feedReplica0 commits a cross-partition and a group-0 transaction on
// replica 0. Replica 1 hears none of it: it has no entry waiting to
// merge and no commit of its own, so its merger neither pulls nor fills.
func feedReplica0(t *testing.T, c *Cluster, salt int) {
	t.Helper()
	if err := crossCommit(t, c, 0, modeParts, []int{0, 1}, salt, "cross"); err != nil {
		t.Fatal(err)
	}
	if err := clusterCommit(t, c, 0, keyInPartition(modeParts, 0, salt+1), "single"); err != nil {
		t.Fatal(err)
	}
}

// flushLog records every fsync of a log disk: how many commit records
// each covered.
type flushLog struct {
	mu      sync.Mutex
	records []int
}

func watchFsyncs(d *simdisk.Disk) *flushLog {
	f := &flushLog{}
	d.SetHook(func(op simdisk.Op, records, _ int) {
		if op == simdisk.OpFsync {
			f.mu.Lock()
			f.records = append(f.records, records)
			f.mu.Unlock()
		}
	})
	return f
}

func (f *flushLog) take() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.records
	f.records = nil
	return out
}

// storeLogRanges crashes store (the test is done with it) and returns
// the (from, to] labels of its commit records, in log order.
func storeLogRanges(t *testing.T, store *mvstore.Store) [][2]uint64 {
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

// ownRunWithRemote has replica 1 commit a group-1 transaction whose run
// also carries a remote writeset, and returns the merged version of the
// commit. With both replicas level at the same head H, replica 1's
// commit lands at (H+1, group 1), its response carries that entry, and
// its merger blocks on (H+1, group 0) and pulls group 0 for it; the pull
// is held until replica 0 has committed there. The merger then drains (H+1, 0) —
// remote — and (H+1, 1) — the waiting commit — as one run.
func ownRunWithRemote(t *testing.T, c *Cluster, salt int) uint64 {
	t.Helper()
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	head := c.Replica(1).Store().AnnouncedVersion()
	certified, fed := newEvent(), newEvent()
	var expired atomic.Int32
	c.Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		if from == ReplicaName(1) {
			switch g := groupOf(to); {
			case g == 1 && method == certifier.MethodCertify:
				resp, err := deliver()
				certified.fire()
				return resp, err
			case g == 0 && method == certifier.MethodPull:
				hold(&expired, fed)
			}
		}
		return deliver()
	}))
	defer c.Fabric().SetInterposer(nil)
	own := make(chan error, 1)
	go func() { own <- clusterCommit(t, c, 1, keyInPartition(modeParts, 1, salt), "own") }()
	hold(&expired, certified)
	if err := clusterCommit(t, c, 0, keyInPartition(modeParts, 0, salt+1), "remote"); err != nil {
		t.Fatal(err)
	}
	fed.fire()
	if err := <-own; err != nil {
		t.Fatal(err)
	}
	if n := expired.Load(); n != 0 {
		t.Fatalf("%d steered messages waited out the hold", n)
	}
	if got := c.Replica(1).Store().AnnouncedVersion(); got != head+2 {
		t.Fatalf("replica 1 announced %d after the steered run, want the remote at %d and its commit at %d", got, head+1, head+2)
	}
	return head + 2
}

func TestPartitionedAPIRunCostsOneFsync(t *testing.T) {
	c := newModeCluster(t, proxy.TashkentAPI)
	feedReplica0(t, c, 9000)
	r1 := c.Replica(1)
	flushes := watchFsyncs(r1.LogDisk())
	cv := ownRunWithRemote(t, c, 9010)
	r1.LogDisk().SetHook(nil)
	// Everything before the steered run reached replica 1 as chunks, by
	// ConvergeAll's pulls; the run itself is the last fsync.
	all := flushes.take()
	if n := len(all); n == 0 || all[n-1] != 2 {
		t.Errorf("fsyncs covered %v records, want the last one to hold the run's chunk record and its own commit record", all)
	}
	st := r1.Proxy().Stats()
	if st.RemoteChunks == 0 || st.RemoteApplied != 3 {
		t.Errorf("replica 1 counted %d remote writesets in %d chunks, want 3 (cross, single, steered) in >= 1", st.RemoteApplied, st.RemoteChunks)
	}
	ranges := storeLogRanges(t, r1.Store())
	var at uint64
	for _, rg := range ranges {
		if rg[0] < at || rg[1] <= rg[0] {
			t.Fatalf("log order %v is not ascending", ranges)
		}
		at = rg[1]
	}
	if n := len(ranges); n < 2 || ranges[n-2] != [2]uint64{cv - 2, cv - 1} || ranges[n-1] != [2]uint64{cv - 1, cv} {
		t.Errorf("log %v does not end with the run's chunk (%d,%d] and its own commit (%d,%d]", ranges, cv-2, cv-1, cv-1, cv)
	}
}

func TestPartitionedBaseRunCostsTwoUnsharedFsyncs(t *testing.T) {
	c := newModeCluster(t, proxy.Base)
	feedReplica0(t, c, 9100)
	r1 := c.Replica(1)
	flushes := watchFsyncs(r1.LogDisk())
	cv := ownRunWithRemote(t, c, 9110)
	r1.LogDisk().SetHook(nil)
	// Base shares no fsync, within a run or across runs: every flush
	// holds one record — a run's merged remote commit, or an own commit.
	all := flushes.take()
	for _, n := range all {
		if n != 1 {
			t.Fatalf("fsyncs covered %v records, want one record each", all)
		}
	}
	// The merger installs every entry itself: no worker takes one on a
	// healthy serial run.
	if st := r1.Proxy().ApplyStats(); st.Parallelism.Count != 0 {
		t.Errorf("Base's scheduler workers took %d entries", st.Parallelism.Count)
	}
	ranges := storeLogRanges(t, r1.Store())
	if len(ranges) != len(all) {
		t.Errorf("%d fsyncs for the %d records %v", len(all), len(ranges), ranges)
	}
	if n := len(ranges); n < 2 || ranges[n-2] != [2]uint64{cv - 2, cv - 1} || ranges[n-1] != [2]uint64{cv - 1, cv} {
		t.Errorf("log %v does not end with the run's remote commit (%d,%d] and its own commit (%d,%d]", ranges, cv-2, cv-1, cv-1, cv)
	}
}

func TestPartitionedMWNeverTouchesReplicaDisk(t *testing.T) {
	c := newModeCluster(t, proxy.TashkentMW)
	feedReplica0(t, c, 9200)
	if err := clusterCommit(t, c, 1, keyInPartition(modeParts, 1, 9210), "own"); err != nil {
		t.Fatal(err)
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := c.Replica(i)
		if n := r.LogDisk().Stats().Fsyncs; n != 0 {
			t.Errorf("replica %d paid %d log fsyncs", i, n)
		}
		if st := r.Proxy().ApplyStats(); st.Parallelism.Count != 0 {
			t.Errorf("replica %d's scheduler workers took %d entries", i, st.Parallelism.Count)
		}
	}
	if fps := c.Fingerprints(); fps[0] != fps[1] {
		t.Fatalf("replicas diverged: %v", fps)
	}
}

// TestPartitionedModesRecover: in every mode a commit the database
// refuses — the own commit, a remote install — soft-recovers onto the
// state of the replica that was never refused; a restarted merger
// replaying its groups from index 1 leaves what the store already holds
// alone; and a crashed replica's recovery logs nothing at or below the
// version it recovered.
func TestPartitionedModesRecover(t *testing.T) {
	for _, mode := range []proxy.Mode{proxy.Base, proxy.TashkentMW, proxy.TashkentAPI} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newModeCluster(t, mode)
			r1 := c.Replica(1)
			converged := func(when string) {
				t.Helper()
				if err := c.ConvergeAll(10 * time.Second); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if fps := c.Fingerprints(); fps[0] != fps[1] {
					t.Fatalf("%s: replica 1 diverged from the witness: %v", when, fps)
				}
			}

			// The first commit of the run — its remote install — is refused.
			feedReplica0(t, c, 9300)
			r1.Store().FailNextCommit(1)
			if err := clusterCommit(t, c, 1, keyInPartition(modeParts, 1, 9310), "own-1"); err != nil {
				t.Fatalf("commit behind a refused remote install: %v", err)
			}
			converged("refused remote install")
			// Nothing remote is pending now: the own commit is refused.
			r1.Store().FailNextCommit(1)
			if err := clusterCommit(t, c, 1, keyInPartition(modeParts, 1, 9311), "own-2"); err != nil {
				t.Fatalf("refused own commit: %v", err)
			}
			converged("refused own commit")
			if got := r1.Proxy().Stats().SoftRecoveries; got < 2 {
				t.Errorf("SoftRecoveries = %d, want one per refusal", got)
			}

			// A restarted merger over a store that holds the whole stream:
			// every action is below the announced version. A local
			// transaction writing a row the stream wrote must survive the
			// replay, and the replay must log nothing.
			store := r1.Store()
			base := store.AnnouncedVersion()
			p := proxy.New(proxy.Config{
				Mode: mode, ReplicaID: 2, Store: store, Parts: c.newTopology(1),
			})
			defer p.Close()
			p.SetReplicaVersion(base)
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Update("t", keyInPartition(modeParts, 0, 9301), map[string][]byte{"v": []byte("local")}); err != nil {
				t.Fatal(err)
			}
			logged := r1.LogDisk().Stats().RecordsSynced
			if err := p.Resync(); err != nil {
				t.Fatal(err)
			}
			if err := tx.Update("t", "untouched", map[string][]byte{"v": []byte("local")}); err != nil {
				t.Errorf("the replay finished a local transaction: %v", err)
			}
			tx.Abort()
			if kills := p.Stats().EagerKills; kills != 0 {
				t.Errorf("the replay killed %d local transactions for state the store already held", kills)
			}
			if got := r1.LogDisk().Stats().RecordsSynced; got != logged {
				t.Errorf("the replay logged %d records", got-logged)
			}
			if got := store.AnnouncedVersion(); got != base {
				t.Errorf("the replay moved the announced version %d -> %d", base, got)
			}

			// Crash-restart: recovery replays from index 1 too, and what it
			// logs lies above the version the replica recovered.
			c.CrashReplica(1)
			feedReplica0(t, c, 9320)
			rep, err := c.RecoverReplica(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := clusterCommit(t, c, 1, keyInPartition(modeParts, 1, 9330), "own-3"); err != nil {
				t.Fatalf("post-recovery commit: %v", err)
			}
			converged("crash-restart")
			if st := c.Replica(1).Proxy().Stats(); st.EagerKills != 0 {
				t.Errorf("recovery killed %d local transactions", st.EagerKills)
			}
			for _, rg := range storeLogRanges(t, c.Replica(1).Store()) {
				if rg[1] <= rep.RecoveredVersion {
					t.Errorf("recovery logged (%d,%d], at or below the recovered version %d", rg[0], rg[1], rep.RecoveredVersion)
				}
			}
		})
	}
}
