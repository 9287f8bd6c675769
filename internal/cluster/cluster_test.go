package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/chaos"
	"tashkent/internal/core"
	"tashkent/internal/proxy"
	"tashkent/internal/replica"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
)

func newTestCluster(t *testing.T, mode proxy.Mode, replicas int, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Mode:        mode,
		Replicas:    replicas,
		Certifiers:  3,
		IOProfile:   simdisk.Instant(),
		LockTimeout: time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func clusterCommit(t *testing.T, c *Cluster, rep int, key, val string) error {
	t.Helper()
	tx, err := c.Begin(rep)
	if err != nil {
		return err
	}
	if err := tx.Update("t", key, map[string][]byte{"v": []byte(val)}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func TestClusterEndToEnd(t *testing.T) {
	for _, mode := range []proxy.Mode{proxy.Base, proxy.TashkentMW, proxy.TashkentAPI} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCluster(t, mode, 3, nil)
			for i := 0; i < 6; i++ {
				rep := i % 3
				if err := clusterCommit(t, c, rep, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
					t.Fatalf("commit %d on replica %d: %v", i, rep, err)
				}
			}
			if err := c.ConvergeAll(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			fps := c.Fingerprints()
			for i := 1; i < len(fps); i++ {
				if fps[i] != fps[0] {
					t.Fatalf("replica %d diverged: fingerprints %v", i, fps)
				}
			}
			// All six values visible everywhere.
			for rep := 0; rep < 3; rep++ {
				tx, _ := c.Begin(rep)
				for i := 0; i < 6; i++ {
					v, ok, err := tx.ReadCol("t", fmt.Sprintf("k%d", i), "v")
					if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
						t.Errorf("replica %d k%d = %q %v %v", rep, i, v, ok, err)
					}
				}
				tx.Abort()
			}
		})
	}
}

func TestClusterInvalidMode(t *testing.T) {
	if _, err := New(Config{Mode: 0, Replicas: 1, IOProfile: simdisk.Instant()}); err == nil {
		t.Error("invalid mode accepted")
	}
}

func TestReplicaCrashRecoveryBase(t *testing.T) {
	c := newTestCluster(t, proxy.Base, 2, nil)
	for i := 0; i < 5; i++ {
		if err := clusterCommit(t, c, 0, fmt.Sprintf("k%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	c.CrashReplica(0)
	if _, err := c.Begin(0); !errors.Is(err, replica.ErrCrashed) {
		t.Errorf("Begin on crashed replica returned %v, want replica.ErrCrashed", err)
	}
	// The survivor keeps the system available.
	if err := clusterCommit(t, c, 1, "during-outage", "y"); err != nil {
		t.Fatalf("commit during outage: %v", err)
	}
	rep, err := c.RecoverReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedDump {
		t.Error("Base recovery used a dump")
	}
	if rep.WALRecords == 0 {
		t.Error("Base recovery replayed no WAL records")
	}
	if err := c.ConvergeAll(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := c.Fingerprints()
	if fps[0] != fps[1] {
		t.Error("recovered replica diverged")
	}
	// And it can process new transactions.
	if err := clusterCommit(t, c, 0, "post-recovery", "z"); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
}

func TestReplicaCrashRecoveryMWUsesDump(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 2, nil)
	for i := 0; i < 5; i++ {
		if err := clusterCommit(t, c, 0, fmt.Sprintf("k%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	// Take the periodic dump, then more commits after it.
	if _, err := c.Replica(0).DumpNow(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		if err := clusterCommit(t, c, 0, fmt.Sprintf("k%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	c.CrashReplica(0)
	rep, err := c.RecoverReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedDump || rep.DumpBytes == 0 {
		t.Errorf("MW recovery did not use the dump: %+v", rep)
	}
	if rep.RecoveredVersion != 5 {
		t.Errorf("recovered version %d, want 5 (the dump point)", rep.RecoveredVersion)
	}
	if rep.WritesetsApplied < 3 {
		t.Errorf("resync applied %d writesets, want >= 3 (post-dump commits)", rep.WritesetsApplied)
	}
	if err := c.ConvergeAll(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := c.Fingerprints()
	if fps[0] != fps[1] {
		t.Error("MW-recovered replica diverged")
	}
}

func TestReplicaCrashRecoveryMWNoDump(t *testing.T) {
	// Without any dump, MW recovery rebuilds entirely from the
	// certifier log.
	c := newTestCluster(t, proxy.TashkentMW, 2, nil)
	for i := 0; i < 4; i++ {
		if err := clusterCommit(t, c, 0, fmt.Sprintf("k%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	c.CrashReplica(0)
	rep, err := c.RecoverReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WritesetsApplied < 4 {
		t.Errorf("resync applied %d writesets, want >= 4", rep.WritesetsApplied)
	}
	if err := c.ConvergeAll(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fps := c.Fingerprints(); fps[0] != fps[1] {
		t.Error("diverged after dump-less MW recovery")
	}
}

func TestCertifierCrashRecovery(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 1, nil)
	for i := 0; i < 4; i++ {
		if err := clusterCommit(t, c, 0, fmt.Sprintf("k%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	// Crash a certifier follower, keep committing, then recover it.
	leader := c.GroupLeader(0)
	victim := -1
	for i := range c.certs {
		if c.certs[i] != leader {
			victim = i
			break
		}
	}
	img := c.CrashCertifier(victim)
	for i := 4; i < 8; i++ {
		if err := clusterCommit(t, c, 0, fmt.Sprintf("k%d", i), "x"); err != nil {
			t.Fatalf("commit with certifier down: %v", err)
		}
	}
	if err := c.RecoverCertifier(victim, img); err != nil {
		t.Fatal(err)
	}
	if !chaos.WaitUntil(3*time.Second, func() bool {
		return c.Certifier(victim).Node().CommitIndex() >= 8
	}) {
		t.Errorf("recovered certifier at commit %d, want >= 8", c.Certifier(victim).Node().CommitIndex())
	}
}

func TestCertifierLeaderKillSystemSurvives(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 1, nil)
	if err := clusterCommit(t, c, 0, "before", "x"); err != nil {
		t.Fatal(err)
	}
	leader := c.GroupLeader(0)
	for i := range c.certs {
		if c.certs[i] == leader {
			c.CrashCertifier(i)
			break
		}
	}
	// A new leader is elected and commits continue (client retries
	// internally via the failover client).
	var lastErr error
	if !chaos.WaitUntil(10*time.Second, func() bool {
		lastErr = clusterCommit(t, c, 0, "after", "y")
		return lastErr == nil
	}) {
		t.Fatalf("system never recovered from leader kill: %v", lastErr)
	}
}

func TestReplicaIndexBounds(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 2, nil)
	for _, i := range []int{-1, 2, 99} {
		if tx, err := c.Begin(i); err == nil {
			tx.Abort()
			t.Errorf("Begin(%d) on a 2-replica cluster: want error, got nil", i)
		}
		if rep := c.Replica(i); rep != nil {
			t.Errorf("Replica(%d): want nil, got %v", i, rep)
		}
		if err := c.WaitVersion(context.Background(), i, 0); err == nil {
			t.Errorf("WaitVersion(%d): want error, got nil", i)
		}
	}
	for i := 0; i < 2; i++ {
		if c.Replica(i) == nil {
			t.Errorf("Replica(%d): want non-nil for in-range index", i)
		}
	}
}

func TestAbortRateInjection(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 1, func(cfg *Config) { cfg.AbortRate = 1.0 })
	err := clusterCommit(t, c, 0, "k", "v")
	if err == nil {
		t.Fatal("100% abort rate let a commit through")
	}
	c.SetAbortRate(0)
	if err := clusterCommit(t, c, 0, "k", "v"); err != nil {
		t.Fatalf("after clearing abort rate: %v", err)
	}
}

func TestConcurrentMultiReplicaLoad(t *testing.T) {
	for _, mode := range []proxy.Mode{proxy.Base, proxy.TashkentMW, proxy.TashkentAPI} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCluster(t, mode, 4, nil)
			var wg sync.WaitGroup
			for rep := 0; rep < 4; rep++ {
				rep := rep
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						key := fmt.Sprintf("r%d-%d", rep, i)
						if err := clusterCommit(t, c, rep, key, "v"); err != nil {
							t.Errorf("replica %d commit %d: %v", rep, i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := c.ConvergeAll(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			// Async chunk appliers may still be publishing: wait for
			// the fingerprints to agree instead of sleeping and hoping.
			if !chaos.WaitUntil(5*time.Second, func() bool {
				fps := c.Fingerprints()
				for i := 1; i < len(fps); i++ {
					if fps[i] != fps[0] {
						return false
					}
				}
				return true
			}) {
				t.Fatalf("replicas diverged under %v: fingerprints %v", mode, c.Fingerprints())
			}
			leader := c.GroupLeader(0)
			if got := leader.Node().CommitIndex(); got != 100 {
				t.Errorf("certifier committed %d versions, want 100", got)
			}
		})
	}
}

// TestShippedWritesetIsTheLogEntry: in the classic deployment too, what
// Certify and Pull ship for a version is that version's log entry
// payload — the bytes the leader's paxos log holds — and it decodes
// through DecodeLogEntry to the committed writeset, leader-barrier
// no-ops included.
func TestShippedWritesetIsTheLogEntry(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 3, nil)
	for i := 0; i < 3; i++ {
		if err := clusterCommit(t, c, i, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Barrier(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := clusterCommit(t, c, 0, "k3", "v3"); err != nil {
		t.Fatal(err)
	}
	if err := c.ConvergeAll(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	leader := c.GroupLeader(0)
	call := func(method string, req, resp interface{}) {
		t.Helper()
		b, err := transport.EncodeMessage(req)
		if err != nil {
			t.Fatal(err)
		}
		if b, err = leader.Handle(method, b); err != nil {
			t.Fatal(err)
		}
		if err := transport.DecodeMessage(b, resp); err != nil {
			t.Fatal(err)
		}
	}
	// Origin 99 is no replica of the cluster: every entry is remote to it.
	var pulled certifier.PullResponse
	call(certifier.MethodPull, &certifier.PullRequest{}, &pulled)
	probe := &core.Writeset{}
	probe.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: "probe", Cols: []core.ColUpdate{{Col: "v", Value: []byte("p")}}})
	var certified certifier.Response
	call(certifier.MethodCertify, &certifier.Request{Origin: 99, StartVersion: pulled.SystemVersion, WSBytes: probe.Encode(nil)}, &certified)
	if !certified.Yes {
		t.Fatal("probe transaction aborted")
	}

	_, _, log := leader.Node().SnapshotLog()
	want := map[uint64]string{1: "k0", 2: "k1", 3: "k2", 5: "k3"} // 4 is the barrier
	check := func(from string, remotes []certifier.RemoteWS) {
		t.Helper()
		if len(remotes) != 5 {
			t.Fatalf("%s shipped %d writesets, want versions 1..5", from, len(remotes))
		}
		for _, r := range remotes {
			if !bytes.Equal(r.WSBytes, log[r.Version-1].Data) {
				t.Errorf("%s: version %d shipped as %x, log entry is %x", from, r.Version, r.WSBytes, log[r.Version-1].Data)
			}
			e, err := certifier.DecodeLogEntry(r.WSBytes)
			if err != nil {
				t.Fatalf("%s: version %d: %v", from, r.Version, err)
			}
			key, data := want[r.Version]
			switch {
			case e.Kind != core.KindData:
				t.Errorf("%s: version %d is a %v entry", from, r.Version, e.Kind)
			case !data:
				if !e.WS.Empty() || e.Origin != core.BarrierOrigin {
					t.Errorf("%s: barrier at version %d decodes to %+v", from, r.Version, e)
				}
			case len(e.WS.Ops) != 1 || e.WS.Ops[0].Key != key:
				t.Errorf("%s: version %d decodes to %+v, want one write of %s", from, r.Version, e.WS, key)
			}
		}
	}
	check("pull", pulled.Remote)
	// A commit's answer runs through its own entry: versions 1..5, then 6.
	n := len(certified.Remote)
	if n == 0 || certified.Index != 6 || certified.Remote[n-1].Version != 6 {
		t.Fatalf("certify shipped %d writesets up to its commit at %d, want versions 1..6", n, certified.Index)
	}
	check("certify", certified.Remote[:n-1])
	// The replicas applied the same stream: no-op and all.
	fps := c.Fingerprints()
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			t.Fatalf("replica %d diverged: fingerprints %v", i, fps)
		}
	}
}
