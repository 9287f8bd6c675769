package cluster

import (
	"fmt"
	"testing"
	"time"

	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
)

// TestClusterTCPTransport runs the full replicated system with every
// replica↔certifier and certifier↔certifier link over real localhost
// sockets: update-heavy traffic from every replica, convergence to
// identical fingerprints, wire stats accounted.
func TestClusterTCPTransport(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 3, func(cfg *Config) {
		cfg.Transport = "tcp"
	})
	if c.Fabric() != nil {
		t.Fatal("TCP cluster exposes a local fabric; chaos would silently no-op")
	}
	for i := 0; i < 30; i++ {
		rep := i % 3
		if err := clusterCommit(t, c, rep, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("commit %d on replica %d over TCP: %v", i, rep, err)
		}
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := c.Fingerprints()
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			t.Fatalf("replica %d diverged over TCP: fingerprints %v", i, fps)
		}
	}
	for rep := 0; rep < 3; rep++ {
		tx, _ := c.Begin(rep)
		for i := 0; i < 30; i++ {
			v, ok, err := tx.ReadCol("t", fmt.Sprintf("k%d", i), "v")
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Errorf("replica %d k%d = %q %v %v", rep, i, v, ok, err)
			}
		}
		tx.Abort()
	}
	s := c.WireStats()
	if s.Calls == 0 || s.BytesOut == 0 || s.BytesIn == 0 {
		t.Errorf("no wire traffic accounted: %+v", s)
	}
	t.Logf("wire: %d calls, %d B out, %d B in, %d redials", s.Calls, s.BytesOut, s.BytesIn, s.Redials)
}

// TestClusterTCPPartitioned runs the partitioned (multi-group) system
// over sockets — the consistent-hash routing, cross-partition 2PC and
// the deterministic merge all crossing a real wire.
func TestClusterTCPPartitioned(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Transport = "tcp"
		cfg.Partitions = 2
	})
	for i := 0; i < 20; i++ {
		rep := i % 2
		if err := clusterCommit(t, c, rep, fmt.Sprintf("pk%d", i), fmt.Sprintf("pv%d", i)); err != nil {
			t.Fatalf("commit %d on replica %d: %v", i, rep, err)
		}
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
}

// TestClusterTCPCertifierCrashFailover crashes the TCP cluster's
// leader certifier and verifies commits keep flowing after failover —
// the reconnect/redial path exercised end to end.
func TestClusterTCPCertifierCrashFailover(t *testing.T) {
	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) {
		cfg.Transport = "tcp"
		cfg.CertTimeout = 5 * time.Second
	})
	if err := clusterCommit(t, c, 0, "before", "x"); err != nil {
		t.Fatal(err)
	}
	leader := c.GroupLeaderIndex(0)
	if leader < 0 {
		t.Fatal("no leader")
	}
	img := c.CrashCertifier(leader)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := clusterCommit(t, c, 1, "after", "y")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no commit after leader crash: %v", err)
		}
	}
	if err := c.RecoverCertifier(leader, img); err != nil {
		t.Fatal(err)
	}
	if err := clusterCommit(t, c, 0, "recovered", "z"); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps := c.Fingerprints()
	if fps[0] != fps[1] {
		t.Fatalf("divergence after crash/recover over TCP: %v", fps)
	}
}

// TestClusterUnknownTransport rejects a bad backend name.
func TestClusterUnknownTransport(t *testing.T) {
	_, err := New(Config{Mode: proxy.TashkentMW, Replicas: 1,
		IOProfile: simdisk.Instant(), Transport: "carrier-pigeon"})
	if err == nil {
		t.Fatal("unknown transport accepted")
	}
}
