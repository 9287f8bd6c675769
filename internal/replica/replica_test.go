package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/partition"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
)

// newCertGroup starts a single-node certifier and returns the one-group
// topology over it.
func newCertGroup(t *testing.T) *partition.Topology {
	t.Helper()
	fabric := transport.NewLocalFabric(0)
	srv := certifier.New(certifier.Config{
		ID: 0, Peers: map[int]transport.Client{},
		ElectionTimeout: 20 * time.Millisecond, Seed: 1,
	})
	fabric.Serve("cert", srv.Handle)
	srv.Start()
	t.Cleanup(srv.Stop)
	deadline := time.Now().Add(3 * time.Second)
	for !srv.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(time.Millisecond)
	}
	return &partition.Topology{Groups: []*certifier.Client{certifier.NewClient([]transport.Client{fabric.Dial("cert")}, 3*time.Second)}}
}

func TestReplicaLifecycle(t *testing.T) {
	parts := newCertGroup(t)
	r := Open(Config{ID: 1, Mode: proxy.TashkentMW, Parts: parts})
	defer r.Close()

	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", "k", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := r.Proxy().ReplicaVersion(); got != 1 {
		t.Errorf("ReplicaVersion = %d", got)
	}
	if r.Store().RowCount("t") != 1 {
		t.Error("row not visible")
	}
}

func TestReplicaDumpKeepsTwoCopies(t *testing.T) {
	parts := newCertGroup(t)
	r := Open(Config{ID: 1, Mode: proxy.TashkentMW, Parts: parts})
	defer r.Close()
	for i := 0; i < 3; i++ {
		tx, _ := r.Begin()
		tx.Update("t", fmt.Sprintf("k%d", i), map[string][]byte{"v": []byte("x")})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n, err := r.DumpNow(); err != nil || n == 0 {
			t.Fatalf("dump %d: %d bytes, %v", i, n, err)
		}
	}
	r.mu.Lock()
	n := len(r.dumps)
	r.mu.Unlock()
	if n != 2 {
		t.Errorf("kept %d dumps, want 2 (paper keeps last two copies)", n)
	}
}

func TestReplicaCrashThenBeginFails(t *testing.T) {
	parts := newCertGroup(t)
	r := Open(Config{ID: 1, Mode: proxy.Base, Parts: parts})
	defer r.Close()
	r.Crash()
	r.Crash() // idempotent
	if _, err := r.Begin(); err == nil {
		t.Error("Begin on crashed replica succeeded")
	}
	if _, err := r.DumpNow(); err == nil {
		t.Error("DumpNow on crashed replica succeeded")
	}
	if _, err := r.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if _, err := r.Begin(); err != nil {
		t.Errorf("Begin after recovery: %v", err)
	}
	if _, err := r.Recover(); err == nil {
		t.Error("Recover on healthy replica should error")
	}
}

func TestSharedVsDedicatedDiskLayout(t *testing.T) {
	prof := simdisk.Profile{FsyncLatency: time.Millisecond, PageLatency: time.Millisecond}
	data, log := disksFor(IOConfig{Profile: prof})
	if data != log {
		t.Error("shared layout should use one channel for data and log")
	}
	data, log = disksFor(IOConfig{Profile: prof, Dedicated: true})
	if data == log {
		t.Error("dedicated layout should split channels")
	}
	if data.Profile().PageLatency != 0 {
		t.Error("dedicated data channel should be ramdisk (instant)")
	}
	if log.Profile().FsyncLatency != prof.FsyncLatency {
		t.Error("dedicated log channel should keep the physical profile")
	}
}

func TestStandaloneGroupCommits(t *testing.T) {
	sa := OpenStandalone(IOConfig{
		Profile:   simdisk.Profile{FsyncLatency: 3 * time.Millisecond},
		Dedicated: true,
		Seed:      1,
	}, 0, 0)
	defer sa.Close()
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx, err := sa.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Update("t", fmt.Sprintf("k%d", i), map[string][]byte{"v": {1}}); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s := sa.LogDisk().Stats()
	if s.RecordsSynced != n {
		t.Errorf("RecordsSynced = %d", s.RecordsSynced)
	}
	if s.Fsyncs >= n {
		t.Errorf("standalone DB did not group commits: %d fsyncs for %d commits", s.Fsyncs, n)
	}
}
