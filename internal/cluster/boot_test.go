package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tashkent/internal/mvstore"
	"tashkent/internal/proxy"
	"tashkent/internal/workload"
)

// A fresh cluster is led by member 0 of every group in term 1 on every
// node: the one election round Campaign started, and no election timer
// (which would have raised some node's term, or elected whichever
// member's jitter ran out first).
func TestBootCampaignLeadsEveryGroupInOneRound(t *testing.T) {
	cases := map[string]func(*Config){
		"two groups": func(cfg *Config) { cfg.Partitions = 2 },
		"tcp":        func(cfg *Config) { cfg.Transport = "tcp" },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, proxy.TashkentMW, 1, mutate)
			for g := 0; g < c.Groups(); g++ {
				if got, want := c.GroupLeaderIndex(g), g*c.cfg.Certifiers; got != want {
					t.Errorf("group %d led by node %d, want its member 0 (node %d)", g, got, want)
				}
			}
			for i := 0; i < c.Certifiers(); i++ {
				if _, term := c.Certifier(i).Node().Role(); term != 1 {
					t.Errorf("certifier %d at term %d, want 1", i, term)
				}
			}
			if _, err := c.Barrier(2 * time.Second); err != nil {
				t.Errorf("barrier on the booted cluster: %v", err)
			}
		})
	}
}

// Member 0 cannot reach its peers: its campaign gets no votes and the
// other members elect one of themselves when their timers run out. The
// cut holds from construction, before the campaign, and spares every
// link that is not between two certifiers.
func TestBootFallsBackToElectionTimeout(t *testing.T) {
	cut := errors.New("link cut")
	member0 := GroupCertifierName(0, 0)
	isCert := func(name string) bool { return strings.HasPrefix(name, "cert-") }
	c := newTestCluster(t, proxy.TashkentMW, 1, func(cfg *Config) {
		cfg.Interposer = steerFunc(func(from, to, _ string, _ []byte, deliver func() ([]byte, error)) ([]byte, error) {
			if isCert(from) && isCert(to) && (from == member0 || to == member0) {
				return nil, cut
			}
			return deliver()
		})
	})
	if ld := c.GroupLeaderIndex(0); ld != 1 && ld != 2 {
		t.Fatalf("leader is node %d, want 1 or 2", ld)
	}
	if _, err := c.Barrier(2 * time.Second); err != nil {
		t.Errorf("barrier through the timeout-elected leader: %v", err)
	}
}

// The pooled initial load through a pinned replica of a two-group
// cluster: up to eight cross-partition commits of one replica in flight
// at once, and every replica ends with exactly the rows a standalone
// store gets.
func TestPooledPopulateOnPartitionedCluster(t *testing.T) {
	gen := &workload.TPCB{Branches: 12, TellersPerBranch: 3, AccountsPerBranch: 20}
	ctx := context.Background()

	alone := mvstore.Open(mvstore.Config{})
	defer alone.Close()
	if err := gen.Populate(ctx, workload.Plain(func() (workload.PlainTx, error) { return alone.Begin() })); err != nil {
		t.Fatal(err)
	}

	c := newTestCluster(t, proxy.TashkentMW, 2, func(cfg *Config) { cfg.Partitions = 2 })
	if err := gen.Populate(ctx, workload.Plain(func() (workload.PlainTx, error) { return c.Begin(0) })); err != nil {
		t.Fatal(err)
	}
	if err := c.ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, fp := range c.Fingerprints() {
		if want := alone.Fingerprint(); fp != want {
			t.Errorf("replica %d fingerprint %08x, standalone load %08x", i, fp, want)
		}
	}
	if got := c.Replica(1).Store().RowCount("accounts"); got != 12*20 {
		t.Errorf("replica 1 holds %d accounts, want %d", got, 12*20)
	}
}

// An interposer is local-only: New refuses one over TCP.
func TestInterposerNeedsLocalTransport(t *testing.T) {
	pass := steerFunc(func(_, _, _ string, _ []byte, deliver func() ([]byte, error)) ([]byte, error) { return deliver() })
	_, err := New(Config{Mode: proxy.TashkentMW, Transport: "tcp", Interposer: pass})
	if err == nil {
		t.Fatal("New accepted an interposer over tcp")
	}
}
