package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"tashkent"
	"tashkent/internal/cluster"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
	"tashkent/internal/workload"
)

// Sizing shared by every workload: a 5 ms jitter-free fsync on a
// dedicated log channel keeps the whole process at 0.15–0.3 of a core,
// so simulated disk time — not the scheduler of a small shared VM —
// sets every end-to-end number. NetDelay is 0 everywhere: the local
// fabric is a function call and TCP is loopback, so no latency here is
// a network number.
var diskProfile = simdisk.Profile{FsyncLatency: 5 * time.Millisecond}

// clusterSeed fixes the system's own randomness (election jitter, disk
// streams); -seed varies only the generated inputs.
const clusterSeed = 42

// spec is one benchmark workload: a generator, a system configuration
// and a load shape.
type spec struct {
	name string
	gen  func() workload.Generator
	// build boots the system under test through its public
	// constructors.
	build func() (*env, error)
	// clientsPerReplica closed-loop clients drive each client group.
	clientsPerReplica int
	// openRate > 0 switches from closed-loop clients to an open loop
	// offering this many evenly spaced transactions per second,
	// round-robin over the replicas, executed by a pool of openConns
	// connections; requests that find every connection busy queue.
	openRate  float64
	openConns int
}

// env is a booted system plus what the driver and the layer collectors
// need from it.
type env struct {
	c *cluster.Cluster
	// begins[i] opens transactions for client group i.
	begins []workload.BeginFunc
	// gapTimeouts counts proxy sequencer "gap-timeout" admissions (nil
	// when the system was built through tashkent.Start, which has no
	// SeqObserver plumb).
	gapTimeouts *atomic.Int64
	close       func()
}

func clusterEnv(cfg cluster.Config) (*env, error) {
	e := &env{gapTimeouts: new(atomic.Int64)}
	cfg.Certifiers = 3
	cfg.IOProfile = diskProfile
	cfg.DedicatedIO = true
	cfg.LocalCertification = true
	cfg.EagerPreCert = true
	cfg.LockTimeout = 5 * time.Second
	cfg.OrderTimeout = 10 * time.Second
	cfg.Seed = clusterSeed
	cfg.SeqObserver = func(_ int, _, _ uint64, outcome string) {
		if outcome == "gap-timeout" {
			e.gapTimeouts.Add(1)
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	e.c = c
	e.close = c.Close
	for i := 0; i < c.Replicas(); i++ {
		i := i
		e.begins = append(e.begins, workload.Plain(func() (workload.PlainTx, error) { return c.Begin(i) }))
	}
	return e, nil
}

// sessionEnv boots the system through the public façade and routes
// every transaction through one Session per client group (default
// round-robin policy, causal tokens on).
func sessionEnv(cfg tashkent.Config, sessions int) (*env, error) {
	cfg.Certifiers = 3
	cfg.DiskProfile = diskProfile
	cfg.DedicatedLogDisk = true
	cfg.Seed = clusterSeed
	db, err := tashkent.Start(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{c: db.Cluster(), close: db.Close}
	for i := 0; i < sessions; i++ {
		e.begins = append(e.begins, db.Session().WorkloadBegin())
	}
	return e, nil
}

// tpcbGen sizes TPC-B to 64 branches: 8 branches abort 72 % of attempts,
// 64 keep it near 12 %.
func tpcbGen() workload.Generator {
	return &workload.TPCB{Branches: 64, TellersPerBranch: 10, AccountsPerBranch: 100}
}

// tpcwGen cuts CPUWork to 200 so the store's read path, not the
// synthetic spin, is half or more of a read transaction.
func tpcwGen() workload.Generator {
	return &workload.TPCW{Items: 1000, ReadsPerBrowse: 6, CPUWork: 200, UpdateFraction: 0.2}
}

var specs = []spec{
	{
		name: "au_mw_closed",
		gen:  func() workload.Generator { return &workload.AllUpdates{} },
		build: func() (*env, error) {
			return clusterEnv(cluster.Config{Mode: proxy.TashkentMW, Replicas: 3})
		},
		clientsPerReplica: 4,
	},
	{
		name: "au_api_tcp_open",
		gen:  func() workload.Generator { return &workload.AllUpdates{} },
		build: func() (*env, error) {
			return clusterEnv(cluster.Config{Mode: proxy.TashkentAPI, Replicas: 3, Transport: "tcp", ApplyWorkers: 4})
		},
		openRate: 300, openConns: 16,
	},
	{
		name: "tpcb_part_closed",
		gen:  tpcbGen,
		build: func() (*env, error) {
			return clusterEnv(cluster.Config{Mode: proxy.TashkentMW, Replicas: 2, Partitions: 2})
		},
		clientsPerReplica: 4,
	},
	{
		name: "tpcw_base_mix",
		gen:  tpcwGen,
		build: func() (*env, error) {
			return sessionEnv(tashkent.Config{Mode: tashkent.ModeBase, Replicas: 2}, 2)
		},
		clientsPerReplica: 4,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// setupTimes splits one set-up.
type setupTimes struct {
	boot, populate, converge time.Duration
}

func (t setupTimes) total() time.Duration { return t.boot + t.populate + t.converge }

// setUp boots the workload's system, loads the initial database through
// client group 0 and converges every replica onto it.
func setUp(ctx context.Context, s spec) (*env, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	e, err := s.build()
	if err != nil {
		return nil, t, fmt.Errorf("boot: %w", err)
	}
	t1 := time.Now()
	if err := s.gen().Populate(ctx, e.begins[0]); err != nil {
		e.close()
		return nil, t, fmt.Errorf("populate: %w", err)
	}
	t2 := time.Now()
	if err := e.c.ConvergeAll(30 * time.Second); err != nil {
		e.close()
		return nil, t, fmt.Errorf("converge after populate: %w", err)
	}
	t.boot, t.populate, t.converge = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return e, t, nil
}
