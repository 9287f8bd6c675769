// Package replica assembles one database replica node: the storage
// engine, its middleware proxy, and the IO channels — plus the
// per-mode crash/recovery procedures of paper §7:
//
//   - Tashkent-MW (§7.1): the database runs without synchronous WAL
//     writes, so a crash may corrupt the data files (case 1). The
//     middleware periodically takes full database dumps, keeps the
//     last two, and recovers by restoring the newest intact dump and
//     re-applying the writesets committed since from the certifier.
//   - Base and Tashkent-API (§7.2): the database recovers from its own
//     WAL, then the proxy re-applies whatever the WAL did not cover —
//     always safe because writesets carry absolute values.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
)

// IOConfig describes the replica's disk layout.
type IOConfig struct {
	// Profile is the physical disk latency profile.
	Profile simdisk.Profile
	// Dedicated puts the database files on ramdisk so the physical
	// channel serves only the log (the paper's "dedicated IO"
	// configuration); otherwise one shared channel serves both.
	Dedicated bool
	// Seed fixes the disks' jitter streams.
	Seed int64
}

// Config parameterizes a replica.
type Config struct {
	ID   int
	Mode proxy.Mode
	IO   IOConfig
	// Parts is the certifier tier: the partition map and one failover
	// client per certifier group (see proxy.Config.Parts).
	Parts *partition.Topology

	// Storage tuning (see mvstore.Config).
	PageMissEvery   int
	CheckpointEvery int
	LockTimeout     time.Duration
	StoreStripes    int // data-shard / lock-stripe count (0 = engine default)

	// Middleware options.
	StalenessBound time.Duration
	// ApplyWorkers is the pool size of the dependency-tracked applier,
	// 0 = 8 (see proxy.Config.ApplyWorkers).
	ApplyWorkers int
}

// ErrCrashed reports operations on a crashed, unrecovered replica.
var ErrCrashed = errors.New("replica: crashed")

// Replica is one node of the replicated database.
type Replica struct {
	cfg      Config
	dataDisk *simdisk.Disk
	logDisk  *simdisk.Disk

	mu      sync.Mutex
	store   *mvstore.Store
	proxy   *proxy.Proxy
	dumps   [][]byte // newest last; at most two kept (paper §7.1)
	crashed bool
}

// disksFor builds the channel layout: shared (one disk for data+log)
// or dedicated (ram data + physical log).
func disksFor(io IOConfig) (data, log *simdisk.Disk) {
	if io.Dedicated {
		return simdisk.New(simdisk.Instant(), io.Seed), simdisk.New(io.Profile, io.Seed+1)
	}
	d := simdisk.New(io.Profile, io.Seed)
	return d, d
}

// storeConfig derives the engine configuration for the mode.
func (cfg *Config) storeConfig(data, log *simdisk.Disk) mvstore.Config {
	sc := mvstore.Config{
		DataDisk:        data,
		LogDisk:         log,
		PageMissEvery:   cfg.PageMissEvery,
		CheckpointEvery: cfg.CheckpointEvery,
		LockTimeout:     cfg.LockTimeout,
		Stripes:         cfg.StoreStripes,
	}
	if cfg.Mode == proxy.TashkentMW {
		// Disable all synchronous WAL writes: durability moves to the
		// certifier, data integrity to the dump procedure.
		sc.WALMode = wal.NoSync
	} else {
		sc.WALMode = wal.SyncCommits
	}
	return sc
}

// Open creates a running replica.
func Open(cfg Config) *Replica {
	data, log := disksFor(cfg.IO)
	r := &Replica{cfg: cfg, dataDisk: data, logDisk: log}
	r.store = mvstore.Open(cfg.storeConfig(data, log))
	r.proxy = r.newProxy(r.store)
	return r
}

func (r *Replica) newProxy(store *mvstore.Store) *proxy.Proxy {
	return proxy.New(proxy.Config{
		Mode:           r.cfg.Mode,
		ReplicaID:      r.cfg.ID,
		Store:          store,
		Parts:          r.cfg.Parts,
		StalenessBound: r.cfg.StalenessBound,
		ApplyWorkers:   r.cfg.ApplyWorkers,
	})
}

// Begin opens a client transaction via the proxy.
func (r *Replica) Begin() (*proxy.Tx, error) {
	r.mu.Lock()
	p, crashed := r.proxy, r.crashed
	r.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return p.Begin()
}

// Proxy returns the current middleware proxy.
func (r *Replica) Proxy() *proxy.Proxy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proxy
}

// Store returns the current storage engine.
func (r *Replica) Store() *mvstore.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// Topology returns the certifier tier the replica was opened with.
func (r *Replica) Topology() *partition.Topology { return r.cfg.Parts }

// DataDisk and LogDisk expose the IO channels for measurement.
func (r *Replica) DataDisk() *simdisk.Disk { return r.dataDisk }

// LogDisk returns the log IO channel.
func (r *Replica) LogDisk() *simdisk.Disk { return r.logDisk }

// DumpNow takes a database copy for Tashkent-MW recovery, labeled with
// the global version its snapshot shows (mvstore.Store.Dump), and
// retains the two most recent copies. The database keeps serving
// transactions while dumping.
func (r *Replica) DumpNow() (int, error) {
	r.mu.Lock()
	store, crashed := r.store, r.crashed
	r.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	dump, err := store.Dump()
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.dumps = append(r.dumps, dump)
	if len(r.dumps) > 2 {
		r.dumps = r.dumps[len(r.dumps)-2:]
	}
	r.mu.Unlock()
	return len(dump), nil
}

// Crash simulates a machine crash: the store dies, in-flight
// transactions are lost, and the volatile WAL suffix disappears.
func (r *Replica) Crash() {
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return
	}
	r.crashed = true
	store, p := r.store, r.proxy
	r.mu.Unlock()
	p.Close()
	store.Crash()
}

// RecoveryReport describes a completed recovery.
type RecoveryReport struct {
	Mode             proxy.Mode
	UsedDump         bool
	DumpBytes        int
	WALRecords       int
	RecoveredVersion uint64 // version the database state covered before resync
	WritesetsApplied int64  // re-applied from the certifier during resync
	RestoreDuration  time.Duration
	ResyncDuration   time.Duration
}

// Recover brings a crashed replica back per the mode's procedure and
// reports what happened.
func (r *Replica) Recover() (RecoveryReport, error) {
	r.mu.Lock()
	if !r.crashed {
		r.mu.Unlock()
		return RecoveryReport{}, errors.New("replica: not crashed")
	}
	oldStore := r.store
	dumps := make([][]byte, len(r.dumps))
	copy(dumps, r.dumps)
	r.mu.Unlock()

	walImage, corrupt := oldStore.Crash() // idempotent accessor
	report := RecoveryReport{Mode: r.cfg.Mode}
	restoreStart := time.Now()

	var store *mvstore.Store
	var base uint64
	scfg := r.cfg.storeConfig(r.dataDisk, r.logDisk)
	switch r.cfg.Mode {
	case proxy.TashkentMW:
		// Case 1 (§7.1): data may be corrupt; restore the newest
		// intact dump (or start empty if none was ever taken).
		report.UsedDump = true
		restored := false
		for i := len(dumps) - 1; i >= 0; i-- {
			s, covered, err := mvstore.RestoreDump(scfg, dumps[i])
			if err != nil {
				continue // torn copy: fall back to the previous one
			}
			store, base = s, covered
			report.DumpBytes = len(dumps[i])
			restored = true
			break
		}
		if !restored {
			store = mvstore.Open(scfg)
		}
	default:
		// Base / Tashkent-API (§7.2): standard database recovery from
		// the WAL. corrupt cannot happen with synchronous commits.
		if corrupt {
			return report, fmt.Errorf("replica: unexpected data corruption in %v mode", r.cfg.Mode)
		}
		s, info, err := mvstore.RecoverFromWAL(scfg, walImage, 0)
		if err != nil {
			return report, err
		}
		store, base = s, info.CoveredTo
		report.WALRecords = info.Records
	}
	report.RecoveredVersion = base
	report.RestoreDuration = time.Since(restoreStart)

	store.SetAnnounced(base)
	p := r.newProxy(store)
	p.SetReplicaVersion(base)

	// Re-apply the writesets committed during the outage from the
	// certifier's log (all systems, §7.2/§9.6).
	resyncStart := time.Now()
	before := p.Stats().RemoteApplied
	if err := p.Resync(); err != nil {
		p.Close()
		store.Close()
		return report, fmt.Errorf("replica: resync: %w", err)
	}
	report.WritesetsApplied = p.Stats().RemoteApplied - before
	report.ResyncDuration = time.Since(resyncStart)

	r.mu.Lock()
	r.store = store
	r.proxy = p
	r.crashed = false
	r.mu.Unlock()
	return report, nil
}

// Close shuts the replica down cleanly.
func (r *Replica) Close() {
	r.mu.Lock()
	store, p := r.store, r.proxy
	crashed := r.crashed
	r.crashed = true
	r.mu.Unlock()
	if !crashed {
		p.Close()
		store.Close()
	}
}

// Standalone is a non-replicated database endpoint used for the
// paper's standalone-vs-1-replica comparison (§9.2): clients commit
// directly against one store, which group-commits concurrent sessions
// exactly like a production database.
type Standalone struct {
	store    *mvstore.Store
	logDisk  *simdisk.Disk
	dataDisk *simdisk.Disk
}

// OpenStandalone creates a standalone database with the given IO
// layout.
func OpenStandalone(io IOConfig, pageMissEvery, checkpointEvery int) *Standalone {
	data, log := disksFor(io)
	return &Standalone{
		store: mvstore.Open(mvstore.Config{
			DataDisk: data, LogDisk: log,
			WALMode:         wal.SyncCommits,
			PageMissEvery:   pageMissEvery,
			CheckpointEvery: checkpointEvery,
		}),
		logDisk:  log,
		dataDisk: data,
	}
}

// Begin opens a transaction.
func (s *Standalone) Begin() (*mvstore.Tx, error) { return s.store.Begin() }

// Store exposes the engine.
func (s *Standalone) Store() *mvstore.Store { return s.store }

// LogDisk exposes the log channel.
func (s *Standalone) LogDisk() *simdisk.Disk { return s.logDisk }

// Close shuts the database down.
func (s *Standalone) Close() { s.store.Close() }
