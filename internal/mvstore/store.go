// Package mvstore is a multi-version storage engine providing snapshot
// isolation, written from scratch as the paper's "off-the-shelf
// database" substitute (the paper used PostgreSQL 8.0.3).
//
// It reproduces every database behaviour the Tashkent experiments
// depend on:
//
//   - MVCC snapshots: a transaction reads the database version that
//     existed when it began and is unaffected by concurrent commits.
//   - Eager write locks with first-committer-wins: the first writer of
//     a row proceeds; competitors block; if the holder commits the
//     competitors abort with ErrWriteConflict (PostgreSQL's "could not
//     serialize access due to concurrent update").
//   - Deadlock detection on the waits-for graph, plus lock-wait
//     timeouts for cross-layer deadlocks the graph cannot see (a local
//     lock holder blocked behind the commit-order semaphore, paper
//     §8.2).
//   - Trigger-style writeset capture with a per-write hook so the
//     middleware can observe partial writesets during execution (eager
//     pre-certification, paper §8.2) and forcibly kill a conflicting
//     local transaction.
//   - A write-ahead log with group commit; synchronous commits can be
//     enabled (Base, Tashkent-API) or disabled (Tashkent-MW).
//   - The extended commit API: CommitLabeledAsync(from, to) writes the
//     commit record immediately (groupable with concurrent commits) and
//     installs the rows invisibly, but publishes the commit only when
//     the database version reaches `from` — the 20-line semaphore
//     change of paper §8.3. CommitLoggedAsync is the same commit behind
//     a record LogCommitRecords already logged.
//   - DUMP/RESTORE for middleware-driven recovery, WAL replay
//     recovery, and crash simulation with or without physical data
//     integrity (paper §7.1 cases 1 and 2).
//
// Internally the engine is lock-striped: row version chains and the
// write-lock manager are hash-striped across shards with independent
// (RW)mutexes, snapshots are taken from an atomic commit cursor, and
// the remaining global concerns — commit publication order with the
// commit-order semaphore, the waits-for deadlock graph — each live
// under their own small lock. Snapshot reads therefore never
// touch a global mutex. See shard.go for the layout and the
// commit-publication invariant.
package mvstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
)

// Errors returned by transaction operations.
var (
	// ErrWriteConflict is the SI first-committer-wins abort: another
	// transaction holding the write lock committed first.
	ErrWriteConflict = errors.New("mvstore: write-write conflict (concurrent update committed)")
	// ErrDeadlock reports a waits-for cycle; the requesting transaction
	// is chosen as the victim.
	ErrDeadlock = errors.New("mvstore: deadlock detected")
	// ErrLockTimeout reports a lock wait exceeding Config.LockTimeout,
	// the escape hatch for deadlocks spanning the commit-order
	// semaphore which the waits-for graph cannot observe.
	ErrLockTimeout = errors.New("mvstore: lock wait timeout")
	// ErrOrderTimeout reports a WaitAnnouncedOr that ran out before the
	// store announced the awaited version — e.g. a wait for 9 without
	// COMMIT 1-8 (paper §5.2).
	ErrOrderTimeout = errors.New("mvstore: commit-order wait timeout")
	// ErrTxDone reports use of a finished transaction handle.
	ErrTxDone = errors.New("mvstore: transaction already finished")
	// ErrTxKilled reports that the middleware forcibly aborted this
	// transaction (eager pre-certification victim).
	ErrTxKilled = errors.New("mvstore: transaction killed")
	// ErrCrashed reports an operation against a crashed store.
	ErrCrashed = errors.New("mvstore: database has crashed")
	// ErrWaitInterrupted reports a WaitAnnouncedOr cut short by its
	// caller's interrupt channel.
	ErrWaitInterrupted = errors.New("mvstore: announce wait interrupted")
	// ErrCommitRejected models the database unilaterally aborting a
	// COMMIT (paper §8.1 "soft recovery": out of disk space, garbage
	// collection, backend crash). Injected by tests via FailNextCommit.
	ErrCommitRejected = errors.New("mvstore: commit rejected by database")
)

// Config parameterizes a store instance.
type Config struct {
	// DataDisk services buffer-pool misses, checkpoint write-back and
	// dump IO. nil means an instant (ram) channel.
	DataDisk *simdisk.Disk
	// LogDisk services WAL fsyncs. nil means an instant channel.
	LogDisk *simdisk.Disk
	// WALMode selects synchronous (SyncCommits) or asynchronous
	// (NoSync) commit records.
	WALMode wal.Mode
	// KeepIntegrity, meaningful with WALMode == NoSync, selects the
	// paper's §7.1 case 2: page writes still obey write-ahead rules so
	// a crash loses recent commits but never corrupts pages. Without
	// it (case 1), a crash with unsynced activity corrupts the data
	// files and recovery must come from a dump.
	KeepIntegrity bool
	// PageMissEvery makes every Nth row read cost one data-page IO,
	// modelling buffer-pool misses (0 disables; AllUpdates and TPC-B
	// run essentially from memory, TPC-W does not).
	PageMissEvery int
	// CheckpointEvery flushes one dirty-page write-back to the data
	// disk for every N committed row writes (0 disables). This is the
	// "writing back dirty database pages" stream that congests a
	// shared IO channel.
	CheckpointEvery int
	// LockTimeout bounds write-lock waits (0 = a generous default).
	LockTimeout time.Duration
	// Stripes sets the data-shard / lock-stripe count, rounded up to a
	// power of two (0 = 64). Lowering it is only useful in tests that
	// want to force cross-shard interleavings onto few stripes.
	Stripes int
}

const defaultLockTimeout = 10 * time.Second

// lockWaiter is one transaction blocked on a write lock.
type lockWaiter struct {
	txID     uint64
	snapshot uint64     // the waiter's snapshot: a holder that committed at or below it is no competitor
	ch       chan error // buffered(1): receives nil (retry) or a fatal error
}

// lockState is an acquired row write lock.
type lockState struct {
	holder  uint64
	waiters []lockWaiter
}

// orderWaiter is one WaitAnnouncedOr call blocked on the announce
// semaphore.
type orderWaiter struct {
	from uint64
	ch   chan struct{} // closed when the cursor's version reaches from
}

// commitCursor is one published state of the store: new snapshots read
// every commit up to install sequence seq, and version is the global
// version label of exactly that state — the commit-order semaphore of
// paper §8.3. A cursor is immutable and publish replaces it whole, so a
// reader loads both halves in one step.
type commitCursor struct {
	seq, version uint64
}

// Stats is a snapshot of store activity counters.
type Stats struct {
	Commits         int64
	ReadOnlyCommits int64
	Aborts          int64
	Deadlocks       int64
	WriteConflicts  int64
	Kills           int64
	RowReads        int64
	RowWrites       int64
	// SupersededCommits counts labeled commits that skipped
	// installation because a catch-up applier (resync) had already
	// carried the state past their version range.
	SupersededCommits int64
}

// statsCounters are the live activity counters, all atomic so hot
// paths never serialize on a stats lock.
type statsCounters struct {
	commits         atomic.Int64
	readOnlyCommits atomic.Int64
	aborts          atomic.Int64
	deadlocks       atomic.Int64
	writeConflicts  atomic.Int64
	kills           atomic.Int64
	rowReads        atomic.Int64
	rowWrites       atomic.Int64
	superseded      atomic.Int64
}

// Store is one database instance. All methods are safe for concurrent
// use by many client sessions.
type Store struct {
	cfg        Config
	stripeMask uint32

	shards        []dataShard    // row version chains
	lockStripes   []lockStripe   // write-lock manager
	activeStripes []activeStripe // in-flight transaction registry

	// Commit sequencing: seqAlloc hands out install sequences, and cur
	// is the commit cursor — the highest fully installed prefix with
	// its version label. Readers load cur without a lock; publish alone
	// writes it, under pubMu, advancing the sequence by one, in order.
	// pubMu also guards orderWait, the callers parked until the label
	// reaches their version.
	seqAlloc  atomic.Uint64
	cur       atomic.Pointer[commitCursor]
	pubMu     sync.Mutex
	pubCond   *sync.Cond
	orderWait []orderWaiter

	// applyGate serializes the install+publish step of *labeled*
	// commits so globally-versioned writesets always reach the row
	// chains in version order. In healthy operation the gate is
	// uncontended (the proxy's merger / order semaphore already
	// serialize labeled applies); it exists for the degraded paths —
	// a resync racing in-flight remote appliers after lost responses
	// or a certifier failover — where two appliers can hold
	// overlapping version ranges. The loser of the gate finds its
	// range already announced and skips (supersededCommits), instead
	// of installing stale values over newer ones.
	applyGate sync.Mutex

	// Deferred-publication labeled commits (CommitLabeledAsync):
	// installed with a provisional sequence, awaiting their announce
	// turn. pendList is sorted by from; drainPending publishes ready
	// prefixes under applyGate. See async.go.
	pendMu   sync.Mutex
	pendList []*pendingCommit
	pendTok  atomic.Uint64

	// Waits-for deadlock graph: blocked tx → lock holder it waits on.
	// Edges are added and removed only by the waiting transaction.
	waitMu   sync.Mutex
	waitsFor map[uint64]uint64

	nextTxID atomic.Uint64

	crashMu sync.Mutex // serializes the crash/close transition
	crashed atomic.Bool
	crashCh chan struct{} // closed on crash, unblocks waiters

	stats          statsCounters
	readTick       atomic.Int64 // page-miss modelling counter
	dirtyTick      atomic.Int64 // checkpoint modelling counter
	failNextCommit atomic.Int32 // fault injection: reject next N commits

	log      *wal.WAL
	dataDisk *simdisk.Disk
	logDisk  *simdisk.Disk
}

// Open creates an empty store.
func Open(cfg Config) *Store {
	if cfg.DataDisk == nil {
		cfg.DataDisk = simdisk.New(simdisk.Instant(), 0)
	}
	if cfg.LogDisk == nil {
		cfg.LogDisk = simdisk.New(simdisk.Instant(), 0)
	}
	if cfg.WALMode == 0 {
		cfg.WALMode = wal.SyncCommits
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = defaultLockTimeout
	}
	stripes := cfg.Stripes
	if stripes <= 0 {
		stripes = defaultStripes
	}
	for stripes&(stripes-1) != 0 {
		stripes++
	}
	s := &Store{
		cfg:           cfg,
		stripeMask:    uint32(stripes - 1),
		shards:        make([]dataShard, stripes),
		lockStripes:   make([]lockStripe, stripes),
		activeStripes: make([]activeStripe, stripes),
		waitsFor:      make(map[uint64]uint64),
		crashCh:       make(chan struct{}),
		log:           wal.New(cfg.LogDisk, cfg.WALMode),
		dataDisk:      cfg.DataDisk,
		logDisk:       cfg.LogDisk,
	}
	s.pubCond = sync.NewCond(&s.pubMu)
	s.cur.Store(&commitCursor{})
	for i := range s.shards {
		s.shards[i].tables = make(map[string]map[string][]rowVersion)
	}
	for i := range s.lockStripes {
		s.lockStripes[i].locks = make(map[core.ItemID]*lockState)
	}
	for i := range s.activeStripes {
		s.activeStripes[i].txs = make(map[uint64]*Tx)
	}
	return s
}

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Commits:           s.stats.commits.Load(),
		ReadOnlyCommits:   s.stats.readOnlyCommits.Load(),
		Aborts:            s.stats.aborts.Load(),
		Deadlocks:         s.stats.deadlocks.Load(),
		WriteConflicts:    s.stats.writeConflicts.Load(),
		Kills:             s.stats.kills.Load(),
		RowReads:          s.stats.rowReads.Load(),
		RowWrites:         s.stats.rowWrites.Load(),
		SupersededCommits: s.stats.superseded.Load(),
	}
}

// AnnouncedVersion returns the current value of the commit-order
// semaphore: the version label of the published state (the highest
// globally ordered version a labeled commit published, or whatever
// SetAnnounced established at recovery).
func (s *Store) AnnouncedVersion() uint64 {
	return s.cur.Load().version
}

// SetAnnounced raises the commit-order semaphore without a commit: a
// recovered replica rejoins at a nonzero global version, or a version
// range with nothing to install passes. Advancing the semaphore may make
// deferred-publication commits eligible, so the pending drain runs
// after.
func (s *Store) SetAnnounced(v uint64) {
	s.publish(0, v, true)
	s.drainPending()
}

// publish is the only writer of the commit cursor. It waits until
// install sequence seq-1 is published, then moves the cursor to seq,
// labeled version, in one store: commits become visible strictly in
// sequence order, so a snapshot at seq sees every commit up to it
// whole, and its label never lags or leads it. A zero seq keeps the
// published state and only raises its label (a range with nothing to
// install, a recovered base). Neither half moves back. wake also
// releases the version waiters the label has reached.
func (s *Store) publish(seq, version uint64, wake bool) {
	s.pubMu.Lock()
	for seq > s.cur.Load().seq+1 {
		s.pubCond.Wait()
	}
	if c := s.cur.Load(); seq > c.seq || version > c.version {
		s.cur.Store(&commitCursor{seq: max(seq, c.seq), version: max(version, c.version)})
		s.pubCond.Broadcast()
	}
	if wake {
		kept, v := s.orderWait[:0], s.AnnouncedVersion()
		for _, w := range s.orderWait {
			if w.from <= v {
				close(w.ch)
			} else {
				kept = append(kept, w)
			}
		}
		s.orderWait = kept
	}
	s.pubMu.Unlock()
}

// ActiveTxns returns the number of in-flight transactions.
func (s *Store) ActiveTxns() int {
	n := 0
	for i := range s.activeStripes {
		st := &s.activeStripes[i]
		st.mu.Lock()
		n += len(st.txs)
		st.mu.Unlock()
	}
	return n
}

// FailNextCommit arms fault injection: the next n update commits are
// rejected with ErrCommitRejected after their WAL append, exercising
// the middleware's soft-recovery path.
func (s *Store) FailNextCommit(n int) {
	s.failNextCommit.Store(int32(n))
}

// consumeFailNextCommit reports whether this commit should be rejected
// by the armed fault injection.
func (s *Store) consumeFailNextCommit() bool {
	for {
		v := s.failNextCommit.Load()
		if v <= 0 {
			return false
		}
		if s.failNextCommit.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// Begin starts a transaction against the latest committed snapshot.
// The snapshot and its version label come from one load of the commit
// cursor, so the label (Tx.SnapshotVersion) names exactly the global
// prefix the snapshot shows.
func (s *Store) Begin() (*Tx, error) {
	if s.crashed.Load() {
		return nil, ErrCrashed
	}
	id := s.nextTxID.Add(1)
	tx := &Tx{store: s, id: id}
	st := s.activeStripeOf(id)
	st.mu.Lock()
	// Snapshot inside the registry lock: a committer computing the GC
	// floor scans this stripe under the same lock, so it either sees
	// this transaction or finishes its scan before the snapshot here is
	// taken (and the snapshot is then >= the floor it pruned with).
	c := s.cur.Load()
	tx.snapshot, tx.version = c.seq, c.version
	st.txs[id] = tx
	st.mu.Unlock()
	if s.crashed.Load() {
		// Crash raced with registration and its kill sweep may have
		// missed us; take ourselves back out.
		s.unregister(id)
		return nil, ErrCrashed
	}
	return tx, nil
}

// pinSnapshot registers a read-only placeholder in the active
// registry (same protocol as Begin, so the GC-floor ordering argument
// applies) and returns the pinned snapshot with its version label, both
// from one load of the commit cursor. Long multi-shard scans — Dump,
// Fingerprint, RowCount — use it so prune-on-commit cannot drop versions
// their snapshot still needs mid-scan. unpin releases it.
func (s *Store) pinSnapshot() (snap, version uint64, unpin func()) {
	pin := &Tx{store: s, id: s.nextTxID.Add(1)}
	st := s.activeStripeOf(pin.id)
	st.mu.Lock()
	c := s.cur.Load()
	pin.snapshot, pin.version = c.seq, c.version
	st.txs[pin.id] = pin
	st.mu.Unlock()
	return pin.snapshot, pin.version, func() { s.unregister(pin.id) }
}

// unregister removes a finished transaction from the active registry.
func (s *Store) unregister(txID uint64) {
	st := s.activeStripeOf(txID)
	st.mu.Lock()
	delete(st.txs, txID)
	st.mu.Unlock()
}

// minActiveSnapshot returns the oldest snapshot any active transaction
// reads from; row versions at or below it, except the newest such
// version, are unreachable and can be garbage collected (PostgreSQL's
// vacuum, done inline at commit). The published floor is loaded before
// the registry scan — see Begin for why that ordering makes the prune
// safe against concurrently starting readers.
func (s *Store) minActiveSnapshot() uint64 {
	min := s.cur.Load().seq
	for i := range s.activeStripes {
		st := &s.activeStripes[i]
		st.mu.Lock()
		for _, tx := range st.txs {
			if tx.snapshot < min {
				min = tx.snapshot
			}
		}
		st.mu.Unlock()
	}
	return min
}

// acquireLock obtains the write lock on item for tx, blocking behind a
// current holder. It returns ErrWriteConflict if the holder commits,
// ErrDeadlock on a waits-for cycle, ErrLockTimeout after
// Config.LockTimeout, and ErrTxKilled/ErrCrashed as appropriate.
func (s *Store) acquireLock(tx *Tx, item core.ItemID) error {
	st := s.lockStripeOf(item)
	deadline := time.Now().Add(s.cfg.LockTimeout)
	// One reusable timer for the whole wait (a retry loop of
	// time.After calls would leak a pending timer per iteration until
	// the deadline fires).
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if s.crashed.Load() {
			return ErrCrashed
		}
		if tx.state.Load() == txKilled {
			return ErrTxKilled
		}
		st.mu.Lock()
		ls := st.locks[item]
		if ls == nil {
			// Grant. The held-list append and the kill check are one
			// critical section, so Kill either sees this lock in
			// tx.held or prevents the grant.
			tx.mu.Lock()
			if tx.state.Load() == txKilled {
				tx.mu.Unlock()
				st.mu.Unlock()
				return ErrTxKilled
			}
			st.locks[item] = &lockState{holder: tx.id}
			tx.held = append(tx.held, item)
			tx.mu.Unlock()
			st.mu.Unlock()
			return nil
		}
		if ls.holder == tx.id {
			st.mu.Unlock()
			return nil
		}
		// Would block: register the edge and run the deadlock check
		// while still holding the stripe lock, so the graph cannot
		// miss a cycle formed by two concurrent blockers.
		s.waitMu.Lock()
		if s.wouldDeadlock(tx.id, ls.holder) {
			s.waitMu.Unlock()
			st.mu.Unlock()
			s.stats.deadlocks.Add(1)
			return ErrDeadlock
		}
		s.waitsFor[tx.id] = ls.holder
		s.waitMu.Unlock()
		w := lockWaiter{txID: tx.id, snapshot: tx.snapshot, ch: make(chan error, 1)}
		ls.waiters = append(ls.waiters, w)
		st.mu.Unlock()

		if timer == nil {
			timer = time.NewTimer(time.Until(deadline))
		} else {
			timer.Reset(time.Until(deadline))
		}
		var err error
		var timedOut bool
		select {
		case err = <-w.ch:
		case <-timer.C:
			timedOut = true
		case <-s.crashCh:
			err = ErrCrashed
		}
		if !timedOut && !timer.Stop() {
			<-timer.C // drain so the next Reset starts clean
		}
		s.waitMu.Lock()
		delete(s.waitsFor, tx.id)
		s.waitMu.Unlock()
		if timedOut {
			st.mu.Lock()
			// Remove ourselves from the waiter queue unless a signal
			// raced in (then honor the signal instead).
			select {
			case err = <-w.ch:
			default:
				s.removeWaiterLocked(st, item, tx.id)
				st.mu.Unlock()
				return ErrLockTimeout
			}
			st.mu.Unlock()
		}
		if err != nil {
			return err
		}
		// Holder aborted; retry acquisition.
	}
}

// wouldDeadlock reports whether making waiter wait on holder closes a
// cycle in the waits-for graph. Caller holds s.waitMu.
func (s *Store) wouldDeadlock(waiter, holder uint64) bool {
	seen := 0
	cur := holder
	for {
		if cur == waiter {
			return true
		}
		next, ok := s.waitsFor[cur]
		if !ok {
			return false
		}
		cur = next
		if seen++; seen > len(s.waitsFor)+1 {
			return false // defensive: graph mutated under us
		}
	}
}

// removeWaiterLocked drops txID from item's waiter queue. Caller holds
// the stripe lock.
func (s *Store) removeWaiterLocked(st *lockStripe, item core.ItemID, txID uint64) {
	ls := st.locks[item]
	if ls == nil {
		return
	}
	for i := range ls.waiters {
		if ls.waiters[i].txID == txID {
			ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
			return
		}
	}
}

// releaseItems drops the write locks a finished transaction held and
// answers their waiters. commitSeq is the sequence the holder committed
// at, 0 if it aborted. First-committer-wins refuses the waiters that ran
// concurrently with a committed holder — those whose snapshot lies below
// commitSeq; a waiter whose snapshot already includes the commit (it
// began after the publication, while the holder was still on its way to
// the release) retries like one behind an aborted holder.
func (s *Store) releaseItems(txID uint64, held []core.ItemID, commitSeq uint64) {
	for _, item := range held {
		st := s.lockStripeOf(item)
		st.mu.Lock()
		ls := st.locks[item]
		if ls == nil || ls.holder != txID {
			st.mu.Unlock()
			continue
		}
		for _, w := range ls.waiters {
			if w.snapshot < commitSeq {
				s.stats.writeConflicts.Add(1)
				w.ch <- ErrWriteConflict
			} else {
				w.ch <- nil
			}
		}
		delete(st.locks, item)
		st.mu.Unlock()
	}
}

// killTx forcibly finishes an active transaction: its state latches to
// killed (losing any race with a concurrent commit latch), its locks
// are released and waiters retried, and it leaves the registry.
// Returns false if the transaction already finished or was killed.
func (s *Store) killTx(tx *Tx) bool {
	if !tx.state.CompareAndSwap(txActive, txKilled) {
		return false
	}
	tx.mu.Lock()
	held := tx.held
	tx.held = nil
	tx.mu.Unlock()
	s.releaseItems(tx.id, held, 0)
	s.unregister(tx.id)
	return true
}

// Kill forcibly aborts an active transaction by id: its locks are
// released, buffered writes discarded, and any subsequent operation on
// the handle returns ErrTxKilled. This is the mechanism the middleware
// uses to resolve local-vs-remote writeset conflicts eagerly
// (paper §8.2: "the proxy aborts the conflicting local update
// transaction, which allows the remote writeset to be executed").
func (s *Store) Kill(txID uint64) bool {
	st := s.activeStripeOf(txID)
	st.mu.Lock()
	tx := st.txs[txID]
	st.mu.Unlock()
	if tx == nil || !s.killTx(tx) {
		return false
	}
	s.stats.kills.Add(1)
	s.stats.aborts.Add(1)
	return true
}

// ConflictingActiveTxns returns the ids of active transactions whose
// partial writesets intersect ws, excluding excludeTx. This is the
// "trigger writes partial writesets to a memory-mapped file readable
// by the proxy" mechanism of paper §8.1.
func (s *Store) ConflictingActiveTxns(ws *core.Writeset, excludeTx uint64) []uint64 {
	if ws.Empty() {
		return nil
	}
	items := make(map[core.ItemID]struct{}, len(ws.Ops))
	for i := range ws.Ops {
		items[ws.Ops[i].Item()] = struct{}{}
	}
	var out []uint64
	var txs []*Tx
	for i := range s.activeStripes {
		st := &s.activeStripes[i]
		st.mu.Lock()
		for _, tx := range st.txs {
			txs = append(txs, tx)
		}
		st.mu.Unlock()
	}
	for _, tx := range txs {
		if tx.id == excludeTx || tx.state.Load() != txActive {
			continue
		}
		tx.mu.Lock()
		for _, held := range tx.held {
			if _, hit := items[held]; hit {
				out = append(out, tx.id)
				break
			}
		}
		tx.mu.Unlock()
	}
	return out
}

// WaitAnnounced blocks until the commit-order semaphore reaches at
// least v (or the timeout elapses, or the store crashes). The proxy
// waits here for the versions its appliers depend on (paper §5.2.1).
func (s *Store) WaitAnnounced(v uint64, timeout time.Duration) error {
	return s.WaitAnnouncedOr(v, timeout, nil)
}

// WaitAnnouncedOr is WaitAnnounced with a way out: a receive from
// interrupt ends the wait with ErrWaitInterrupted. The proxy's apply
// scheduler parks its one version waiter here and interrupts it when
// the set of versions it watches changes.
func (s *Store) WaitAnnouncedOr(v uint64, timeout time.Duration, interrupt <-chan struct{}) error {
	deadline := time.Now().Add(timeout)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if s.crashed.Load() {
			return ErrCrashed
		}
		s.pubMu.Lock()
		if s.AnnouncedVersion() >= v {
			s.pubMu.Unlock()
			return nil
		}
		w := orderWaiter{from: v, ch: make(chan struct{})}
		s.orderWait = append(s.orderWait, w)
		s.pubMu.Unlock()
		if timer == nil {
			timer = time.NewTimer(time.Until(deadline))
		} else {
			timer.Reset(time.Until(deadline))
		}
		select {
		case <-w.ch:
			if !timer.Stop() {
				<-timer.C
			}
		case <-s.crashCh:
			// Crash may have swept the waiter list before we
			// registered; without this case we would sleep out the
			// full timeout on a dead store.
			s.removeOrderWaiter(w)
			return ErrCrashed
		case <-interrupt:
			s.removeOrderWaiter(w)
			return ErrWaitInterrupted
		case <-timer.C:
			s.removeOrderWaiter(w)
			if cur := s.AnnouncedVersion(); cur < v {
				return fmt.Errorf("%w: waiting for announced version %d, at %d", ErrOrderTimeout, v, cur)
			}
			return nil
		}
	}
}

// removeOrderWaiter drops w from the order-wait list.
func (s *Store) removeOrderWaiter(w orderWaiter) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	for i := range s.orderWait {
		if s.orderWait[i].ch == w.ch {
			s.orderWait = append(s.orderWait[:i], s.orderWait[i+1:]...)
			return
		}
	}
}

// maybePageMiss charges a buffer-pool miss to the data channel for
// every Config.PageMissEvery-th read.
func (s *Store) maybePageMiss() {
	n := s.cfg.PageMissEvery
	if n <= 0 {
		return
	}
	if s.readTick.Add(1)%int64(n) == 0 {
		s.dataDisk.PageOps(1)
	}
}

// chargeCheckpoint models background dirty-page write-back: one page
// write per Config.CheckpointEvery committed row writes. The committing
// session does not wait for it; the page op occupies the shared channel
// asynchronously, congesting subsequent fsyncs exactly as the paper's
// shared-IO configuration does.
func (s *Store) chargeCheckpoint(rowWrites int) {
	n := s.cfg.CheckpointEvery
	if n <= 0 || rowWrites == 0 {
		return
	}
	t := s.dirtyTick.Add(int64(rowWrites))
	pages := int(t / int64(n))
	// On CAS failure a concurrent committer saw the same ticks; the
	// residue stays in the counter and is charged by a later commit.
	if pages > 0 && s.dirtyTick.CompareAndSwap(t, t-int64(pages)*int64(n)) {
		go s.dataDisk.PageOps(pages)
	}
}

// Crash simulates a machine/process crash: all in-flight transactions
// die, the volatile WAL suffix is lost, and — in NoSync mode without
// KeepIntegrity — the data files are marked corrupt (paper §7.1 case
// 1). It returns the surviving WAL image and the corruption flag. The
// store is unusable afterwards; recover with RecoverFromWAL or
// RestoreDump.
func (s *Store) Crash() (walImage []byte, corrupt bool) {
	s.crashMu.Lock()
	already := s.crashed.Load()
	if !already {
		s.crashed.Store(true)
		close(s.crashCh)
	}
	s.crashMu.Unlock()
	if already {
		return s.log.CrashImage(0), s.corrupt()
	}
	s.wakeAllOrderWaiters()
	for i := range s.activeStripes {
		st := &s.activeStripes[i]
		st.mu.Lock()
		txs := make([]*Tx, 0, len(st.txs))
		for _, tx := range st.txs {
			txs = append(txs, tx)
		}
		st.mu.Unlock()
		for _, tx := range txs {
			s.killTx(tx)
		}
	}
	s.sweepPending()
	corrupt = s.corrupt()
	s.log.Close()
	return s.log.CrashImage(0), corrupt
}

func (s *Store) wakeAllOrderWaiters() {
	s.pubMu.Lock()
	for _, w := range s.orderWait {
		close(w.ch)
	}
	s.orderWait = nil
	s.pubMu.Unlock()
}

func (s *Store) corrupt() bool {
	return s.cfg.WALMode == wal.NoSync && !s.cfg.KeepIntegrity && s.stats.commits.Load() > 0
}

// Close shuts the store down cleanly (no crash semantics).
func (s *Store) Close() {
	s.crashMu.Lock()
	if s.crashed.Load() {
		s.crashMu.Unlock()
		return
	}
	s.crashed.Store(true)
	close(s.crashCh)
	s.crashMu.Unlock()
	s.wakeAllOrderWaiters()
	s.sweepPending()
	s.log.Close()
}
