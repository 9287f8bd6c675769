package mvstore

// Labeled commits. Every commit that carries a global version range —
// CommitLabeledAsync, CommitLoggedAsync, and CommitLabeled, which waits
// on CommitLabeledAsync — goes through the pending list: the
// transaction's row versions are installed into the chains immediately —
// concurrently with other installers — but stamped with a provisional
// sequence no snapshot can see. Publication (allocating the real commit
// sequence, flipping the versions visible, advancing the commit-order
// semaphore and releasing the write locks) is deferred until the
// semaphore reaches the commit's from version, and happens strictly in
// global version order under the store's apply gate. Readers therefore
// never observe a torn commit or an out-of-order snapshot; only the
// expensive install work runs off the ordered critical section.
//
// The caller (the proxy's dependency scheduler) guarantees that two
// commits writing the same key are never installed concurrently or out
// of version order: the earlier one must be *published* before the
// later one installs, because update-installs merge the previous
// visible columns and the chains must stay in sequence order. For
// disjoint writesets, absolute row values make installs commute, so
// any install interleaving yields the same published state.

import (
	"fmt"
	"sort"

	"tashkent/internal/core"
)

// provisionalBit marks an installed-but-unpublished row version. Real
// commit sequences are small counters; any seq with this bit set
// compares greater than every snapshot and is invisible to readers.
const provisionalBit = uint64(1) << 63

// PendingOutcome reports how a deferred-publication commit resolved.
type PendingOutcome int

const (
	// PendingPublished: the commit's versions became visible at its
	// global-order turn.
	PendingPublished PendingOutcome = iota + 1
	// PendingSuperseded: a catch-up applier announced past the commit's
	// range while it was pending; its provisional versions were
	// discarded (the newer state already covers them).
	PendingSuperseded
	// PendingCrashed: the store crashed before the commit's turn.
	PendingCrashed
)

// pendingCommit is one installed-but-unpublished labeled commit
// awaiting its publication turn. A transaction's lives in its handle
// (Tx.pend), so registering it allocates nothing.
type pendingCommit struct {
	txID     uint64
	from, to uint64
	token    uint64        // provisional seq its row versions carry
	held     []core.ItemID // the written rows: each write locks its row first
	cb       func(PendingOutcome)

	outcome PendingOutcome // set by the drain before callbacks run
	// seq is the published sequence that holds the commit's effects — its
	// own, or for a superseded commit the newer state's: lock waiters
	// with a snapshot below it are first-committer-wins losers.
	seq uint64
	// next links the commits one drain resolves, for their callbacks.
	next *pendingCommit
}

// AnnounceAsync registers a hollow pending commit: nothing to install,
// but the announce chain must advance through (from, to] at its turn
// (certifier barriers, fill no-ops, version ranges whose writesets are
// empty). cb fires when the range is announced (or superseded — for a
// hollow commit the two are equivalent — or the store crashes).
func (s *Store) AnnounceAsync(from, to uint64, cb func(PendingOutcome)) error {
	if to <= from {
		return fmt.Errorf("mvstore: AnnounceAsync(%d, %d): empty version range", from, to)
	}
	if err := s.registerPending(&pendingCommit{from: from, to: to, cb: cb}); err != nil {
		return err
	}
	s.drainPending()
	return nil
}

// CommitLabeledAsync commits the update transaction over global versions
// (from, to] — the label recovery reports (paper §7.2) — with
// publication deferred to the commit-order semaphore (paper §8.3): the
// commit record is logged and the row versions installed now
// (group-committable and parallelizable with concurrent installers), but
// they become visible — and the semaphore advances to to — only when the
// store's announced version reaches from, in strict global order. The
// write locks stay held until publication, preserving
// first-committer-wins. cb reports the final outcome; it may run
// synchronously (a range already superseded resolves before return) or
// from whichever goroutine drives the publication cascade. A range with
// nothing to install goes through AnnounceAsync instead.
//
// It is CommitLoggedAsync behind a one-record log append of its own.
// Callers must ensure no concurrent installer holds an earlier version
// of any written key un-published (see the package comment above).
func (tx *Tx) CommitLabeledAsync(from, to uint64, cb func(PendingOutcome)) error {
	if err := tx.checkLabeledUpdate("CommitLabeledAsync", from, to); err != nil {
		return err
	}
	if tx.store.AnnouncedVersion() >= to {
		// Superseded before the WAL write: the record that covered the
		// range is in the log already, and a recovery replay must never
		// see this stale range after newer ones.
		if err := tx.finishSuperseded(); err != nil {
			return err
		}
		cb(PendingSuperseded)
		return nil
	}
	logged, err := tx.store.log.AppendBatchAsync([][]byte{encodeCommitRecord(from, to, &tx.ws)})
	if err != nil {
		return ErrCrashed
	}
	return tx.CommitLoggedAsync(from, to, logged, cb)
}

// CommitLoggedAsync is CommitLabeledAsync for a transaction whose
// commit record is already in the log under the ticket logged: it waits
// for the record to be durable, then installs and registers for
// publication. A range announced past in the meantime resolves as
// PendingSuperseded through the publication drain.
func (tx *Tx) CommitLoggedAsync(from, to uint64, logged LogTicket, cb func(PendingOutcome)) error {
	if err := tx.checkLabeledUpdate("CommitLoggedAsync", from, to); err != nil {
		return err
	}
	s := tx.store
	if err := logged(); err != nil {
		return ErrCrashed
	}
	if !tx.state.CompareAndSwap(txActive, txDone) {
		if tx.state.Load() == txKilled {
			return ErrTxKilled
		}
		return ErrTxDone
	}
	tx.mu.Lock()
	held := tx.held
	tx.held = nil
	tx.mu.Unlock()
	if s.consumeFailNextCommit() {
		s.stats.aborts.Add(1)
		s.releaseItems(tx.id, held, 0)
		s.unregister(tx.id)
		return ErrCommitRejected
	}
	pc := &tx.pend
	*pc = pendingCommit{
		txID:  tx.id,
		from:  from,
		to:    to,
		token: provisionalBit | s.pendTok.Add(1),
		held:  held,
		cb:    cb,
	}
	// Installed under the provisional token, the rows stay invisible
	// until the drain stamps them with the commit's real sequence.
	minSnap := s.minActiveSnapshot()
	for item, pw := range tx.writes {
		s.installWrite(item, pw, pc.token, minSnap)
	}
	// Out of the registry now: the pending holds row locks, not a
	// snapshot, so it must not depress the GC floor for its whole
	// pendency.
	s.unregister(tx.id)
	if err := s.registerPending(pc); err != nil {
		// Store crashed between install and registration; the
		// provisional versions are unreachable garbage in a dead store.
		return err
	}
	s.drainPending()
	return nil
}

// registerPending inserts pc into the pending list (sorted by from).
// A store that crashed refuses the registration — the crash sweep may
// already have run, and a pending registered after it would never
// resolve.
func (s *Store) registerPending(pc *pendingCommit) error {
	s.pendMu.Lock()
	if s.crashed.Load() {
		s.pendMu.Unlock()
		return ErrCrashed
	}
	i := sort.Search(len(s.pendList), func(i int) bool { return s.pendList[i].from > pc.from })
	s.pendList = append(s.pendList, nil)
	copy(s.pendList[i+1:], s.pendList[i:])
	s.pendList[i] = pc
	s.pendMu.Unlock()
	return nil
}

// takeReadyPending pops the first pending whose from the announce
// cursor has reached. Caller then publishes or discards it.
func (s *Store) takeReadyPending(cur uint64) *pendingCommit {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	if len(s.pendList) == 0 || s.pendList[0].from > cur {
		return nil
	}
	pc := s.pendList[0]
	copy(s.pendList, s.pendList[1:])
	s.pendList[len(s.pendList)-1] = nil
	s.pendList = s.pendList[:len(s.pendList)-1]
	return pc
}

// drainPending publishes every pending commit whose turn has come, in
// global version order, cascading through consecutive ranges. It is
// called after anything that advances the announce semaphore
// (SetAnnounced, a new registration against an already-reached from).
// Each pending publishes its sequence and its
// label together, a hollow one its label over the same sequence, so a
// snapshot taken mid-run is labeled exactly. The order-semaphore
// waiters are woken once, at the end of the run, instead of once per
// published version (WaitAnnounced wakeup batching).
func (s *Store) drainPending() {
	s.applyGate.Lock()
	if s.crashed.Load() {
		s.applyGate.Unlock()
		s.sweepPending()
		return
	}
	cur := s.AnnouncedVersion()
	start := cur
	var done *pendingCommit
	tail := &done
	for {
		pc := s.takeReadyPending(cur)
		if pc == nil {
			break
		}
		if pc.to <= cur {
			// Superseded while pending: a catch-up applier carried the
			// state past this range; discard the invisible versions
			// instead of publishing stale values over newer ones.
			s.discardProvisional(pc)
			pc.outcome, pc.seq = PendingSuperseded, s.cur.Load().seq
			if pc.token != 0 {
				s.stats.superseded.Add(1)
				s.stats.commits.Add(1)
			}
			*tail, tail = pc, &pc.next
			continue
		}
		if pc.token != 0 {
			pc.seq = s.seqAlloc.Add(1)
			s.stampProvisional(pc, pc.seq)
			s.stats.commits.Add(1)
		}
		s.publish(pc.seq, pc.to, false)
		pc.outcome = PendingPublished
		cur = pc.to
		*tail, tail = pc, &pc.next
	}
	if cur > start {
		s.publish(0, cur, true)
	}
	s.applyGate.Unlock()
	for pc := done; pc != nil; pc = pc.next {
		if pc.token != 0 {
			// Locks release as committed either way: a superseded
			// pending's effects are covered by the newer state, so
			// first-committer-wins competitors must still abort.
			s.releaseItems(pc.txID, pc.held, pc.seq)
			if pc.outcome == PendingPublished {
				s.chargeCheckpoint(len(pc.held))
			}
		}
		if pc.cb != nil {
			pc.cb(pc.outcome)
		}
	}
}

// stampProvisional flips a pending commit's row versions visible:
// every version carrying the provisional token is re-stamped with the
// real commit sequence, under the owning shard locks, grouped so each
// shard is locked once. The versions stay invisible until seq is
// published (snapshots are taken from the published prefix), so the
// stamp itself races nothing.
func (s *Store) stampProvisional(pc *pendingCommit, seq uint64) {
	s.forEachProvisional(pc, func(versions []rowVersion, i int) []rowVersion {
		versions[i].seq = seq
		return versions
	})
}

// discardProvisional splices a superseded pending commit's provisional
// versions back out of their chains.
func (s *Store) discardProvisional(pc *pendingCommit) {
	s.forEachProvisional(pc, func(versions []rowVersion, i int) []rowVersion {
		return append(versions[:i], versions[i+1:]...)
	})
}

// forEachProvisional locates each of pc's provisional row versions and
// applies f to it under the owning shard's lock. f returns the chain's
// new contents.
func (s *Store) forEachProvisional(pc *pendingCommit, f func(versions []rowVersion, i int) []rowVersion) {
	for _, item := range pc.held {
		sh := s.dataShardOf(item.Table, item.Key)
		sh.mu.Lock()
		if t := sh.tables[item.Table]; t != nil {
			versions := t[item.Key]
			for i := len(versions) - 1; i >= 0; i-- {
				if versions[i].seq == pc.token {
					t[item.Key] = f(versions, i)
					break
				}
			}
		}
		sh.mu.Unlock()
	}
}

// sweepPending fails every registered pending after a crash or close:
// the store is dead, nothing will ever publish them, and their owners
// (the proxy's apply scheduler) must unblock.
func (s *Store) sweepPending() {
	s.pendMu.Lock()
	pend := s.pendList
	s.pendList = nil
	s.pendMu.Unlock()
	for _, pc := range pend {
		if pc.cb != nil {
			pc.cb(PendingCrashed)
		}
	}
}

// PendingApplies returns the number of installed-but-unpublished
// labeled commits (observability).
func (s *Store) PendingApplies() int {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	return len(s.pendList)
}
