package mvstore

// Deferred-publication labeled commits. CommitLabeledAsync is the
// install side of the parallel-apply split: the transaction's row
// versions are installed into the chains immediately — concurrently
// with other installers — but stamped with a provisional sequence no
// snapshot can see. Publication (allocating the real commit sequence,
// flipping the versions visible, advancing the commit-order semaphore
// and releasing the write locks) is deferred until the semaphore
// reaches the commit's from version, and happens strictly in global
// version order under the store's apply gate. Readers therefore never
// observe a torn commit or an out-of-order snapshot: visibility is
// exactly the sync-path invariant, only the expensive install work has
// moved off the ordered critical section.
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
	"sync"

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
// awaiting its publication turn.
type pendingCommit struct {
	txID     uint64
	from, to uint64
	token    uint64 // provisional seq its row versions carry
	items    []core.ItemID
	held     []core.ItemID
	rows     int
	cb       func(PendingOutcome)

	outcome PendingOutcome // set by the drain before callbacks run
	// seq is the published sequence that holds the commit's effects — its
	// own, or for a superseded commit the newer state's: lock waiters
	// with a snapshot below it are first-committer-wins losers.
	seq uint64
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

// CommitLabeledAsync is CommitLabeled with publication deferred to the
// commit-order semaphore: the commit record is logged and the row
// versions installed now (group-committable and parallelizable with
// concurrent installers), but they become visible — and the semaphore
// advances to to — only when the store's announced version reaches
// from, in strict global order. The write locks stay held until
// publication, preserving first-committer-wins. cb reports the final
// outcome; it may run synchronously (a range already superseded
// resolves before return) or from whichever goroutine drives the
// publication cascade. A range with nothing to install goes through
// AnnounceAsync instead.
//
// It is CommitLoggedAsync behind a one-record LogCommitRecords batch of
// its own. Callers must ensure no concurrent installer holds an earlier
// version of any written key un-published (see the package comment
// above).
func (tx *Tx) CommitLabeledAsync(from, to uint64, cb func(PendingOutcome)) error {
	if err := tx.checkLabeledUpdate("CommitLabeledAsync", from, to); err != nil {
		return err
	}
	if tx.store.AnnouncedVersion() >= to {
		// Superseded before the WAL write, exactly like the sync path:
		// the record that covered the range is in the log already.
		if err := tx.finishSuperseded(); err != nil {
			return err
		}
		cb(PendingSuperseded)
		return nil
	}
	logged, err := tx.store.LogCommitRecords([]CommitRecord{{From: from, To: to, WS: &tx.ws}})
	if err != nil {
		return err
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
	token := provisionalBit | s.pendTok.Add(1)
	pc := &pendingCommit{
		txID:  tx.id,
		from:  from,
		to:    to,
		token: token,
		items: make([]core.ItemID, 0, len(tx.writes)),
		held:  held,
		rows:  len(tx.writes),
		cb:    cb,
	}
	s.installProvisional(tx, pc)
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

// asyncFanoutMin is the writeset size above which a provisional
// install fans out across shard groups.
const asyncFanoutMin = 64

// asyncFanoutWorkers bounds the helper goroutines of one fanned-out
// install.
const asyncFanoutWorkers = 4

// installProvisional installs every buffered write stamped with the
// pending's provisional token. Large writesets are split by data shard
// and installed by a few helpers in parallel — installs of different
// shards share no lock (stripe-level install parallelism).
func (s *Store) installProvisional(tx *Tx, pc *pendingCommit) {
	minSnap := s.minActiveSnapshot()
	for item := range tx.writes {
		pc.items = append(pc.items, item)
	}
	if len(pc.items) < asyncFanoutMin {
		for _, item := range pc.items {
			s.installWrite(item, tx.writes[item], pc.token, minSnap)
		}
		return
	}
	groups := make(map[uint32][]core.ItemID)
	for _, item := range pc.items {
		sh := itemHash(item.Table, item.Key) & s.stripeMask
		groups[sh] = append(groups[sh], item)
	}
	work := make(chan []core.ItemID, len(groups))
	for _, g := range groups {
		work <- g
	}
	close(work)
	var wg sync.WaitGroup
	n := asyncFanoutWorkers
	if n > len(groups) {
		n = len(groups)
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				for _, item := range g {
					s.installWrite(item, tx.writes[item], pc.token, minSnap)
				}
			}
		}()
	}
	wg.Wait()
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
// called after anything that advances the announce semaphore (a gated
// sync commit, SetAnnounced, a new registration against an
// already-reached from). Each pending publishes its sequence and its
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
	var done []*pendingCommit
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
			done = append(done, pc)
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
		done = append(done, pc)
	}
	if cur > start {
		s.publish(0, cur, true)
	}
	s.applyGate.Unlock()
	for _, pc := range done {
		if pc.token != 0 {
			// Locks release as committed either way: a superseded
			// pending's effects are covered by the newer state, so
			// first-committer-wins competitors must still abort.
			s.releaseItems(pc.txID, pc.held, pc.seq)
			if pc.outcome == PendingPublished {
				s.chargeCheckpoint(pc.rows)
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
// applies f to it, one shard lock per shard group. f returns the
// chain's new contents.
func (s *Store) forEachProvisional(pc *pendingCommit, f func(versions []rowVersion, i int) []rowVersion) {
	byShard := make(map[uint32][]core.ItemID)
	for _, item := range pc.items {
		sh := itemHash(item.Table, item.Key) & s.stripeMask
		byShard[sh] = append(byShard[sh], item)
	}
	for shIdx, items := range byShard {
		sh := &s.shards[shIdx]
		sh.mu.Lock()
		for _, item := range items {
			t := sh.tables[item.Table]
			if t == nil {
				continue
			}
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
