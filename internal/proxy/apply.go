package proxy

import (
	"errors"
	"fmt"

	"tashkent/internal/core"
	"tashkent/internal/mvstore"
)

// ownCommit is the local transaction that ends a run: the writeset
// certification committed at global version cv, and the client's handle
// on it — nil when the client gave the commit up mid-round-trip, or a
// first attempt at the run already finished the handle.
type ownCommit struct {
	tx *mvstore.Tx
	ws *core.Writeset
	cv uint64
}

// dropHandle aborts the client's handle, if the run has one.
func (o *ownCommit) dropHandle() {
	if o != nil && o.tx != nil {
		o.tx.Abort()
	}
}

// applyRun applies one ordered run of the global history at this
// replica: the remote writesets remotes (ascending versions, all above
// basis, the version the replica was planned through before the run),
// then at most one local commit, own, above them all. The merger calls
// it for every run of the merged stream, one run at a time.
//
// The paper's three systems differ in two policies, both chosen from
// cfg.Mode here and nowhere else:
//
//   - how the remote writesets are installed: Base and Tashkent-MW
//     (§6.2 step C4) as one merged, synchronous labeled commit — an
//     unsharable WAL flush in Base, a memory operation in Tashkent-MW;
//     Tashkent-API (§5.2) as chunks handed to the dependency scheduler.
//   - how the local transaction commits: Base and Tashkent-MW (C5) by
//     CommitLabeled after the remote batch (Base's second unsharable
//     flush), here; Tashkent-API by an ordered commit that the waiting
//     client finishes itself (the returned finish), concurrent with the
//     chunks, while the merger goes on to the next run.
//
// Under Tashkent-API the run is also the unit of the replica log:
// logRun appends the commit records of the chunks and of the local
// commit as one batch before anything is submitted, so they reach the
// log in global order and share one fsync (§5.2: the local commit record
// and the remote writesets before it under one group commit). The local
// commit enters the scheduler's dependency window as an entry of its
// own, held for its client: a later chunk on one of its rows waits until
// it publishes, as a later remote writeset on a row always waits for the
// earlier one (§5.2.1's artificial conflicts). A local commit whose
// handle is gone is an entry like any chunk, installed by writeset.
//
// applyRun finishes own's handle on every path — committed, handed back
// in finish, or aborted. On an error the run may be partly applied
// (Tashkent-API: its chunks scheduled, the local commit not); whatever of
// it the store has announced by then must not be applied again.
func (p *Proxy) applyRun(basis uint64, remotes []RemoteEntry, own *ownCommit) (finish func() error, err error) {
	// maxRemote is where the remote batch leaves the replica; top is
	// where the whole run does.
	maxRemote := basis
	if n := len(remotes); n > 0 {
		maxRemote = remotes[n-1].Version
	}
	top := maxRemote
	if own != nil && own.cv > top {
		top = own.cv
	}
	// noteRemotes counts the writesets the run installs and the
	// transactions (chunks) that install them; hollow entries are neither.
	noteRemotes := func(chunks int) {
		n := p.recordRemotes(remotes)
		p.addStat(func(st *Stats) {
			st.RemoteApplied += int64(n)
			st.RemoteChunks += int64(min(chunks, n))
		})
	}

	if p.cfg.Mode == TashkentAPI {
		announced := p.cfg.Store.AnnouncedVersion()
		entries := buildChunks(remotes)
		chunks := len(entries)
		var held *applyEntry
		if own != nil {
			e := &applyEntry{from: own.cv - 1, to: own.cv, ws: own.ws, held: own.tx != nil}
			if e.held {
				held = e
			}
			entries = append(entries, e)
		}
		if err := p.logRun(entries, announced); err != nil {
			own.dropHandle()
			return nil, err
		}
		p.advanceRV(top)
		if len(remotes) > 0 {
			noteRemotes(chunks)
		}
		// The scheduler's dependency analysis needs its windows in
		// ascending version order: the merger submits one run at a time.
		p.sched.submit(entries)
		if held == nil {
			return nil, nil
		}
		return func() error { return p.finishOwn(held, own.tx) }, nil
	}

	// Base and Tashkent-MW.
	if len(remotes) > 0 {
		merged := &core.Writeset{}
		for _, r := range remotes {
			merged.Merge(r.WS)
		}
		if err := p.applyBatchWithRecovery(merged, basis, maxRemote, (*mvstore.Tx).CommitLabeled); err != nil {
			own.dropHandle()
			return nil, err
		}
		noteRemotes(1)
	}
	if own != nil {
		var cerr error
		if own.tx != nil {
			if cerr = own.tx.CommitLabeled(maxRemote, own.cv); cerr != nil {
				// A commit refused before it latched the handle leaves it
				// holding the rows the re-apply needs.
				own.tx.Abort()
				p.addStat(func(st *Stats) { st.SoftRecoveries++ })
			}
		}
		if own.tx == nil || cerr != nil {
			// Soft recovery (§8.1): the database refused the commit (or the
			// client took its handle away), but the transaction is globally
			// committed — re-apply its writeset as a fresh transaction.
			if err := p.applyBatchWithRecovery(own.ws, maxRemote, own.cv, (*mvstore.Tx).CommitLabeled); err != nil {
				return nil, fmt.Errorf("proxy: re-applying local commit v%d by writeset (handle: %v): %w", own.cv, cerr, err)
			}
		}
	}
	p.advanceRV(top)
	return nil, nil
}

// finishOwn is the part of a Tashkent-API local commit its client runs:
// the ordered commit over e's range behind the record the run logged,
// or, if the database refuses it, the re-apply of the writeset by a
// fresh transaction (§8.1 soft recovery). Either way it then resolves e,
// which releases the later entries waiting for it in the scheduler's
// window.
func (p *Proxy) finishOwn(e *applyEntry, tx *mvstore.Tx) error {
	commit := func(tx *mvstore.Tx, from, to uint64) error {
		if e.logged == nil {
			return tx.CommitOrdered(from, to) // superseded when the run began
		}
		return tx.CommitOrderedLogged(from, to, e.logged)
	}
	if cerr := commit(tx, e.from, e.to); cerr != nil {
		// A commit refused before it latched the handle (an order wait
		// that ran out) leaves it holding the rows the re-apply needs.
		tx.Abort()
		p.addStat(func(st *Stats) { st.SoftRecoveries++ })
		if err := p.applyBatchWithRecovery(e.ws, e.from, e.to, commit); err != nil {
			p.sched.resolve(e, outcomeOf(err))
			return fmt.Errorf("proxy: re-applying local commit v%d by writeset (handle: %v): %w", e.to, cerr, err)
		}
	}
	p.sched.resolve(e, mvstore.PendingPublished)
	return nil
}

// logRun appends the commit records a Tashkent-API run leaves at this
// replica — one per entry with something to install, the local commit's
// last — to the replica log as one batch in ascending global version,
// and gives every logged entry the batch's durability ticket. A range
// the store had already announced when the run began gets no record:
// its commit resolves as superseded, and the catch-up that carried the
// state past it logged it.
//
// The ticket stays with the range for every later attempt at it — a
// requeued chunk install, the soft-recovery re-apply of the local
// writeset, a commit whose client handle is gone — so one attempt at a
// run logs a range at most once.
func (p *Proxy) logRun(entries []*applyEntry, announced uint64) error {
	needsRecord := func(e *applyEntry) bool { return e.to > announced && !e.ws.Empty() }
	recs := make([]mvstore.CommitRecord, 0, len(entries))
	for _, e := range entries {
		if needsRecord(e) {
			recs = append(recs, mvstore.CommitRecord{From: e.from, To: e.to, WS: e.ws})
		}
	}
	if len(recs) == 0 {
		return nil
	}
	logged, err := p.cfg.Store.LogCommitRecords(recs)
	if err != nil {
		return fmt.Errorf("proxy: logging the commit records of a run: %w", err)
	}
	for _, e := range entries {
		if needsRecord(e) {
			e.logged = logged
		}
	}
	return nil
}

// buildChunks groups the remote writesets of one run into scheduler
// entries, each applied as a single transaction covering global versions
// (from, to]. Writesets with consecutive versions share a chunk (one
// commit record, groupable); a version gap starts a new one, and so does
// a writeset this replica originated — a local commit whose response
// reached the merger after a later one, which the run installs by
// writeset — so that it keeps a commit record of its own, as its
// client's commit would have. A chunk that writes a row an earlier,
// unpublished entry writes waits for it in the scheduler's dependency
// window.
func buildChunks(remotes []RemoteEntry) []*applyEntry {
	var out []*applyEntry
	var cur *applyEntry
	for i := range remotes {
		r := &remotes[i]
		if cur != nil && r.Version == cur.to+1 && !r.Own && !remotes[i-1].Own {
			cur.ws.Merge(r.WS)
			cur.to = r.Version
			continue
		}
		cur = &applyEntry{from: r.Version - 1, to: r.Version, ws: r.WS.Clone()}
		out = append(out, cur)
	}
	return out
}

// applyBatchWithRecovery applies a merged writeset as one transaction,
// retrying transient failures (lock conflicts with doomed local
// transactions, database-side commit rejections) — the §8.1 soft
// recovery loop. commit finishes each attempt's applier transaction
// over (from, to]: (*mvstore.Tx).CommitLabeled everywhere except
// finishOwn's re-apply of a Tashkent-API local commit.
func (p *Proxy) applyBatchWithRecovery(ws *core.Writeset, from, to uint64, commit func(tx *mvstore.Tx, from, to uint64) error) error {
	p.markInFlight(ws, to, true)
	defer p.markInFlight(ws, to, false)
	var lastErr error
	for attempt := 0; attempt < maxInstallAttempts; attempt++ {
		if attempt > 0 {
			p.addStat(func(st *Stats) { st.SoftRecoveries++ })
			// Let predecessors finish so conflicting locks drain.
			p.cfg.Store.WaitAnnounced(from, p.cfg.ChunkWaitTimeout)
		}
		p.killConflictingLocals(ws, 0)
		lastErr = p.applyBatchOnce(ws, from, to, commit)
		if lastErr == nil {
			return nil
		}
		if errors.Is(lastErr, mvstore.ErrCrashed) {
			return lastErr
		}
	}
	return fmt.Errorf("proxy: applying remote writesets (%d,%d]: %w", from, to, lastErr)
}

func (p *Proxy) applyBatchOnce(ws *core.Writeset, from, to uint64, commit func(tx *mvstore.Tx, from, to uint64) error) error {
	if ws.Empty() {
		// A certifier barrier (no-op) version: nothing to install, but
		// the announce chain must still advance through it or every
		// later version would wait forever. (Only the synchronous
		// labeled callers get here; a local commit is never empty.)
		p.cfg.Store.SetAnnounced(to)
		return nil
	}
	return p.applyOnce(ws, func(tx *mvstore.Tx) error { return commit(tx, from, to) })
}

// applyOnce is one attempt at installing committed global state: a
// fresh applier transaction takes ws's locks and finishes through
// commit. On error nothing was committed and the caller may retry.
func (p *Proxy) applyOnce(ws *core.Writeset, commit func(*mvstore.Tx) error) error {
	tx, err := p.cfg.Store.Begin()
	if err != nil {
		return err
	}
	p.markApplier(tx.ID(), true)
	defer p.markApplier(tx.ID(), false)
	if err = tx.ApplyWriteset(ws); err == nil {
		err = commit(tx)
	}
	if err != nil {
		tx.Abort()
	}
	return err
}

// SetReplicaVersion initializes the planning cursor after recovery
// (the database state already covers versions up to v).
func (p *Proxy) SetReplicaVersion(v uint64) { p.advanceRV(v) }

// advanceRV raises the planning cursor.
func (p *Proxy) advanceRV(v uint64) {
	p.mu.Lock()
	if v > p.rvPlanned {
		p.rvPlanned = v
	}
	p.mu.Unlock()
}

func (p *Proxy) addStat(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}
