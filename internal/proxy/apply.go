package proxy

import (
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
// Every mode applies the run as entries of the scheduler's window, each
// installed by applyScheduler.install, whose failed attempts the workers
// retry (§8.1 soft recovery). The paper's three systems differ in the
// entries and in who commits them, chosen from cfg.Mode here and nowhere
// else:
//
//   - Base and Tashkent-MW (§6.2 steps C4–C5) submit serially: the
//     run's remotes merged into one entry, which the merger installs by
//     CommitLabeled — an unsharable WAL flush in Base, a memory operation
//     in Tashkent-MW — and once it has published, the local transaction,
//     which the merger commits by CommitLabeled through finishOwn.
//   - Tashkent-API (§5.2) submits the remotes as chunks for the worker
//     pool and the local commit as an entry that the waiting client
//     commits itself (the returned finish) like any chunk: installed at
//     once and published at its turn, concurrent with the chunks, while
//     the merger goes on to the next run. No earlier entry in the window
//     writes its rows — certification refused any writeset between its
//     snapshot and its version that did — so its install never overtakes
//     a predecessor on a row.
//
// Under Tashkent-API the run is also the unit of the replica log:
// logRun appends the commit records of the chunks and of the local
// commit as one batch before anything is submitted, so they reach the
// log in global order and share one fsync (§5.2: the local commit record
// and the remote writesets before it under one group commit). The local
// commit's entry is held for its client: a later chunk on one of its
// rows waits until it publishes, as a later remote writeset on a row
// always waits for the earlier one (§5.2.1's artificial conflicts). A
// local commit whose handle is gone is an entry like any chunk,
// installed by writeset.
//
// applyRun finishes own's handle on every path — committed, handed back
// in finish, or aborted. On an error the run may be partly applied
// (Tashkent-API: its chunks scheduled, the local commit not); whatever of
// it the store has announced by then must not be applied again.
func (p *Proxy) applyRun(basis uint64, remotes []RemoteEntry, own *ownCommit) (finish func() error, err error) {
	serial := p.cfg.Mode != TashkentAPI
	// top is where the run leaves the replica.
	top := basis
	var entries []*applyEntry
	if n := len(remotes); n > 0 {
		top = remotes[n-1].Version
		if serial {
			merged := &core.Writeset{}
			for _, r := range remotes {
				merged.Merge(r.WS)
			}
			entries = []*applyEntry{{from: basis, to: top, ws: merged}}
		} else {
			entries = buildChunks(remotes)
		}
	}
	chunks := len(entries)
	var ownE *applyEntry
	if own != nil {
		ownE = &applyEntry{from: own.cv - 1, to: own.cv, ws: own.ws, held: own.tx != nil}
		entries = append(entries, ownE)
		top = max(top, own.cv)
	}
	for _, e := range entries {
		e.serial, e.held = serial, e.held || serial
		if e.held {
			e.done = make(chan mvstore.PendingOutcome, 1)
		}
	}
	if !serial {
		if err := p.logRun(entries, p.cfg.Store.AnnouncedVersion()); err != nil {
			own.dropHandle()
			return nil, err
		}
	}
	p.advanceRV(top)
	// Count the writesets the run installs and the transactions (chunks)
	// that install them; hollow entries are neither.
	if n := p.recordRemotes(remotes); n > 0 {
		p.addStat(func(st *Stats) {
			st.RemoteApplied += int64(n)
			st.RemoteChunks += int64(min(chunks, n))
		})
	}

	if !serial {
		// The scheduler's dependency analysis needs its windows in
		// ascending version order: the merger submits one run at a time.
		p.sched.submit(entries...)
		if ownE == nil || !ownE.held {
			return nil, nil
		}
		return func() error { return p.finishOwn(ownE, own.tx) }, nil
	}
	for _, e := range entries {
		p.sched.submit(e)
		if e == ownE && own.tx != nil {
			err = p.finishOwn(e, own.tx)
		} else {
			p.sched.install(e)
			err = p.sched.wait(e, 0) // unbounded: install published e, or requeued it to bounded retries
		}
		if err != nil {
			own.dropHandle() // a no-op on a handle finishOwn finished
			return nil, err
		}
	}
	return nil, nil
}

// finishOwn commits a run's local transaction tx over the range of e,
// the entry held for it, through the scheduler's one commit routine: under
// Base and Tashkent-MW by CommitLabeled on the merger, under Tashkent-API
// by its client, like every chunk of its run — installed behind the
// record the run logged and published from the pending list at its turn.
// A commit the database refuses is handed to the workers, which re-apply
// the writeset by a fresh transaction (§8.1 soft recovery). Either way e
// resolves, which releases the later entries waiting for it in the
// scheduler's window. finishOwn waits for that at most ChunkWaitTimeout:
// an entry whose predecessor never publishes leaves its client with the
// outcome unknown, not parked for good.
func (p *Proxy) finishOwn(e *applyEntry, tx *mvstore.Tx) error {
	cerr := p.sched.commit(e, tx)
	if cerr != nil {
		// A refused commit that did not latch the handle leaves it
		// holding the rows the re-apply needs.
		tx.Abort()
		p.sched.requeue(e)
	}
	err := p.sched.wait(e, p.cfg.ChunkWaitTimeout)
	if err != nil && cerr != nil {
		err = fmt.Errorf("proxy: re-applying local commit v%d by writeset (handle: %v): %w", e.to, cerr, err)
	}
	return err
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
