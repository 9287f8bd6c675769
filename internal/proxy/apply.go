package proxy

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
)

// sequencer admits certifier responses in their per-replica sequence
// order: response seq k runs only after 1..k-1 have finished. The
// certifier assigns the numbers in its (serial) processing order, so
// this reconstructs the global order at the proxy even when transport
// reorders concurrent responses.
type sequencer struct {
	mu   sync.Mutex
	cond *sync.Cond
	// next is the sequence number admitted next; 0 means unanchored
	// (a freshly created, recovered, or epoch-reset proxy anchors to
	// the first response it sees).
	next uint64
	// gen counts epoch resets: a certifier leadership change restarts
	// the per-replica numbering, so waiters and cursor updates from the
	// old epoch must not touch the re-anchored cursor.
	gen uint64
	// epoch is the certifier leadership term whose counter numbers the
	// current sequence (0 until the first stamped response arrives).
	// It lives here, under mu, so epoch validation is atomic with
	// taking a sequence slot — an old-epoch response can never slip
	// past a check and queue itself into the new numbering.
	epoch uint64
	// active marks a holder between enter and exit. An epoch advance
	// must drain it before re-anchoring, or the new epoch's first
	// application would overlap the old epoch's in-flight one.
	active bool
}

func newSequencer() *sequencer {
	s := &sequencer{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// errStaleSeq reports a sequence number below the current cursor
// (possible only after a resync skipped it); the skipping resync
// already applied the state the response carried.
var errStaleSeq = errors.New("proxy: stale response sequence")

// errEpochReset reports a response numbered by a superseded leadership
// term. Unlike errStaleSeq nothing applied the remote writesets it
// carried, so the caller must resync before moving on.
var errEpochReset = errors.New("proxy: response from superseded sequence epoch")

// errSeqTimeout reports that a predecessor response never arrived.
var errSeqTimeout = errors.New("proxy: response sequence gap timeout")

// enter blocks until seq is the next to run within epoch's numbering,
// returning the generation token the caller must pass to exit/skipTo.
// A new leadership term restarts the certifier's per-replica counters,
// so an advancing epoch re-anchors the cursor and invalidates waiters
// from the old term; epoch 0 marks epoch-less responses (tests, legacy
// peers) that always join the current numbering. A timeout means a
// predecessor was lost (certifier failover); the caller resynchronizes.
func (s *sequencer) enter(epoch, seq uint64, timeout time.Duration) (uint64, error) {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	// cond.Wait has no deadline. Every state change a waiter cares about
	// broadcasts (exit, skipTo, epoch advance), so only the deadline
	// needs a wake-up of its own: one timer per call, armed on the first
	// wait. It broadcasts under mu, so it cannot fire between a waiter's
	// deadline check and its Wait.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	wait := func() {
		if timer == nil {
			timer = time.AfterFunc(time.Until(deadline), func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
		}
		s.cond.Wait()
	}
	for epoch != 0 && epoch != s.epoch {
		if epoch < s.epoch {
			return s.gen, errEpochReset
		}
		// Advancing epoch: drain the in-flight holder before
		// re-anchoring, so the old epoch's application finishes before
		// the new epoch's first one starts. Re-evaluate after every
		// wakeup — the epoch may have moved again while waiting.
		if s.active {
			if !time.Now().Before(deadline) {
				return s.gen, errSeqTimeout
			}
			wait()
			continue
		}
		s.epoch = epoch
		s.gen++
		s.next = 0
		s.cond.Broadcast()
	}
	gen := s.gen
	if s.next == 0 {
		s.next = seq
	}
	for s.next != seq {
		if s.gen != gen {
			return gen, errEpochReset
		}
		if s.next > seq {
			return gen, errStaleSeq
		}
		if !time.Now().Before(deadline) {
			return gen, errSeqTimeout
		}
		wait()
	}
	if s.gen != gen {
		return gen, errEpochReset
	}
	s.active = true
	return gen, nil
}

// exit releases the sequencer after seq's work is scheduled. gen must
// be the token enter returned; a stale generation only clears the
// holder flag without touching the re-anchored cursor.
func (s *sequencer) exit(gen, seq uint64) {
	s.mu.Lock()
	if s.gen == gen && s.next == seq {
		s.next = seq + 1
	}
	s.active = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// skipTo forces the cursor forward after a resync declared earlier
// sequence numbers lost. A stale generation is a no-op.
func (s *sequencer) skipTo(gen, seq uint64) {
	s.mu.Lock()
	if s.gen == gen && seq > s.next {
		s.next = seq
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// seqOrder is the ordering point of a one-group topology: every
// certifier response takes its slot in the per-replica response sequence
// and is applied inside it, and the replica's version is the group's log
// index itself.
type seqOrder struct {
	p      *Proxy
	seq    *sequencer
	client *certifier.Client // the group's
}

// replicaVersion is the planned cursor: everything above it is shipped.
func (s *seqOrder) replicaVersion(int) uint64 { return s.p.ReplicaVersion() }

// needSafeBack: Tashkent-API's chunks need the artificial-conflict bounds.
func (s *seqOrder) needSafeBack() bool { return s.p.cfg.Mode == TashkentAPI }

// localCert: with one group, a received remote writeset at a version in
// (start, now] that a local writeset overlaps is one the certifier will
// find committed after the transaction's snapshot — proof of an abort.
// (The merger cannot say that; see merger.localCert.)
func (s *seqOrder) localCert() bool { return s.p.cfg.LocalCertification }

// enterSeq validates the response's epoch and takes its slot in the
// per-replica sequence (atomically, inside the sequencer's lock).
func (s *seqOrder) enterSeq(epoch, seq uint64) (uint64, error) {
	p := s.p
	gen, err := s.seq.enter(epoch, seq, p.cfg.SeqTimeout)
	if ob := p.cfg.SeqObserver; ob != nil {
		outcome := "apply"
		switch {
		case errors.Is(err, errStaleSeq):
			outcome = "stale"
		case errors.Is(err, errEpochReset):
			outcome = "epoch-reset"
		case errors.Is(err, errSeqTimeout):
			outcome = "gap-timeout"
		}
		ob(epoch, seq, outcome)
	}
	return gen, err
}

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

// resolve settles one sequenced certifier response; it is the only
// place a response takes its slot in the replica sequence. tx and ws
// are what the caller still holds of the local transaction: a live
// handle and its writeset (a client commit), the writeset alone (the
// client abandoned the commit mid-round-trip), or neither (a pull).
// Inside the slot the response is one run for applyRun: its remote
// writesets, then the local commit if certification granted one.
//
// It returns the commit version for a committed (or absent) local
// transaction, ErrCertificationAbort for an aborted one, and any other
// error when the response could not be applied.
func (s *seqOrder) resolve(_ int, resp certifier.Response, tx *mvstore.Tx, ws *core.Writeset) (uint64, error) {
	p := s.p
	seq := resp.ReplicaSeq
	abortHandle := func() {
		if tx != nil {
			tx.Abort()
		}
	}
	var own *ownCommit
	if ws != nil && resp.Committed {
		own = &ownCommit{tx: tx, ws: ws, cv: resp.CommitVersion}
	} else {
		abortHandle() // refused by certification
	}
	verdict := func() error {
		if ws == nil || resp.Committed {
			return nil
		}
		p.addStat(func(st *Stats) { st.CertAborts++ })
		return ErrCertificationAbort
	}

	gen, err := s.enterSeq(resp.SeqEpoch, seq)
	if err != nil {
		// Broken sequence: after the resync every remote writeset is
		// applied. The local transaction's fate still follows the
		// certifier's decision, but it was certified against a version
		// this replica has already passed, so it lands by writeset.
		s.handleSeqFailure(err, gen, seq)
		abortHandle()
		if own != nil && p.applyOwnCommit(ws, own.cv) {
			p.advanceRV(own.cv)
			p.addStat(func(st *Stats) { st.Commits++ })
		}
		return resp.CommitVersion, verdict()
	}
	exit := sync.OnceFunc(func() { s.seq.exit(gen, seq) })
	defer exit()

	basis := p.ReplicaVersion()
	remotes, err := p.decodeRemotes(resp.Remote, basis)
	if err != nil {
		abortHandle()
		return 0, err
	}
	if err := p.applyRun(basis, remotes, own, exit); err != nil {
		return 0, err
	}
	if own != nil {
		p.addStat(func(st *Stats) { st.Commits++ })
	}
	return resp.CommitVersion, verdict()
}

// applyRun applies one ordered run of the global history at this
// replica: the remote writesets remotes (ascending versions, all above
// basis, the version the replica was planned through before the run),
// then at most one local commit, own, above them all. Both ordering
// points end here — a sequenced certifier response inside its slot
// (seqOrder.resolve) and a run of the merged stream on the merger
// goroutine (merger.apply) — and release is how the caller's ordering
// point is handed on once the run holds its place in the log and the
// scheduler: the sequencer slot's exit, nothing for the merger, which
// is single-file anyway.
//
// The paper's three systems differ in two policies, both chosen from
// cfg.Mode here and nowhere else:
//
//   - how the remote writesets are installed: Base and Tashkent-MW
//     (§6.2 step C4) as one merged, synchronous labeled commit — an
//     unsharable WAL flush in Base, a memory operation in Tashkent-MW;
//     Tashkent-API (§5.2) as chunks handed to the dependency scheduler,
//     the ordering point released before any disk work.
//   - how the local transaction commits: Base and Tashkent-MW (C5) by
//     CommitLabeled after the remote batch (Base's second unsharable
//     flush); Tashkent-API by an ordered commit after release,
//     concurrent with the chunks.
//
// Under Tashkent-API the run is also the unit of the replica log:
// logRun appends the commit records of the chunks and of the local
// commit as one batch before release, so they reach the log in global
// order and share one fsync (§5.2: the local commit record and the
// remote writesets before it under one group commit). The chunks and
// the local commit carry the batch's ticket and wait on it where they
// would have waited on an append of their own.
//
// applyRun finishes own's handle on every path — committed through, or
// aborted. On an error the run may be partly applied (Tashkent-API: its
// chunks scheduled, the local commit not); whatever of it the store has
// announced by then must not be applied again.
func (p *Proxy) applyRun(basis uint64, remotes []RemoteEntry, own *ownCommit, release func()) error {
	ordered := p.cfg.Mode == TashkentAPI
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

	// Policy 1: install the remote writesets.
	var logged mvstore.LogTicket // of the local commit's record (Tashkent-API)
	if ordered {
		announced := p.cfg.Store.AnnouncedVersion()
		chunks := buildChunks(basis, announced, remotes)
		var err error
		if logged, err = p.logRun(chunks, own, announced); err != nil {
			own.dropHandle()
			return err
		}
		p.advanceRV(top)
		if len(remotes) > 0 {
			noteRemotes(len(chunks))
		}
		// Submit before release: the scheduler's dependency analysis
		// needs its windows in ascending version order.
		p.sched.submit(chunks)
		release()
	} else if len(remotes) > 0 {
		merged := &core.Writeset{}
		for _, r := range remotes {
			merged.Merge(r.WS)
		}
		if err := p.applyBatchWithRecovery(merged, basis, maxRemote, (*mvstore.Tx).CommitLabeled); err != nil {
			own.dropHandle()
			return err
		}
		noteRemotes(1)
	}

	if own == nil {
		p.advanceRV(top)
		return nil
	}

	// Policy 2: commit the local transaction at its global version.
	cv := own.cv
	from, commit := maxRemote, (*mvstore.Tx).CommitLabeled
	if ordered {
		from = cv - 1
		commit = func(tx *mvstore.Tx, from, to uint64) error {
			if logged == nil {
				return tx.CommitOrdered(from, to) // superseded when the run began
			}
			return tx.CommitOrderedLogged(from, to, logged)
		}
	}
	var cerr error
	if own.tx != nil {
		if cerr = commit(own.tx, from, cv); cerr != nil {
			// A commit refused before it latched the handle (an order wait
			// that ran out) leaves it holding the rows the re-apply needs.
			own.tx.Abort()
			p.addStat(func(st *Stats) { st.SoftRecoveries++ })
		}
	}
	if own.tx == nil || cerr != nil {
		// Soft recovery (§8.1): the database refused the commit (or the
		// client took its handle away), but the transaction is globally
		// committed — re-apply its writeset as a fresh transaction (under
		// Tashkent-API behind the record the run already logged for it).
		if err := p.applyBatchWithRecovery(own.ws, from, cv, commit); err != nil {
			return fmt.Errorf("proxy: re-applying local commit v%d by writeset (handle: %v): %w", cv, cerr, err)
		}
	}
	p.advanceRV(top)
	return nil
}

// logRun appends the commit records a Tashkent-API run leaves at this
// replica — one per chunk with something to install, then the local
// commit's (own, nil when there is none) — to the replica log as one
// batch in ascending global version, and gives every logged chunk the
// batch's durability ticket. It returns that ticket for the local commit,
// nil if its record was not logged. A range the store had already
// announced when the run began gets no record: its commit resolves as
// superseded, and the catch-up that carried the state past it logged it.
//
// The ticket stays with the range for every later attempt at it — a
// requeued chunk install, the soft-recovery re-apply of the local
// writeset, a commit whose client handle is gone — so one attempt at a
// run logs a range at most once.
func (p *Proxy) logRun(chunks []*applyEntry, own *ownCommit, announced uint64) (mvstore.LogTicket, error) {
	needsRecord := func(c *applyEntry) bool { return c.to > announced && !c.ws.Empty() }
	recs := make([]mvstore.CommitRecord, 0, len(chunks)+1)
	for _, c := range chunks {
		if needsRecord(c) {
			recs = append(recs, mvstore.CommitRecord{From: c.from, To: c.to, WS: c.ws})
		}
	}
	if own != nil && own.cv > announced {
		recs = append(recs, mvstore.CommitRecord{From: own.cv - 1, To: own.cv, WS: own.ws})
	} else {
		own = nil
	}
	if len(recs) == 0 {
		return nil, nil
	}
	logged, err := p.cfg.Store.LogCommitRecords(recs)
	if err != nil {
		return nil, fmt.Errorf("proxy: logging the commit records of a run: %w", err)
	}
	for _, c := range chunks {
		if needsRecord(c) {
			c.logged = logged
		}
	}
	if own != nil {
		return logged, nil
	}
	return nil, nil
}

// buildChunks groups the remote writesets of one response into
// scheduler entries, each applied as a single transaction covering
// global versions (from, to]. Writesets with consecutive versions and
// no unresolved conflicts share a chunk (one commit record, groupable);
// a version gap (caused by this replica's own in-flight commits) or an
// artificial conflict starts a new chunk. basis is the highest version
// already *scheduled* at this replica; announced is the highest version
// already *visible*. A writeset whose safe-back bound lies above
// announced must wait for the conflicting version to commit before
// taking locks (§5.2.1 — "the proxy delays submitting W45 until the
// conflicting transaction T43 commits"): its chunk carries that version
// as waitFor.
func buildChunks(basis, announced uint64, remotes []RemoteEntry) []*applyEntry {
	var out []*applyEntry
	var cur *applyEntry
	for i := range remotes {
		r := &remotes[i]
		conflict := r.SafeBack > announced
		if cur != nil && r.Version == cur.to+1 && !conflict {
			cur.ws.Merge(r.WS)
			cur.to = r.Version
			continue
		}
		cur = &applyEntry{from: r.Version - 1, to: r.Version, ws: r.WS.Clone()}
		if conflict {
			cur.waitFor = r.SafeBack
			cur.split = r.SafeBack > basis // a true in-window artificial conflict
		}
		out = append(out, cur)
	}
	return out
}

// applyBatchWithRecovery applies a merged writeset as one transaction,
// retrying transient failures (lock conflicts with doomed local
// transactions, database-side commit rejections) — the §8.1 soft
// recovery loop. commit finishes each attempt's applier transaction
// over (from, to]: (*mvstore.Tx).CommitLabeled everywhere except
// applyRun's re-apply of a Tashkent-API local commit.
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

// applyOwnCommit installs a certified local writeset on the degraded
// path (sequencer gap, stale slot, detached commit), reporting whether
// the replica's state now covers commitVersion. It first waits for the
// commit's predecessors to be applied: the labeled commit announces
// commitVersion, and announcing past versions this replica never
// installed would make every later resync skip them — a permanent
// hole. A missing predecessor is fetched by resync (which includes our
// own writesets); if the state already moved past commitVersion, the
// store's labeled-commit gate turns the apply into a no-op rather than
// regressing newer versions.
//
// On false the caller must NOT advance the planning cursor past
// commitVersion: leaving it behind is what makes the next staleness
// pull refetch the uncovered range and heal the gap.
func (p *Proxy) applyOwnCommit(ws *core.Writeset, commitVersion uint64) bool {
	for attempt := 0; attempt < 3; attempt++ {
		err := p.cfg.Store.WaitAnnounced(commitVersion-1, p.cfg.SeqTimeout)
		if err == nil {
			if p.applyBatchWithRecovery(ws, commitVersion-1, commitVersion, (*mvstore.Tx).CommitLabeled) == nil {
				return true
			}
		} else if errors.Is(err, mvstore.ErrCrashed) {
			return false
		}
		// Predecessors lost with their responses (or the apply itself
		// failed): fetch the range from the certifier. The resync
		// includes our own writesets, so reaching commitVersion covers
		// this commit too.
		if p.Resync() == nil && p.cfg.Store.AnnouncedVersion() >= commitVersion {
			return true
		}
	}
	// Give up without applying: installing over missing predecessors
	// would announce past versions this replica does not hold, hiding
	// them from every future resync. The writeset is durable in the
	// certifier log, and with the planning cursor left below it the
	// background pulls refetch and heal the range.
	return false
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

// handleSeqFailure recovers from a broken response sequence (lost
// responses after certifier failover): declare the gap lost, pull
// everything from the certifier and apply it serially — always safe
// because writesets carry absolute values.
func (s *seqOrder) handleSeqFailure(cause error, gen, seq uint64) {
	if errors.Is(cause, errStaleSeq) {
		return // slot skipped by a resync; that resync already applied the state
	}
	// An epoch reset leaves the cursor to the new numbering; either way
	// nothing else will apply the response's remote writesets, so pull
	// the gap before the caller applies its own writeset and announces
	// past the hole.
	if !errors.Is(cause, errEpochReset) {
		s.seq.skipTo(gen, seq+1)
	}
	s.p.Resync()
}

// resync pulls all missing remote writesets above basis and applies
// them serially, bringing the replica to the certifier's committed
// version. Entries the normal appliers did apply (or apply concurrently
// while this resync runs) are skipped by the store's labeled-commit
// gate, so overlapping with in-flight appliers is safe.
func (s *seqOrder) resync(basis uint64) error {
	p := s.p
	resp, err := s.client.Pull(certifier.PullRequest{
		Origin:         p.cfg.ReplicaID,
		ReplicaVersion: basis,
		IncludeOwn:     true, // our own writesets were lost with the crash
	})
	if err != nil {
		return err
	}
	if resp.SystemVersion < basis {
		// A leader that knows less than we do — typically a freshly
		// restarted or just-elected node whose commit index has not
		// caught up with its log (it cannot finalize a previous term's
		// tail until an entry of its own term commits). Treating its
		// empty answer as success would declare the gap healed without
		// fetching anything; fail so the caller retries.
		return fmt.Errorf("proxy: resync answered by a certifier at version %d, behind our %d",
			resp.SystemVersion, basis)
	}
	remotes, err := p.decodeRemotes(resp.Remote, basis)
	if err != nil {
		return err
	}
	cur := basis
	for _, r := range remotes {
		if err := p.applyBatchWithRecovery(r.WS, cur, r.Version, (*mvstore.Tx).CommitLabeled); err != nil {
			return err
		}
		cur = r.Version
		p.addStat(func(st *Stats) { st.RemoteApplied++ })
	}
	// The announce semaphore advanced with each applied entry; never
	// jump it past versions that were not applied here.
	p.advanceRV(cur)
	p.recordRemotes(remotes)
	return nil
}
