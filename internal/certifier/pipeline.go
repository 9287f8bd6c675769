package certifier

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/paxos"
)

// This file implements the staged certification pipeline, the heart of
// the paper's durability/ordering unification: instead of one paxos
// round and one fsync per transaction, RPC handlers enqueue onto an
// admission queue and a dedicated certification loop repeatedly
//
//  1. drains every waiting task (bounded by Config.MaxBatch), and
//     lingers briefly for the clients its last fan-out answered: for the
//     echoes its cohort is expected to send back or, after a fan-out
//     that answered prepares, for their decision markers (see
//     gatherBatch),
//  2. checks them in admission order against the engine — later tasks
//     in the batch see earlier survivors, exactly as if they had been
//     serialized,
//  3. proposes every entry the survivors add as ONE batched log append
//     (paxos.ProposeBatchAt: one replication round; followers persist
//     the round via wal.AppendBatchAsync, one fsync),
//  4. takes ONE durability barrier (WaitCommitted on the batch's last
//     index) for the whole batch, and
//  5. fans responses — remote-writeset fills, commit versions, log
//     indices — back to all waiters.
//
// Every entry the leader adds to the log goes this way: commit requests,
// one-group and cross-partition alike, decision markers, fills and
// barriers are task kinds of the one queue. Refused one-group commits and
// errors resolve at step 2 and never wait for the disk; a refused prepare
// is a vote, whose abort marker the batch logs (see checkLocked). A batch
// that logs a yes vote ends with a few fill no-ops (see alignPad).

// taskKind is what an admitted task asks of the log.
type taskKind uint8

const (
	kindCommit  taskKind = iota // a commit request: certify and commit, or for several groups certify and lock, or refuse
	kindResolve                 // a decision marker, or a veto
	kindFill                    // no-ops until the log holds a target length
	kindBarrier                 // one no-op
)

// fromReplica reports whether a replica sent the task: such a task
// keeps the group busy for pulls (Server.inFlight). Fills and barriers
// are the group's own liveness tools.
func (k taskKind) fromReplica() bool { return k <= kindResolve }

// fromClient reports whether a client's transaction waits on the task:
// a commit request or a veto. Those are counted as requests, echoes and
// commits. A decision marker is not: a detached resolver sends it once
// the client has its answer.
func (t *task) fromClient() bool { return t.kind == kindCommit || t.veto }

// prepare reports whether the task is a cross-partition commit request.
func (t *task) prepare() bool { return t.entry.Kind == core.KindPrepare }

// sheddable reports whether admission control may turn the task away.
// A decision marker may not: it is what releases a prepare's locks.
func (k taskKind) sheddable() bool { return k == kindCommit }

// task carries one admitted request through the pipeline.
type task struct {
	kind taskKind
	// entry is what the task appends if it survives (see newLogEntry): the
	// data entry of a one-group commit, the prepare, the marker, or the
	// no-op a fill repeats.
	entry    core.LogEntry
	veto     bool      // kindResolve: a veto (entry is its abort marker)
	after    uint64    // kindCommit, kindResolve: the replica's frontier in this group
	target   uint64    // kindFill, a prepare: the log length wanted
	enqueued time.Time // when the task entered the admission queue
	deadline time.Time // caller's context deadline (zero = none)

	// Filled by the certification loop.
	index  uint64     // the log index the answer stands on (0 = none: a refused one-group commit)
	yes    bool       // kindCommit, veto: a one-group commit, or the group's vote is yes (index is the prepare's)
	remote []RemoteWS // the answer's suffix (see Response.Remote)
	err    error

	done chan struct{} // closed when the outcome is final
}

func newTask(kind taskKind, entry core.LogEntry) *task {
	return &task{kind: kind, entry: entry, done: make(chan struct{})}
}

// noop is the entry of fills and barriers. Its payload is immutable, so
// every no-op in every log shares it.
var noop = emptyEntry(core.KindData, 0)

// lingerShare sets the echo window as a share of the batch cycle: a
// request admitted within cycle/lingerShare of a fan-out is an echo of
// it, and a gather lingers at most until that window closes. A client's
// return trip (≈ 0.2–0.3 ms) fits inside an eighth of a 5 ms flush but
// not always inside a thirty-second.
const lingerShare = 8

// alignPad is how many fill no-ops a batch that logs a yes vote appends
// past its last entry. A union applies where its last prepare merges,
// and the merge gets there only with every involved group's log up to
// that index. A partner group often holds a few more entries before the
// prepare than this group's whole batch: 1 or 2 in 70 % of such rounds,
// 3 or 4 in 26 %. Without the pad the union then waits a cycle for this
// group's next batch. Every answer that ships the batch ships its pad
// too, which is what bounds it.
const alignPad = 2

// holdShare sets how long a fan-out that answered prepares holds the
// next batch for their markers before any quorum of them is in: half a
// cycle, so a group whose partner fans out later still meets the
// partner's next batch instead of starting one of its own half a cycle
// ahead.
const holdShare = 2

// echoDecay is the reciprocal weight of the newest fan-out's echo ratio
// in the learned one.
const echoDecay = 4

// fanout is the leader's most recent response fan-out as admission sees
// it. A client request admitted within window of at is an echo: most
// likely a closed-loop client the fan-out just answered, coming back.
// A decision marker for one of the prepares it answered is awaited: its
// coordinator sends one once every involved group has answered, so the
// awaited markers trace the partner groups' fan-outs.
type fanout struct {
	at       time.Time
	window   time.Duration  // W, one lingerShare of the cycle
	hold     time.Duration  // the linger before the anchor, one holdShare of the cycle
	answered int64          // client tasks it answered
	target   float64        // echoes expected back (0: none)
	awaited  map[uint64]int // gid of each prepare it answered → its slot in seen (nil: none)
	seen     []atomic.Bool  // per awaited gid: its first marker is in
	quorum   int64          // awaited gids whose markers make the anchor: half, rounded up
	echoes   atomic.Int64
	markers  atomic.Int64 // awaited gids whose first marker is in
	anchor   atomic.Int64 // admission of the marker that made the quorum, Unix ns (0: none yet)
}

// newFanout returns the fan-out at at of a batch whose cycle took cycle
// and that answered answered client tasks, among them the prepares of
// awaited.
func newFanout(at time.Time, cycle time.Duration, answered int64, awaited []uint64) *fanout {
	f := &fanout{at: at, window: cycle / lingerShare, hold: cycle / holdShare, answered: answered}
	if len(awaited) > 0 {
		f.awaited = make(map[uint64]int, len(awaited))
		for _, gid := range awaited {
			if _, dup := f.awaited[gid]; !dup {
				f.awaited[gid] = len(f.awaited)
			}
		}
		f.seen = make([]atomic.Bool, len(f.awaited))
		f.quorum = int64(len(f.awaited)+1) / 2
	}
	return f
}

// admitted sees a task admitted at t.enqueued. The first marker of each
// gid f awaits is counted once, whether it commits or aborts, and the
// one that brings the count to the quorum anchors f's window (see
// windowEnd); a client task inside the window is counted as an echo.
func (f *fanout) admitted(t *task) {
	if t.kind == kindResolve {
		if i, ok := f.awaited[t.entry.GID]; ok && f.seen[i].CompareAndSwap(false, true) {
			if f.markers.Add(1) == f.quorum {
				f.anchor.Store(t.enqueued.UnixNano())
			}
		}
	}
	if t.fromClient() && !t.enqueued.Before(f.at) && !t.enqueued.After(f.windowEnd()) {
		f.echoes.Add(1)
	}
}

// expects reports whether f expects anyone back, and so whether a gather
// behind it may linger.
func (f *fanout) expects() bool { return f.target > 0 || f.awaited != nil }

// windowEnd is when a gather behind f stops lingering: one window after
// the fan-out or, if later, after the anchor. A fan-out that awaits
// markers and has no anchor yet holds until its hold ends.
func (f *fanout) windowEnd() time.Time {
	end := f.at.Add(f.window)
	if a := f.anchor.Load(); a != 0 {
		if e := time.Unix(0, a).Add(f.window); e.After(end) {
			return e
		}
		return end
	}
	if f.awaited != nil {
		return f.at.Add(f.hold)
	}
	return end
}

// gathered reports whether a gather behind f may close before the window
// ends: once the expected echoes are in, unless f answered prepares.
func (f *fanout) gathered() bool {
	return f.awaited == nil && float64(f.echoes.Load()) >= f.target
}

// errDeadlineExpired resolves requests whose caller's context deadline
// passed before certification started; the caller has already given up,
// so the text is informational only.
var errDeadlineExpired = errors.New("certifier: caller deadline expired before certification")

// finish publishes the task's outcome to its waiting RPC handler.
func (t *task) finish() { close(t.done) }

// fail resolves a task with an error.
func (t *task) fail(err error) {
	t.err = err
	t.finish()
}

// submit is the one way into the log: it admits t, queues it for the
// certification loop and waits for its outcome. An answer that stands on
// an entry an earlier batch or term proposed (a retry) returns once that
// entry is committed. The error for a stopped server is paxos.ErrStopped
// so the failover client treats it like any other replication-layer
// outage and retries elsewhere.
func (s *Server) submit(t *task) error {
	if t.kind.fromReplica() {
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
	}
	if err := s.admit(t); err != nil {
		return err
	}
	// Token in hand: queue occupancy is strictly below QueueDepth, so
	// this send cannot block behind anything but scheduling.
	t.enqueued = time.Now()
	if f := s.fanout.Load(); f != nil {
		f.admitted(t)
	}
	select {
	case s.admitCh <- t:
	case <-s.stopCh:
		return paxos.ErrStopped
	}
	s.queueDepth.Observe(int64(len(s.admitCh)))
	select {
	case <-t.done:
	case <-s.stopCh:
		// The loop may have resolved the task concurrently with the
		// shutdown; prefer its answer if it exists.
		select {
		case <-t.done:
		default:
			return paxos.ErrStopped
		}
	}
	if t.err != nil {
		return t.err
	}
	if t.index > s.node.CommitIndex() {
		return s.waitIndexCommitted(t.index)
	}
	return nil
}

// admit is admission control: take a slot token (one exists per queue
// slot, released when the pipeline dequeues the task), waiting up to
// AdmitTimeout before shedding a sheddable task with a retry-after hint.
// The token — not a timed send on the queue channel itself — is what
// bounds queueing, so t.enqueued can be stamped AFTER the door: the
// stage-2 queue-wait budget then measures time spent in the queue, and a
// request that waited at the door is not pre-doomed to out-wait that
// budget. A task that may not be shed, or a negative AdmitTimeout, waits
// for its token without bound.
func (s *Server) admit(t *task) error {
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		s.expiredCount.Add(1)
		return errDeadlineExpired
	}
	select {
	case <-s.slots:
		return nil
	case <-s.stopCh:
		return paxos.ErrStopped
	default:
	}
	if s.cfg.AdmitTimeout < 0 || !t.kind.sheddable() {
		select {
		case <-s.slots:
			return nil
		case <-s.stopCh:
			return paxos.ErrStopped
		}
	}
	// A dead client must not hold a door waiter longer than its own
	// deadline.
	wait := s.cfg.AdmitTimeout
	if !t.deadline.IsZero() {
		if until := time.Until(t.deadline); until < wait {
			wait = until
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-s.slots:
		return nil
	case <-timer.C:
		if !t.deadline.IsZero() && time.Now().After(t.deadline) {
			s.expiredCount.Add(1)
			return errDeadlineExpired
		}
		s.shedCount.Add(1)
		return overloadedError(s.retryAfterHint())
	case <-s.stopCh:
		return paxos.ErrStopped
	}
}

// releaseSlot returns an admission token when a task leaves the queue.
// The default arm is defensive: the token count never exceeds the
// channel capacity because every release pairs with a dequeue.
func (s *Server) releaseSlot() {
	select {
	case s.slots <- struct{}{}:
	default:
	}
}

// certifyLoop is the dedicated certification stage: it blocks for the
// first admitted task, gathers a batch, and processes it.
func (s *Server) certifyLoop() {
	defer s.loopWG.Done()
	for {
		var first *task
		select {
		case first = <-s.admitCh:
			s.releaseSlot()
		case <-s.stopCh:
			s.drainAdmitted()
			return
		}
		batch := s.gatherBatch(first)
		if batch == nil { // stopping
			s.drainAdmitted()
			return
		}
		s.processBatch(batch)
	}
}

// gatherBatch collects up to MaxBatch tasks behind first: everything
// already queued and then the clients the last fan-out expects back.
// Once the queue is empty it lingers for one of two reasons.
//
//   - Echoes. A fan-out without prepares expects back the learned ratio
//     of echoes to client tasks answered, times the tasks it answered,
//     and the gather closes as soon as that many are in.
//   - Decision markers. A fan-out that answered prepares holds the batch
//     open for its whole window. A coordinator sends its markers only
//     once every involved group has answered, so the awaited markers
//     trace the partner groups' fan-outs, and the window is anchored on
//     their bulk: it ends W after the later of the fan-out and the
//     marker that brings in half of the awaited gids. Until that anchor
//     exists the batch holds for half a cycle, so a group that fanned
//     out ahead of its partner waits for the partner's round instead of
//     closing W after its own fan-out. The first marker alone is a poor
//     anchor: a coordinator whose prepares straddled two rounds sends it
//     right after this group's fan-out. A close on a count would differ
//     from group to group and drift the groups out of step; half a cycle
//     apart, every round would wait out a flush in one of them.
//
// Either way the linger ends at the shared bounds: the window, a task in
// hand reaching its deadline, MaxBatch, or Stop. W is one eighth of the
// measured cycle, so the tasks in hand wait at most that long past the
// later anchor (or half a cycle if the markers never come) for a batch
// that saves the latecomers a whole cycle. The window is anchored at the
// fan-out, or at its anchor, so a gather that starts after an idle
// period or a leadership change does not linger at all. Returns nil if the server stopped mid-gather (the
// collected tasks are failed).
func (s *Server) gatherBatch(first *task) []*task {
	batch := append(make([]*task, 0, 16), first)
	f := s.fanout.Load()
	linger := f != nil && f.expects()
	deadline := first.deadline // zero: none
	for len(batch) < s.cfg.MaxBatch {
		var t *task
		select {
		case t = <-s.admitCh:
		default:
			if !linger || f.gathered() {
				return batch
			}
			wait := time.Until(earliest(f.windowEnd(), deadline))
			if wait <= 0 {
				return batch
			}
			timer := time.NewTimer(wait)
			select {
			case t = <-s.admitCh:
				timer.Stop()
			case <-timer.C:
				continue // the anchor may have moved the end meanwhile
			case <-s.stopCh:
				timer.Stop()
				s.failTasks(batch, paxos.ErrStopped)
				return nil
			}
		}
		s.releaseSlot()
		batch = append(batch, t)
		deadline = earliest(deadline, t.deadline)
	}
	return batch
}

// earliest returns the earlier of a and b, a zero time meaning no bound.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// publishFanout records a fan-out about to start for a batch drained at
// drainedAt that answers answered client tasks, the prepares among them
// for the gids in awaited: the batch's cycle (drain to durability) is
// measured, the previous fan-out's echoes per task answered are folded
// into the learned ratio, and the new fan-out opens an echo window of
// one eighth of the cycle and, if it awaits markers, a hold of half the
// cycle. It expects the ratio's share of its own cohort back, if that is
// at least one client.
func (s *Server) publishFanout(drainedAt time.Time, answered int64, awaited []uint64) {
	now := time.Now()
	cycle := now.Sub(drainedAt)
	s.cycle.Store(int64(cycle))
	if prev := s.fanout.Load(); prev != nil && prev.answered > 0 {
		s.echoRatio += (float64(prev.echoes.Load())/float64(prev.answered) - s.echoRatio) / echoDecay
	}
	f := newFanout(now, cycle, answered, awaited)
	if target := s.echoRatio * float64(answered); target >= 1 {
		f.target = target
	}
	s.fanout.Store(f)
}

// drainAdmitted fails everything still sitting in the admission queue
// at shutdown.
func (s *Server) drainAdmitted() {
	for {
		select {
		case t := <-s.admitCh:
			s.releaseSlot()
			t.fail(paxos.ErrStopped)
		default:
			return
		}
	}
}

// failTasks resolves a slice of tasks with one error.
func (s *Server) failTasks(tasks []*task, err error) {
	for _, t := range tasks {
		t.fail(err)
	}
}

// processBatch runs stages 2-5 of the pipeline for one batch.
func (s *Server) processBatch(batch []*task) {
	s.mu.Lock()
	if err := s.ensureEngineLocked(); err != nil {
		s.mu.Unlock()
		s.failTasks(batch, err)
		return
	}

	// Stage 2: check in admission order. Survivors are appended to the
	// engine immediately so later tasks in the batch certify against
	// them (a prepare's locks included); if the batched propose then
	// fails, the engine basis is invalidated and rebuilt from the
	// authoritative log. A task answered by an entry at an index above
	// head waits for this batch's barrier, whoever added the entry.
	head := uint64(s.engine.SystemVersion())
	var datas [][]byte
	var commits int64 // client tasks whose entries the batch proposes
	var pad bool      // the batch logs a yes vote
	drainedAt := time.Now()
	for _, t := range batch {
		wait := drainedAt.Sub(t.enqueued)
		if t.fromClient() {
			s.stats.Requests++
			s.queueWait.Observe(wait)
		}
		// Deadline and queue-wait policing come before any certification
		// work: a dead client's request must not conflict-check, consume
		// a batch slot in the propose, or take a sequence number (it is
		// resolved with an error below, so per-origin sequences stay
		// dense).
		if !t.deadline.IsZero() && drainedAt.After(t.deadline) {
			s.expiredCount.Add(1)
			t.err = errDeadlineExpired
			continue
		}
		// Queue-wait backstop at twice the budget: the door bounds
		// routine queueing to about one AdmitTimeout (slot tokens), so
		// reaching 2x means the drain collapsed under this task —
		// certifying it now only adds latency behind the recovery. A
		// 1x cliff here would turn a transient stall (a GC pause, one
		// slow fsync) into a shed cascade of still-viable requests.
		if t.kind.sheddable() && s.cfg.AdmitTimeout > 0 && wait > 2*s.cfg.AdmitTimeout {
			s.shedCount.Add(1)
			t.err = overloadedError(s.retryAfterHint())
			continue
		}
		n := len(datas)
		datas = s.checkLocked(t, datas)
		if t.fromClient() && len(datas) > n && t.yes {
			commits++
			pad = pad || t.prepare()
		}
	}
	if pad {
		// A batch that logs a yes ends alignPad no-ops past its last entry
		// (see alignPad). The pad is no task's answer.
		datas = s.padLocked(&task{}, datas, uint64(s.engine.SystemVersion())+alignPad)
	}

	// Stage 3: one replication round for every entry added, guarded
	// against engine/log skew while we still hold the lock.
	var term uint64
	var proposeErr error
	if len(datas) > 0 {
		term, proposeErr = s.proposeLocked(head, datas)
		if proposeErr == nil && commits > 0 {
			// Commit and batch-size accounting only cover batches that
			// actually reached the replicated log (a failed propose
			// errors every task in it).
			s.stats.Commits += commits
			s.batchSizes.Observe(commits)
		}
	}

	// Answers are built now, in admission order, from the paxos log as
	// the batch's propose left it; tasks doomed by a propose failure get
	// none (they fail with an error below).
	for _, t := range batch {
		inBatch := t.index > head
		if t.err != nil || inBatch && proposeErr != nil {
			continue
		}
		switch {
		case t.kind == kindCommit && !t.prepare():
			// A one-group commit ships the group's entries through its own:
			// earlier entries of this same batch are included, and all will
			// be durable by the time the response leaves (the batch barrier
			// covers them), so the replica's merge holds the client's own
			// entry the moment the response is in instead of pulling for
			// it. The fill includes the origin's own earlier writesets too:
			// in the window above the replica's reported version, "own"
			// entries exist only if their responses were lost, and a
			// response that makes the replica announce past them must carry
			// their data or the replica is left with a permanent hole. A
			// refusal ships everything committed.
			upTo := s.committedCap()
			if inBatch {
				upTo = t.index
			}
			t.remote = s.remotesLocked(t.after, upTo)
		case t.yes || t.kind == kindResolve && !t.veto && t.entry.Kind == core.KindCommitMarker:
			// The suffix through the yes vote or the marker, so that the
			// coordinator's merge has what it waits for without pulling. A
			// yes logged by this batch ships the whole batch: the union
			// applies where the last group's prepare merges, and the merge
			// reaches that position only with this group's entries up to
			// the same index, which are often the ones the batch holds
			// after this prepare. A record of an earlier batch or term
			// ships only what is already committed.
			upTo := t.index
			if t.yes && inBatch {
				upTo = head + uint64(len(datas))
			}
			if !inBatch {
				upTo = min(upTo, s.committedCap())
			}
			t.remote = s.remotesLocked(t.after, upTo)
		}
	}
	s.mu.Unlock()

	// Refusals, errors and answers standing on older entries resolve
	// without touching the disk. The fan-out counts the client tasks it
	// will answer and awaits the markers of the prepares it accepted.
	var durable []*task
	var answered int64
	var awaited []uint64
	for _, t := range batch {
		if t.err != nil || t.index <= head {
			t.finish()
			continue
		}
		durable = append(durable, t)
		if t.fromClient() {
			answered++
		}
		if t.prepare() && t.yes {
			awaited = append(awaited, t.entry.GID)
		}
	}
	if len(durable) == 0 {
		return
	}
	if proposeErr != nil {
		s.failTasks(durable, fmt.Errorf("certifier: propose: %w", proposeErr))
		return
	}

	// Stage 4: one durability barrier for the whole batch.
	lastIdx := head + uint64(len(datas))
	if err := s.node.WaitCommitted(lastIdx, term); err != nil {
		s.failTasks(durable, fmt.Errorf("certifier: replication: %w", err))
		return
	}

	// Stage 5: fan out. Every index <= lastIdx is majority durable now.
	// The fan-out is published before the first waiter wakes, so its
	// client's next request can count as an echo.
	s.publishFanout(drainedAt, answered, awaited)
	for _, t := range durable {
		t.finish()
	}
}

// checkLocked is stage 2 for one task: it decides the task's answer and
// appends the entries the task adds to the engine, and their payloads to
// datas, which it returns.
func (s *Server) checkLocked(t *task, datas [][]byte) [][]byte {
	gid := t.entry.GID
	switch {
	case t.kind == kindCommit && !t.prepare():
		if s.refuseLocked(t) {
			return datas // response built once the propose outcome is known
		}
		t.yes = true
		return s.addLocked(t, datas, t.entry)
	case t.kind == kindCommit:
		// The group's vote is the first record its log holds for the gid,
		// so a retry, or a late duplicate of a prepare the coordinator
		// vetoed meanwhile, is answered with the vote already cast.
		if v, yes, ok := s.engine.Vote(gid); ok {
			t.index, t.yes = uint64(v), yes
			if !yes {
				s.stats.Aborts++
			}
			return datas
		}
		if s.refuseLocked(t) {
			// A refusal is a no that must outlive this answer: its abort
			// marker is the vote, answered after the batch's barrier.
			return s.addLocked(t, datas, emptyEntry(core.KindAbortMarker, gid))
		}
		t.yes = true
		datas = s.padLocked(t, datas, t.target)
		return s.addLocked(t, datas, t.entry)
	case t.kind == kindResolve:
		// A veto answers with the vote already cast, and otherwise casts a
		// no: its abort marker.
		if t.veto {
			if v, yes, ok := s.engine.Vote(gid); ok {
				t.index, t.yes = uint64(v), yes
				return datas
			}
			return s.addLocked(t, datas, t.entry)
		}
		// Idempotent: the first marker wins and retries get its index.
		if v, _, ok := s.engine.Resolution(gid); ok {
			t.index = uint64(v)
			return datas
		}
		if _, ok := s.engine.PreparedAt(gid); !ok && t.entry.Kind == core.KindCommitMarker {
			// A commit decision for a gid this group never prepared: the
			// coordinator's phase-1 ack can only have come from a durable
			// prepare, so any leader must see it. Refuse loudly.
			t.err = fmt.Errorf("certifier: resolve-commit for unknown gid %d", gid)
			return datas
		}
		return s.addLocked(t, datas, t.entry)
	case t.kind == kindFill:
		if uint64(s.engine.SystemVersion()) >= t.target {
			t.index = t.target
			return datas
		}
		return s.padLocked(t, datas, t.target)
	default: // kindBarrier
		return s.addLocked(t, datas, t.entry)
	}
}

// padLocked appends fill no-ops on t's behalf, at most maxFill of them,
// until the log holds target entries, and returns datas with their
// payloads.
func (s *Server) padLocked(t *task, datas [][]byte, target uint64) [][]byte {
	head := uint64(s.engine.SystemVersion())
	if head >= target {
		return datas
	}
	for n := min(target-head, maxFill); n > 0 && t.err == nil; n-- {
		datas = s.addLocked(t, datas, noop)
	}
	return datas
}

// refuseLocked is the certification test of a commit task:
// the full conflict check (committed writers after its snapshot, and
// items locked by unresolved prepares, those of earlier tasks in the
// batch included), then the injected aborts of Config.AbortRate, which
// come after the check so the certifier pays all its usual costs (the
// Fig 14 methodology). It reports whether the task is refused.
func (s *Server) refuseLocked(t *task) bool {
	conflict := s.engine.Conflicts(t.entry.Start, t.entry.WS)
	injected := !conflict && s.cfg.AbortRate > 0 && s.rng.Float64() < s.cfg.AbortRate
	if !conflict && !injected {
		return false
	}
	s.stats.Aborts++
	if injected {
		s.stats.InjectedAborts++
	}
	return true
}

// addLocked appends e to the engine at its next version on t's behalf
// and e's payload to datas, which it returns; t's index becomes that
// version. An entry the engine refuses fails t and invalidates the
// basis.
func (s *Server) addLocked(t *task, datas [][]byte, e core.LogEntry) [][]byte {
	e.Version = s.engine.SystemVersion() + 1
	if err := s.engine.Append(e); err != nil {
		s.basisValid = false
		t.err = err
		return datas
	}
	t.index = uint64(e.Version)
	return append(datas, e.Payload)
}
