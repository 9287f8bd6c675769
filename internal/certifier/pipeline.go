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
//     the round via wal.AppendBatch, one fsync),
//  4. takes ONE durability barrier (WaitCommitted on the batch's last
//     index) for the whole batch, and
//  5. fans responses — remote-writeset fills, commit versions, log
//     indices — back to all waiters.
//
// Every entry the leader adds to the log goes this way: certifications,
// both phases of a cross-partition commit, fills and barriers are task
// kinds of the one queue. Refusals and errors resolve at step 2; they
// never wait for the disk.

// taskKind is what an admitted task asks of the log.
type taskKind uint8

const (
	kindCertify taskKind = iota // certify a writeset and commit it
	kindPrepare                 // phase 1 of a cross-partition commit: certify and lock
	kindResolve                 // phase 2: the decision marker
	kindFill                    // no-ops until the log holds a target length
	kindBarrier                 // one no-op
)

// fromClient reports whether a replica's transaction waits on the task.
// Those are counted as requests and as echoes, and keep the group busy
// for pulls; fills and barriers are the group's own liveness tools.
func (k taskKind) fromClient() bool { return k <= kindResolve }

// sheddable reports whether admission control may turn the task away.
// A decision marker may not: it is what releases a prepare's locks.
func (k taskKind) sheddable() bool { return k <= kindPrepare }

// task carries one admitted request through the pipeline.
type task struct {
	kind taskKind
	// entry is what the task appends if it survives (see newLogEntry): the
	// writeset to certify, the prepare, the marker, or the no-op a fill
	// repeats.
	entry    core.LogEntry
	req      Request   // kindCertify: the request
	after    uint64    // kindResolve: the replica's frontier in this group
	target   uint64    // kindFill: the log length wanted
	enqueued time.Time // when the task entered the admission queue
	deadline time.Time // caller's context deadline (zero = none)

	// Filled by the certification loop.
	index  uint64     // the log index the answer stands on (0 = none: a refusal)
	resp   Response   // kindCertify
	remote []RemoteWS // kindResolve of a commit: the suffix through the marker
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

// echoDecay is the reciprocal weight of the newest fan-out's echo ratio
// in the learned one.
const echoDecay = 4

// fanout is the leader's most recent response fan-out as admission sees
// it. A client request admitted within window of at is an echo: most
// likely a closed-loop client the fan-out just answered, coming back.
// A decision marker for one of the prepares it answered is awaited: its
// coordinator comes back with one once every involved group has
// answered.
type fanout struct {
	at       time.Time
	window   time.Duration
	answered int64               // client tasks it answered
	target   float64             // echoes expected back (0: none)
	awaited  map[uint64]struct{} // gids of the prepares it answered (nil: none)
	echoes   atomic.Int64
	marker   atomic.Int64 // admission of the first awaited marker, Unix ns (0: none yet)
}

// admitted sees a client task admitted at t.enqueued. The first marker f
// awaits is stamped, which may extend f's window (see windowEnd); any
// task inside the window is counted as an echo.
func (f *fanout) admitted(t *task) {
	if t.kind == kindResolve && f.awaited != nil {
		if _, ok := f.awaited[t.entry.GID]; ok {
			f.marker.CompareAndSwap(0, t.enqueued.UnixNano())
		}
	}
	if !t.enqueued.Before(f.at) && !t.enqueued.After(f.windowEnd()) {
		f.echoes.Add(1)
	}
}

// expects reports whether f expects anyone back, and so whether a gather
// behind it may linger.
func (f *fanout) expects() bool { return f.target > 0 || f.awaited != nil }

// windowEnd is when a gather behind f stops lingering: one window after
// the fan-out or, if later, after the first marker f awaits.
func (f *fanout) windowEnd() time.Time {
	end := f.at.Add(f.window)
	if m := f.marker.Load(); m != 0 {
		if e := time.Unix(0, m).Add(f.window); e.After(end) {
			return e
		}
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
	if t.kind.fromClient() {
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
	}
	if err := s.admit(t); err != nil {
		return err
	}
	// Token in hand: queue occupancy is strictly below QueueDepth, so
	// this send cannot block behind anything but scheduling.
	t.enqueued = time.Now()
	if f := s.fanout.Load(); f != nil && t.kind.fromClient() {
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
//     open for its whole window, and the window ends W after the later of
//     the fan-out and the first marker it awaits. A coordinator sends its
//     markers only once every involved group has answered, so the first
//     awaited marker marks the slowest partner's fan-out, and groups that
//     close on it close together. A close on a count would differ from
//     group to group and drift the groups out of step; half a cycle apart,
//     every round would wait out a flush in one of them.
//
// Either way the linger ends at the shared bounds: the window W, a task
// in hand reaching its deadline, MaxBatch, or Stop. W is one eighth of
// the measured cycle, so the tasks in hand wait at most that long past
// the later anchor for a batch that saves the latecomers a whole cycle.
// The window is anchored at the fan-out, or at a marker it awaits, so a
// gather that starts after an idle period or a leadership change does
// not linger at all. Returns nil if the server stopped mid-gather (the
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
				continue // a marker admitted meanwhile may have moved the end
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
// one eighth of the cycle. It expects the ratio's share of its own
// cohort back, if that is at least one client.
func (s *Server) publishFanout(drainedAt time.Time, answered int64, awaited map[uint64]struct{}) {
	now := time.Now()
	cycle := now.Sub(drainedAt)
	s.cycle.Store(int64(cycle))
	if prev := s.fanout.Load(); prev != nil && prev.answered > 0 {
		s.echoRatio += (float64(prev.echoes.Load())/float64(prev.answered) - s.echoRatio) / echoDecay
	}
	f := &fanout{at: now, window: cycle / lingerShare, answered: answered, awaited: awaited}
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
	drainedAt := time.Now()
	for _, t := range batch {
		wait := drainedAt.Sub(t.enqueued)
		if t.kind.fromClient() {
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
		if t.kind.fromClient() && len(datas) > n {
			commits++
		}
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

	// Answers are built now, in admission order, from the engine as the
	// batch left it; tasks doomed by a propose failure get none (they fail
	// with an error below).
	for _, t := range batch {
		inBatch := t.index > head
		if t.err != nil || inBatch && proposeErr != nil {
			continue
		}
		switch {
		case t.kind == kindCertify:
			// A commit ships the group's entries through its own: earlier
			// entries of this same batch are included, and all will be
			// durable by the time the response leaves (the batch barrier
			// covers them), so the replica's merge holds the client's own
			// entry the moment the response is in instead of pulling for
			// it. The fill includes the origin's own earlier writesets too:
			// in the window above the replica's reported version, "own"
			// entries exist only if their responses were lost, and a
			// response that makes the replica announce past them must carry
			// their data or the replica is left with a permanent hole. An
			// abort ships everything committed.
			upTo := s.committedCap()
			if inBatch {
				upTo = t.index
			}
			t.resp = Response{
				Committed: inBatch, CommitVersion: t.index,
				Remote: s.remotesLocked(t.req.Origin, true, t.req.ReplicaVersion, upTo),
			}
		case t.kind == kindResolve && t.entry.Kind == core.KindCommitMarker:
			// The suffix through the marker, so that the coordinator's
			// merge has what it waits for without pulling. A marker of an
			// earlier batch or term ships only what is already committed.
			upTo := t.index
			if !inBatch {
				upTo = min(upTo, s.committedCap())
			}
			t.remote = s.remotesLocked(core.BarrierOrigin, true, t.after, upTo)
		}
	}
	s.mu.Unlock()

	// Refusals, errors and answers standing on older entries resolve
	// without touching the disk. The fan-out counts the client tasks it
	// will answer and awaits the markers of the prepares among them.
	var durable []*task
	var answered int64
	var awaited map[uint64]struct{}
	for _, t := range batch {
		if t.err != nil || t.index <= head {
			t.finish()
			continue
		}
		durable = append(durable, t)
		if t.kind.fromClient() {
			answered++
		}
		if t.kind == kindPrepare {
			if awaited == nil {
				awaited = make(map[uint64]struct{})
			}
			awaited[t.entry.GID] = struct{}{}
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
	sysv := s.node.CommitIndex()
	s.publishFanout(drainedAt, answered, awaited)
	for _, t := range durable {
		if t.kind == kindCertify {
			t.resp.SystemVersion = sysv
		}
		t.finish()
	}
}

// checkLocked is stage 2 for one task: it decides the task's answer and
// appends the entries the task adds to the engine, and their payloads to
// datas, which it returns.
func (s *Server) checkLocked(t *task, datas [][]byte) [][]byte {
	gid := t.entry.GID
	switch t.kind {
	case kindCertify:
		if s.refuseLocked(t) {
			return datas // response built once the propose outcome is known
		}
		return s.addLocked(t, datas, t.entry)
	case kindPrepare:
		// Idempotent: a retry of a prepared gid answers with its entry.
		if v, ok := s.engine.PreparedAt(gid); ok {
			t.index = uint64(v)
			return datas
		}
		// The decision marker is already in the log (a coordinator retry
		// raced its own abort): this gid can never prepare again.
		if _, _, ok := s.engine.Resolution(gid); ok {
			s.stats.Aborts++
			return datas
		}
		if s.refuseLocked(t) {
			return datas
		}
		return s.addLocked(t, datas, t.entry)
	case kindResolve:
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
	case kindFill:
		head := uint64(s.engine.SystemVersion())
		if head >= t.target {
			t.index = t.target
			return datas
		}
		for n := min(t.target-head, maxFill); n > 0 && t.err == nil; n-- {
			datas = s.addLocked(t, datas, t.entry)
		}
		return datas
	default: // kindBarrier
		return s.addLocked(t, datas, t.entry)
	}
}

// refuseLocked is the certification test of a certify or prepare task:
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
