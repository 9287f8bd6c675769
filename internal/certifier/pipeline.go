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
//  1. drains every waiting request (bounded by Config.MaxBatch), and
//     lingers briefly for the clients its last fan-out answered (see
//     gatherBatch),
//  2. conflict-checks them in admission order against the engine —
//     later requests in the batch see earlier survivors, exactly as if
//     they had been serialized,
//  3. proposes all surviving commits as ONE batched log append
//     (paxos.ProposeBatchAt: one replication round; followers persist
//     the round via wal.AppendBatch, one fsync),
//  4. takes ONE durability barrier (WaitCommitted on the batch's last
//     index) for the whole batch, and
//  5. fans responses — remote-writeset fills, replica sequence
//     numbers, commit versions — back to all waiters.
//
// Aborts and certification errors resolve at step 2; they never wait
// for the disk.

// certifyTask carries one admitted request through the pipeline.
type certifyTask struct {
	req Request
	// entry is what the request appends if it survives (see newLogEntry);
	// its Version is the assigned commit version once commit is set.
	entry    core.LogEntry
	enqueued time.Time // when the task entered the admission queue
	deadline time.Time // caller's context deadline (zero = none)

	// Filled by the certification loop.
	resp   Response
	err    error
	commit bool // survived certification; part of the batch proposal

	done chan struct{} // closed when resp/err are final
}

// lingerShare sets the echo window as a share of the batch cycle: a
// request admitted within cycle/lingerShare of a fan-out is an echo of
// it, and a gather lingers at most until that window closes. A client's
// return trip (≈ 0.2–0.3 ms) fits inside an eighth of a 5 ms flush but
// not always inside a thirty-second.
const lingerShare = 8

// echoDecay is the reciprocal weight of the newest fan-out's echo count
// in the expected count.
const echoDecay = 4

// fanout is the leader's most recent response fan-out as admission sees
// it. A certify request admitted within window of at is an echo: most
// likely a closed-loop client the fan-out just answered, coming back.
type fanout struct {
	at     time.Time
	window time.Duration
	echoes atomic.Int64
}

// admitted counts a request admitted at the given time if it echoes f.
func (f *fanout) admitted(at time.Time) {
	if d := at.Sub(f.at); d >= 0 && d <= f.window {
		f.echoes.Add(1)
	}
}

// errDeadlineExpired resolves requests whose caller's context deadline
// passed before certification started; the caller has already given up,
// so the text is informational only.
var errDeadlineExpired = errors.New("certifier: caller deadline expired before certification")

// finish publishes the task's outcome to its waiting RPC handler.
func (t *certifyTask) finish() { close(t.done) }

// fail resolves a task with an error.
func (t *certifyTask) fail(err error) {
	t.resp = Response{}
	t.err = err
	t.finish()
}

// certify is the transport-facing entry point: decode, enqueue, wait.
// The error for a stopped server is paxos.ErrStopped so the failover
// client treats it like any other replication-layer outage and retries
// elsewhere.
func (s *Server) certify(req Request) (Response, error) {
	// The entry, payload included, is built here on the handler's own
	// goroutine, so the certification loop only conflict-checks and
	// proposes.
	entry, err := newLogEntry(core.KindData, req.Origin, req.StartVersion, 0, nil, req.WSBytes)
	if err != nil {
		return Response{}, err
	}
	if entry.WS.Empty() {
		return Response{}, errors.New("certifier: empty writeset (read-only transactions commit at the replica)")
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	t := &certifyTask{req: req, entry: entry, done: make(chan struct{})}
	if req.Deadline != 0 {
		t.deadline = time.Unix(0, req.Deadline)
		if time.Now().After(t.deadline) {
			s.expiredCount.Add(1)
			return Response{}, errDeadlineExpired
		}
	}
	// Admission control: take a slot token (one exists per queue slot,
	// released when the pipeline dequeues the task), waiting up to
	// AdmitTimeout before shedding with a retry-after hint. The token
	// — not a timed send on the queue channel itself — is what bounds
	// queueing, so t.enqueued can be stamped AFTER the door: the
	// stage-2 queue-wait budget then measures time spent in the queue,
	// and a request that waited at the door is not pre-doomed to
	// out-wait that budget. (A negative AdmitTimeout restores the old
	// unbounded blocking.)
	select {
	case <-s.slots:
	case <-s.stopCh:
		return Response{}, paxos.ErrStopped
	default:
		if s.cfg.AdmitTimeout < 0 {
			select {
			case <-s.slots:
			case <-s.stopCh:
				return Response{}, paxos.ErrStopped
			}
			break
		}
		// A dead client must not hold a door waiter longer than its
		// own deadline.
		wait := s.cfg.AdmitTimeout
		if !t.deadline.IsZero() {
			if until := time.Until(t.deadline); until < wait {
				wait = until
			}
		}
		timer := time.NewTimer(wait)
		select {
		case <-s.slots:
			timer.Stop()
		case <-timer.C:
			if !t.deadline.IsZero() && time.Now().After(t.deadline) {
				s.expiredCount.Add(1)
				return Response{}, errDeadlineExpired
			}
			s.shedCount.Add(1)
			return Response{}, overloadedError(s.retryAfterHint())
		case <-s.stopCh:
			timer.Stop()
			return Response{}, paxos.ErrStopped
		}
	}
	// Token in hand: queue occupancy is strictly below QueueDepth, so
	// this send cannot block behind anything but scheduling.
	t.enqueued = time.Now()
	if f := s.fanout.Load(); f != nil {
		f.admitted(t.enqueued)
	}
	select {
	case s.admitCh <- t:
	case <-s.stopCh:
		return Response{}, paxos.ErrStopped
	}
	s.queueDepth.Observe(int64(len(s.admitCh)))
	select {
	case <-t.done:
		return t.resp, t.err
	case <-s.stopCh:
		// The loop may have resolved the task concurrently with the
		// shutdown; prefer its answer if it exists.
		select {
		case <-t.done:
			return t.resp, t.err
		default:
			return Response{}, paxos.ErrStopped
		}
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
// first admitted request, gathers a batch, and processes it.
func (s *Server) certifyLoop() {
	defer s.loopWG.Done()
	for {
		var first *certifyTask
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
// already queued and then, if the last fan-out's clients are expected
// back (s.expected >= 1), their echoes. Once the queue is empty it
// lingers until the first of: the echoes counted since the last fan-out
// reach the expected count, the fan-out's window closes, a task in hand
// reaches its deadline, or the server stops. The window is anchored at
// the fan-out, so a gather that starts after an idle period or a
// leadership change does not linger at all, and it is one eighth of the
// measured cycle, so the tasks already queued wait at most that long
// for a batch that saves the echoes a whole cycle. Returns nil if the
// server stopped mid-gather (the collected tasks are failed).
func (s *Server) gatherBatch(first *certifyTask) []*certifyTask {
	batch := append(make([]*certifyTask, 0, 16), first)
	f := s.fanout.Load()
	var until time.Time // zero: do not linger (no deadline is earlier)
	if f != nil && s.expected >= 1 {
		until = earliest(f.at.Add(f.window), first.deadline)
	}
	for len(batch) < s.cfg.MaxBatch {
		var t *certifyTask
		select {
		case t = <-s.admitCh:
		default:
			wait := time.Until(until)
			if wait <= 0 || float64(f.echoes.Load()) >= s.expected {
				return batch
			}
			timer := time.NewTimer(wait)
			select {
			case t = <-s.admitCh:
				timer.Stop()
			case <-timer.C:
				return batch
			case <-s.stopCh:
				timer.Stop()
				s.failTasks(batch, paxos.ErrStopped)
				return nil
			}
		}
		s.releaseSlot()
		batch = append(batch, t)
		until = earliest(until, t.deadline)
	}
	return batch
}

// earliest returns the earlier of a and b, a zero b meaning no bound.
func earliest(a, b time.Time) time.Time {
	if !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// publishFanout records a fan-out about to start for a batch drained at
// drainedAt: the batch's cycle (drain to durability) is measured, the
// previous fan-out's echoes are folded into the expected count, and the
// new fan-out opens an echo window of one eighth of the cycle.
func (s *Server) publishFanout(drainedAt time.Time) {
	now := time.Now()
	cycle := now.Sub(drainedAt)
	s.cycle.Store(int64(cycle))
	if prev := s.fanout.Load(); prev != nil {
		s.expected += (float64(prev.echoes.Load()) - s.expected) / echoDecay
	}
	s.fanout.Store(&fanout{at: now, window: cycle / lingerShare})
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
func (s *Server) failTasks(tasks []*certifyTask, err error) {
	for _, t := range tasks {
		t.fail(err)
	}
}

// processBatch runs stages 2-5 of the pipeline for one batch.
func (s *Server) processBatch(batch []*certifyTask) {
	s.mu.Lock()
	if err := s.ensureEngineLocked(); err != nil {
		s.mu.Unlock()
		s.failTasks(batch, err)
		return
	}

	// Stage 2: conflict-check in admission order. Survivors are
	// appended to the engine immediately so later requests in the batch
	// certify against them; if the batched propose then fails, the
	// engine basis is invalidated and rebuilt from the authoritative
	// log, exactly as the per-request path did.
	firstVersion := uint64(s.engine.SystemVersion()) + 1
	var commits []*certifyTask
	var datas [][]byte
	drainedAt := time.Now()
	for _, t := range batch {
		s.stats.Requests++
		wait := drainedAt.Sub(t.enqueued)
		s.queueWait.Observe(wait)
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
		if s.cfg.AdmitTimeout > 0 && wait > 2*s.cfg.AdmitTimeout {
			s.shedCount.Add(1)
			t.err = overloadedError(s.retryAfterHint())
			continue
		}
		// Full certification check first; injected aborts (Fig 14)
		// happen after the check so the certifier pays all its usual
		// costs.
		conflict := s.engine.Conflicts(core.Version(t.req.StartVersion), t.entry.WS)
		injected := false
		if !conflict && s.cfg.AbortRate > 0 && s.rng.Float64() < s.cfg.AbortRate {
			injected = true
		}
		if conflict || injected {
			s.stats.Aborts++
			if injected {
				s.stats.InjectedAborts++
			}
			continue // response built once the propose outcome is known
		}
		t.entry.Version = s.engine.SystemVersion() + 1
		if err := s.engine.Append(t.entry); err != nil {
			s.basisValid = false
			t.err = err
			continue
		}
		t.commit = true
		datas = append(datas, t.entry.Payload)
		commits = append(commits, t)
	}

	// Stage 3: one replication round for every surviving commit,
	// guarded against engine/log skew while we still hold the lock.
	var term uint64
	var proposeErr error
	if len(datas) > 0 {
		term, proposeErr = s.proposeLocked(firstVersion-1, datas)
		if proposeErr == nil {
			// Commit and batch-size accounting only cover batches that
			// actually reached the replicated log (a failed propose
			// errors every task in it).
			s.stats.Commits += int64(len(commits))
			s.batchSizes.Observe(int64(len(datas)))
		}
	}

	// Responses are sequenced only now, in admission order: per-origin
	// ReplicaSeq numbers must be consumed exclusively by responses that
	// will actually be delivered, or a failed propose would leave
	// permanent gaps in the old epoch and stall the proxy sequencers
	// behind them. Commits doomed by a propose failure therefore take
	// no sequence number (they fail with an error below); their abort
	// siblings still respond with a dense sequence.
	for _, t := range batch {
		if t.err != nil {
			continue
		}
		if t.commit {
			if proposeErr != nil {
				continue
			}
			version := uint64(t.entry.Version)
			t.resp = Response{Committed: true, CommitVersion: version, ReplicaSeq: s.nextReplicaSeqLocked(t.req.Origin), SeqEpoch: s.basisTerm}
			// Writesets up to (excluding) the task's own version:
			// earlier commits of this same batch are included and will
			// be durable by the time the response leaves (the batch
			// barrier covers them). The fill includes the origin's own
			// earlier writesets too: in the window above the replica's
			// reported version, "own" entries exist only if their
			// responses were lost, and a response that makes the
			// replica announce past them must carry their data or the
			// replica is left with a permanent hole. Already-applied
			// own writesets sit at or below the replica's version and
			// are filtered by the proxy's basis cursor, so the healthy
			// path never re-applies them.
			s.fillRemotesLocked(&t.resp, t.req.Origin, true, t.req.ReplicaVersion, version-1, t.req.NeedSafeBack)
		} else {
			t.resp = Response{Committed: false, ReplicaSeq: s.nextReplicaSeqLocked(t.req.Origin), SeqEpoch: s.basisTerm}
			s.fillRemotesLocked(&t.resp, t.req.Origin, true, t.req.ReplicaVersion, s.committedCap(), t.req.NeedSafeBack)
		}
	}
	s.mu.Unlock()

	// Aborts and per-task errors resolve without touching the disk.
	for _, t := range batch {
		if !t.commit {
			t.finish()
		}
	}
	if len(commits) == 0 {
		return
	}
	if proposeErr != nil {
		s.failTasks(commits, fmt.Errorf("certifier: propose: %w", proposeErr))
		return
	}

	// Stage 4: one durability barrier for the whole batch.
	lastIdx := firstVersion + uint64(len(datas)) - 1
	if err := s.node.WaitCommitted(lastIdx, term); err != nil {
		s.failTasks(commits, fmt.Errorf("certifier: replication: %w", err))
		return
	}

	// Stage 5: fan out. Every commit version <= lastIdx is majority
	// durable now. The fan-out is published before the first waiter
	// wakes, so its client's next request can count as an echo.
	sysv := s.node.CommitIndex()
	s.publishFanout(drainedAt)
	for _, t := range commits {
		t.resp.SystemVersion = sysv
		t.finish()
	}
}
