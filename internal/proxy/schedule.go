package proxy

// Dependency-tracked applier: the one path by which the runs applyRun
// builds from the merged stream reach the store, in every mode. install
// is the one routine that installs a writeset, and a failed attempt goes
// back to the window for the workers to retry (§8.1 soft recovery). One
// labeled commit at a time through the store's order semaphore makes the
// replica's apply path the freshness bottleneck once the disk is in it;
// that discipline is the pool size 1.
//
// The scheduler is a pipeline: labeled remote writesets are
// conflict-analyzed against the live window using stripe signatures
// (mvstore.StripeSig — key-set overlap summarized per store stripe),
// non-overlapping writesets are *installed* concurrently by a worker
// pool via CommitLabeledAsync, and the store publishes the installed
// versions strictly in global order. Readers never observe a torn or
// out-of-order snapshot: visibility is still gated by the announce
// semaphore; only the install work (locks, chain appends, WAL appends)
// runs in parallel.
//
// Dependency rule: entry B depends on entry A iff A was submitted
// before B and their stripe signatures intersect. B's install starts
// only after A *publishes* (not merely installs): update-installs
// merge the previous visible row columns and version chains must stay
// in sequence order, so a same-key successor must see its predecessor
// fully in the chain with its real sequence. Signature intersection
// over-approximates key overlap (hash collisions serialize harmlessly).
//
// Readiness rule: an entry is dispatched to a worker only when it has
// no unpublished dependency *and* the store has announced its waitFor
// version. Workers therefore never block on a version: a pool parked
// in version waits while the entry they wait for sits runnable with
// nobody to run it is a deadlock, not a slowdown. Versions announced by
// the scheduler's own entries — a client's own commit among them —
// re-evaluate readiness in resolve; the ones announced by other code (a
// resync) reach it through the single version waiter in watch.
//
// Submissions must arrive in ascending version order — applyRun submits
// from the single merger goroutine, one run at a time — so "submitted
// before" and "earlier version" coincide and every dependency edge
// points backward in version order. Publication order is
// total regardless: the store's pending list publishes by from-version
// under the apply gate.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/metrics"
	"tashkent/internal/mvstore"
)

// Entry lifecycle.
const (
	entryWaiting = iota // in window: not ready, or ready with no worker yet
	entryRunning        // a worker or its holder is installing it
	entryDone           // published / superseded / given up
)

// applyEntry is one labeled writeset in the scheduler's window,
// covering global versions (from, to].
type applyEntry struct {
	from, to uint64
	ws       *core.Writeset
	// waitFor, when nonzero, is a version the store must announce
	// before the entry may take its locks: the entry's own from after a
	// failed install attempt (so conflicting locks drain first). waitBy
	// is when the version waiter gives the entry up; its clock starts
	// once the entry has no unpublished dependency, so an entry is never
	// given up while the version it awaits is still queued ahead of it.
	waitFor  uint64
	waitBy   time.Time
	attempts int  // failed install attempts so far
	marked   bool // ws items registered in-flight (first attempt → resolve)
	// held marks an entry its submitter makes the first attempt at, so no
	// worker takes it until that attempt fails: the merger installs a
	// Base or Tashkent-MW entry, a client commits its own transaction
	// (finishOwn). Until it resolves, a later entry on its rows waits for
	// it, and its holder waits on done.
	held bool
	// done, which applyRun makes for a held entry, receives its outcome
	// from resolve.
	done  chan mvstore.PendingOutcome
	sig   mvstore.StripeSig
	deps  int // unpublished predecessors with intersecting signatures
	succs []*applyEntry
	state int
	start time.Time
	// logged, when set, is the ticket of the log batch that already
	// carries the entry's commit record (a Tashkent-API run logs all of
	// its records as one batch, see logRun): every
	// install attempt commits behind it. Without one, each attempt logs
	// the record itself.
	logged mvstore.LogTicket
}

// maxApplyWindow bounds the live window; submit blocks when full
// (backpressure toward the certifier stream rather than unbounded
// memory).
const maxApplyWindow = 4096

// applyScheduler owns the window and the worker pool.
type applyScheduler struct {
	p       *Proxy
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	window []*applyEntry
	closed bool

	running    int // workers mid-install
	submitted  int64
	windows    int64
	published  int64
	superseded int64
	gaveUp     int64

	parDist    metrics.Distribution // concurrent installers at each dispatch
	windowDist metrics.Distribution // entries per submitted window
	occupancy  metrics.Gauge        // live-window depth (peak vs maxApplyWindow)
	lag        *metrics.Latency     // submit → publish wall time

	// kick interrupts the version waiter: an entry started (or stopped)
	// waiting for a version, or the scheduler is closing.
	kick chan struct{}

	wg sync.WaitGroup
}

// maxInstallAttempts bounds the §8.1 soft-recovery retries of one entry.
const maxInstallAttempts = 8

func newApplyScheduler(p *Proxy, workers int) *applyScheduler {
	s := &applyScheduler{p: p, workers: workers, lag: metrics.NewLatency(0), kick: make(chan struct{}, 1)}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	go s.watch()
	return s
}

// stop drains the worker pool. Entries still in the window are
// abandoned (the process is shutting down; durable state lives in the
// certifier log); one that waits for a worker is given up, so a holder
// that handed it over is answered.
func (s *applyScheduler) stop() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.kickWatch()
	s.wg.Wait()
	s.mu.Lock()
	var waiting []*applyEntry
	for _, e := range s.window {
		if e.state == entryWaiting {
			e.state = entryDone
			waiting = append(waiting, e)
		}
	}
	s.mu.Unlock()
	for _, e := range waiting {
		s.resolve(e, 0)
	}
}

func (s *applyScheduler) kickWatch() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// submit conflict-analyzes entries against the live window and queues
// them. Entries must be in ascending version order, and concurrent
// submitters must already be ordered against each other (the merger) —
// the analysis assumes every window entry precedes every new
// entry in version order. Held entries alone wake neither the pool nor
// the version waiter: no worker may take them.
func (s *applyScheduler) submit(entries ...*applyEntry) {
	if len(entries) == 0 {
		return
	}
	store := s.p.cfg.Store
	wake := false
	s.mu.Lock()
	for _, e := range entries {
		for len(s.window) >= maxApplyWindow && !s.closed {
			// The pool may be idle with nothing announced to it yet: hand
			// over what is queued so far, or nobody drains the window.
			s.cond.Broadcast()
			s.kickWatch()
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock() // abandoned like the window itself, see stop
			return
		}
		e.sig = store.Signature(e.ws)
		e.state = entryWaiting
		if e.held {
			e.state = entryRunning // in its holder's hands, not a worker's
		} else {
			wake = true
		}
		e.start = time.Now()
		if e.sig != 0 {
			for _, w := range s.window {
				if w.state != entryDone && w.sig.Intersects(e.sig) {
					w.succs = append(w.succs, e)
					e.deps++
				}
			}
		}
		if e.waitFor > 0 && e.deps == 0 {
			e.waitBy = e.start.Add(s.p.cfg.ChunkWaitTimeout)
		}
		s.window = append(s.window, e)
		s.occupancy.Inc()
		s.submitted++
	}
	s.windows++
	s.windowDist.Observe(int64(len(entries)))
	if wake {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if wake {
		s.kickWatch()
	}
}

// worker picks the lowest-version ready entry (dependencies published,
// waitFor announced) and installs it. The window is kept in submission
// = version order, so a front-to-back scan finds the oldest ready work
// first and publication chains drain oldest-first.
func (s *applyScheduler) worker() {
	defer s.wg.Done()
	store := s.p.cfg.Store
	s.mu.Lock()
	for {
		var e *applyEntry
		announced := store.AnnouncedVersion()
		for _, w := range s.window {
			if w.state == entryWaiting && w.deps == 0 && w.waitFor <= announced {
				e = w
				break
			}
		}
		if e == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		e.state = entryRunning
		s.running++
		s.parDist.Observe(int64(s.running))
		s.mu.Unlock()
		s.install(e)
		s.mu.Lock()
		s.running--
	}
}

// watch is the scheduler's one version waiter. It parks in the store
// on the lowest version any entry is still waiting for and re-evaluates
// when that version is announced, when the waited set changes (kick),
// or when the earliest waitBy passes — at which point it gives the
// overdue entries up: the predecessor never announced (crash or
// failover), and resync re-applies from the certifier log.
func (s *applyScheduler) watch() {
	defer s.wg.Done()
	store := s.p.cfg.Store
	var werr error // how the last store wait ended
	for {
		var low uint64
		var by time.Time
		var overdue []*applyEntry
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		announced, now := store.AnnouncedVersion(), time.Now()
		for _, e := range s.window {
			switch {
			case e.state != entryWaiting || e.deps > 0 || e.waitFor <= announced:
			case errors.Is(werr, mvstore.ErrCrashed) || !now.Before(e.waitBy):
				e.state = entryDone // no worker may pick it up now
				overdue = append(overdue, e)
			default:
				if low == 0 || e.waitFor < low {
					low = e.waitFor
				}
				if by.IsZero() || e.waitBy.Before(by) {
					by = e.waitBy
				}
			}
		}
		s.cond.Broadcast() // announced may have moved since the workers looked
		s.mu.Unlock()
		for _, e := range overdue {
			s.resolve(e, outcomeOf(werr))
		}
		if low == 0 {
			<-s.kick
			werr = nil
			continue
		}
		werr = store.WaitAnnouncedOr(low, time.Until(by), s.kick)
	}
}

// install runs one attempt at an entry — on a pool worker, or on the
// merger for a Base or Tashkent-MW entry: install the writeset with the eager kills of
// §8.2 and commit it. A failed attempt goes back to the window
// (requeue).
func (s *applyScheduler) install(e *applyEntry) {
	p := s.p
	if e.ws == nil || e.ws.Empty() {
		// Hollow range (certifier barrier / fill no-ops): nothing to
		// install, the announce chain just advances through it in turn.
		err := p.cfg.Store.AnnounceAsync(e.from, e.to, func(oc mvstore.PendingOutcome) { s.resolve(e, oc) })
		if err != nil {
			s.resolve(e, mvstore.PendingCrashed)
		}
		return
	}
	if !e.marked {
		p.markInFlight(e.ws, e.to, true)
		e.marked = true
	}
	p.killConflictingLocals(e.ws, 0)
	tx, err := p.cfg.Store.Begin()
	if err == nil {
		p.markApplier(tx.ID(), true)
		if err = tx.ApplyWriteset(e.ws); err == nil {
			err = s.commit(e, tx)
		}
		if err != nil {
			tx.Abort()
		}
		p.markApplier(tx.ID(), false)
	}
	if err == nil {
		return
	}
	e.attempts++
	if errors.Is(err, mvstore.ErrCrashed) || e.attempts == maxInstallAttempts {
		s.resolve(e, outcomeOf(err))
		return
	}
	s.requeue(e)
}

// commit commits tx, which holds e's writeset, over e's range: the one
// commit of every attempt at an entry, a worker's install, the merger's
// or a client's own transaction (finishOwn). It commits with deferred
// publication — CommitLoggedAsync behind the record its run already
// logged, else CommitLabeledAsync, which logs its own — so its versions
// publish at their global turn and the store's publication callback
// resolves it: before commit returns when the store has announced e's
// from already, as it has for every Base and Tashkent-MW entry, which
// the merger hands over one at a time. On an error e is unresolved and
// tx left to the caller.
func (s *applyScheduler) commit(e *applyEntry, tx *mvstore.Tx) error {
	cb := func(oc mvstore.PendingOutcome) { s.resolve(e, oc) }
	if e.logged != nil {
		return tx.CommitLoggedAsync(e.from, e.to, e.logged, cb)
	}
	return tx.CommitLabeledAsync(e.from, e.to, cb)
}

// requeue hands an entry whose attempt failed to the workers (§8.1 soft
// recovery): it is ready again once its predecessors have published and
// the store has announced its from, so conflicting locks drain first.
func (s *applyScheduler) requeue(e *applyEntry) {
	s.p.addStat(func(st *Stats) { st.SoftRecoveries++ })
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.resolve(e, 0) // no worker is left to retry it
		return
	}
	e.waitFor, e.waitBy = e.from, time.Now().Add(s.p.cfg.ChunkWaitTimeout)
	e.state = entryWaiting
	s.cond.Broadcast()
	s.mu.Unlock()
	s.kickWatch()
}

// wait blocks a held entry's holder until the entry resolves: nil once
// its range is published or covered by newer state, else why it was
// given up — errUnresolved if the proxy closed first. A nonzero bound
// caps the wait: past it the holder gives up with the outcome unknown,
// and the entry still resolves into its buffered done when it lands.
func (s *applyScheduler) wait(e *applyEntry, bound time.Duration) error {
	var expired <-chan time.Time
	if bound > 0 {
		t := time.NewTimer(bound)
		defer t.Stop()
		expired = t.C
	}
	var oc mvstore.PendingOutcome
	select {
	case oc = <-e.done:
	case <-expired:
		return fmt.Errorf("proxy: (%d,%d] not published within %v; outcome unknown", e.from, e.to, bound)
	}
	switch oc {
	case mvstore.PendingPublished, mvstore.PendingSuperseded:
		return nil
	case mvstore.PendingCrashed:
		return mvstore.ErrCrashed
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return errUnresolved
	}
	return fmt.Errorf("proxy: installing (%d,%d] gave up after %d failed attempts", e.from, e.to, e.attempts)
}

// outcomeOf maps an install failure to the terminal outcome recorded
// for the entry (0 = plain give-up).
func outcomeOf(err error) mvstore.PendingOutcome {
	if errors.Is(err, mvstore.ErrCrashed) {
		return mvstore.PendingCrashed
	}
	return 0
}

// resolve finishes an entry: record the outcome, release its
// successors (their installs may now start — the predecessor is
// published, superseded, or abandoned to resync), and drop it from the
// window. Runs from worker goroutines and from publication callbacks.
func (s *applyScheduler) resolve(e *applyEntry, oc mvstore.PendingOutcome) {
	if e.marked {
		s.p.markInFlight(e.ws, e.to, false)
	}
	s.mu.Lock()
	e.state = entryDone
	switch oc {
	case mvstore.PendingPublished:
		s.published++
		s.lag.Observe(time.Since(e.start))
	case mvstore.PendingSuperseded:
		// A catch-up applier carried the state past the range; it is
		// covered, just not by us.
		s.superseded++
	default:
		s.gaveUp++
	}
	watched := false
	for _, succ := range e.succs {
		succ.deps--
		if succ.deps == 0 && succ.waitFor > 0 {
			succ.waitBy = time.Now().Add(s.p.cfg.ChunkWaitTimeout)
			watched = true
		}
	}
	for i, w := range s.window {
		if w == e {
			s.window = append(s.window[:i], s.window[i+1:]...)
			s.occupancy.Dec()
			break
		}
	}
	if len(s.window) > 0 {
		s.cond.Broadcast() // an empty window has nothing for a worker
	}
	s.mu.Unlock()
	if e.done != nil {
		e.done <- oc
	}
	if watched {
		s.kickWatch()
	}
}

// ApplyStats is a snapshot of the parallel applier, alongside the
// certifier's QueueStats in the observability surface.
type ApplyStats struct {
	// Workers is the pool size.
	Workers int
	// Entry outcomes.
	Submitted  int64
	Published  int64
	Superseded int64
	GaveUp     int64
	// Windows counts submit batches; WindowSize their entry counts.
	Windows    int64
	WindowSize metrics.DistSummary
	// Parallelism samples the number of concurrent installers at each
	// dispatch; its Max is the parallelism high-watermark achieved.
	Parallelism metrics.DistSummary
	// Pending is the store's installed-but-unpublished commit count
	// right now.
	Pending int
	// WindowHigh is the peak live-window depth observed — how close the
	// scheduler came to the maxApplyWindow backpressure bound.
	WindowHigh int64
	// Lag is the submit→publish wall time per entry; LagVersions the
	// current gap between the planning cursor and the announced
	// (visible) version.
	Lag         metrics.Summary
	LagVersions uint64
}

// ApplyStats returns the applier's snapshot.
func (p *Proxy) ApplyStats() ApplyStats {
	var st ApplyStats
	ann := p.cfg.Store.AnnouncedVersion()
	p.mu.Lock()
	rv := p.rvPlanned
	p.mu.Unlock()
	if rv > ann {
		st.LagVersions = rv - ann
	}
	s := p.sched
	s.mu.Lock()
	st.Workers = s.workers
	st.Submitted = s.submitted
	st.Published = s.published
	st.Superseded = s.superseded
	st.GaveUp = s.gaveUp
	st.Windows = s.windows
	s.mu.Unlock()
	st.WindowHigh = s.occupancy.High()
	st.WindowSize = s.windowDist.Summarize()
	st.Parallelism = s.parDist.Summarize()
	st.Lag = s.lag.Summarize()
	st.Pending = p.cfg.Store.PendingApplies()
	return st
}

// RemoteEntry is one labeled remote writeset: an action of the merged
// stream in a run handed to applyRun. Own marks a writeset this replica
// originated.
type RemoteEntry struct {
	Version uint64
	WS      *core.Writeset
	Own     bool
}
