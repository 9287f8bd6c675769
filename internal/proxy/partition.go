package proxy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
)

// The ordering point (see internal/partition): the proxy talks to the
// certifier groups of its topology — one in the classic system. Commits
// route by partition — a single-partition writeset certifies in one
// round against its group; a cross-partition writeset runs the
// prepare/resolve protocol across its groups. All application goes
// through one merger goroutine that interleaves the per-group committed
// streams into the deterministic merged order and applies it run by run
// through applyRun — the policy cfg.Mode picks — so every replica
// installs the same state at the same merged version.
//
// Entries are addressed by (group, index), the assembler deduplicates
// and orders them, and the merge is strict round-robin, so an entry's
// merged version and a snapshot's position in each group's version space
// are arithmetic (partition.Map.MergedVersion / GroupVersion), not state;
// with one group both are the identity. A certify response carries its
// group's entries through the committed one, so the merge holds the
// client's own entry as soon as the response is in.

// waitKey addresses the action a committing client waits for: a
// single-partition commit's entry by its group and log index, a
// cross-partition commit by its gid (group -1).
type waitKey struct {
	g   int
	idx uint64
}

// ownWait is a committing client transaction waiting for its action in
// the merged stream. tx is nil when the client gave the commit up
// mid-round-trip: the run then installs ws by writeset.
type ownWait struct {
	key waitKey
	tx  *mvstore.Tx
	ws  *core.Writeset
	ch  chan ownTurn
}

// ownTurn is the merger's answer to a waiting client: the merged version
// its transaction committed at, or why the run failed. finish, when set,
// is the rest of a Tashkent-API commit, which the client runs itself
// (see applyRun).
type ownTurn struct {
	mv     uint64
	finish func() error
	err    error
}

// merger is the replica's ordering point.
type merger struct {
	p    *Proxy
	topo *partition.Topology

	mu  sync.Mutex
	asm *partition.Assembler
	// waiters are taken by the merger in the same critical section that
	// drains their action from the assembler, so an action at or below
	// asm.MergedVersion() has been looked up for good.
	waiters map[waitKey]*ownWait

	wake chan struct{} // nudges the merger after new offers
}

// gidCounter is process-wide so simulated crash/recovery cycles never
// reuse a global transaction id (a reused gid would collide with its
// predecessor's decision markers in the certifier groups).
var gidCounter atomic.Uint64

// mergeStallNudge is how long the merger waits on a blocked stream
// before pulling it. Whether a short group is padded with fill no-ops
// is decided by the group itself: its pull response says whether
// certifications are in flight (entries imminent — never pad) or the
// group is idle (pad immediately; an idle partition must not stall
// the merge). mergeFillPatience is the fallback for a group that
// reports busy without committing anything for that long — under
// fault injection an in-flight request can linger for seconds on
// retries, and the merge must not wait it out.
const (
	mergeStallNudge   = 2 * time.Millisecond
	mergeFillPatience = 25 * time.Millisecond
)

func newMerger(p *Proxy) *merger {
	return &merger{
		p:       p,
		topo:    p.topo,
		asm:     partition.NewAssembler(len(p.topo.Groups)),
		waiters: make(map[waitKey]*ownWait),
		wake:    make(chan struct{}, 1),
	}
}

// replicaVersion is the highest contiguous log index received from
// group g.
func (m *merger) replicaVersion(g int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.asm.Frontier(g)
}

// localCert: only with one group, where a received remote writeset at a
// version in (start, now] that a local writeset overlaps is one the
// certifier will find committed after the transaction's snapshot — proof
// of an abort. With several it is not: a cross-partition union is
// applied at its first commit marker's merged position, which can come
// before the union's part's position in the group that certifies a local
// writeset over it. The replica's window (start, now] and that group's
// window (GroupVersion(g, start), head] then disagree on what the
// snapshot could have seen.
func (m *merger) localCert() bool {
	return len(m.topo.Groups) == 1
}

// resolve feeds group g's certify response to the assembler and, if it
// committed the client's transaction, waits for the merger to commit
// that at its merged position. ctx bounded only the certification round
// trip: a client that gave up mid-certify (tx nil) is finished the same
// way, by writeset.
func (m *merger) resolve(g int, resp certifier.Response, tx *mvstore.Tx, ws *core.Writeset) (uint64, error) {
	p := m.p
	if !resp.Committed {
		m.ingest(g, resp.Remote, nil)
		if tx != nil {
			tx.Abort()
		}
		p.addStat(func(st *Stats) { st.CertAborts++ })
		return 0, ErrCertificationAbort
	}
	w := &ownWait{key: waitKey{g, resp.CommitVersion}, tx: tx, ws: ws, ch: make(chan ownTurn, 1)}
	mv := m.topo.Map.MergedVersion(g, resp.CommitVersion)
	var err error
	if m.ingest(g, resp.Remote, w) {
		_, err = m.await(w)
	} else {
		// The response raced the stream: the entry is already in a run,
		// which installs it by writeset.
		if tx != nil {
			tx.Abort()
		}
		err = p.cfg.Store.WaitAnnouncedOr(mv, 30*time.Second, p.stopCh)
		if errors.Is(err, mvstore.ErrWaitInterrupted) {
			err = m.closedErr()
		}
	}
	if err != nil {
		if tx != nil {
			tx.Abort() // a no-op on a handle the commit finished
		}
		return 0, err
	}
	p.addStat(func(st *Stats) { st.Commits++ })
	return mv, nil
}

// resync brings a recovered replica up to the certifier tier. The merger
// replays every group's stream from index 1 (apply drops the actions the
// store already covers), so resync pulls every group once and waits
// until the merge has applied all the pulled streams let it reach: the
// merged version just below the first entry they lack.
func (m *merger) resync() error {
	p := m.p
	if err := p.PullOnce(); err != nil {
		return err
	}
	m.mu.Lock()
	lackG, lack := 0, m.asm.Frontier(0)+1
	for g := 1; g < len(m.topo.Groups); g++ {
		if idx := m.asm.Frontier(g) + 1; idx < lack {
			lackG, lack = g, idx
		}
	}
	m.mu.Unlock()
	target := m.topo.Map.MergedVersion(lackG, lack) - 1
	switch err := p.cfg.Store.WaitAnnouncedOr(target, 30*time.Second, p.stopCh); {
	case errors.Is(err, mvstore.ErrWaitInterrupted):
		return ErrProxyClosed
	case err != nil:
		return fmt.Errorf("proxy: resync stuck below merged version %d: %w", target, err)
	}
	// A Base or Tashkent-MW run is announced before the merger counts it
	// and moves the planning cursor past it; the caller reads both.
	for p.ReplicaVersion() < target {
		select {
		case <-p.stopCh:
			return ErrProxyClosed
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// ingest feeds raw committed entries of group g to the assembler and
// wakes the merger. w, if set, is the client waiting for one of them: it
// is registered in the same critical section as the offers, so the
// merger cannot drain its action as a stranger's first. ingest reports
// whether it registered w — false when the merge had already passed w's
// action.
func (m *merger) ingest(g int, remote []certifier.RemoteWS, w *ownWait) (registered bool) {
	m.mu.Lock()
	for _, r := range remote {
		m.asm.Offer(g, r.Version, r.WSBytes)
	}
	if w != nil && m.asm.MergedVersion() < m.topo.Map.MergedVersion(w.key.g, w.key.idx) {
		m.waiters[w.key] = w
		registered = true
	}
	m.mu.Unlock()
	if len(remote) > 0 {
		p := m.p
		p.mu.Lock()
		p.lastRemote = time.Now()
		p.mu.Unlock()
	}
	if len(remote) > 0 || registered {
		// A registered waiter is a reason for the merger to advance too (it
		// may be parked with nothing else to do).
		m.nudge()
	}
	return registered
}

// nudge wakes the merger goroutine if it is parked.
func (m *merger) nudge() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// loop is the merger goroutine: it drains ready actions from the
// assembler and applies them, run by run, in merged order. When the
// merge stalls it pulls every group at or behind the blocked position —
// and if the blocking group's log is genuinely shorter than the needed
// index, asks its leader to fill (idle partitions must not stall the
// merge).
//
// Two pacing rules keep the merge from becoming the system
// bottleneck. First, the nudge deadline is tracked across wake-ups:
// under steady traffic, wake-ups from other groups' offers arrive
// more often than the nudge interval, and a timer that re-armed on
// every wake would never fire — the merge would then advance only at
// the blocking group's natural commit cadence, which is exactly the
// stall the nudge exists to break. Second, a nudge round that
// ingested new entries re-runs immediately once the merge blocks
// again (paced by the pull RPC itself, not the timer): the merge
// horizon needs entries from every group, and waiting out the nudge
// interval per group would cap the whole replica's apply rate at
// groups-per-interval.
func (m *merger) loop() {
	p := m.p
	stallG := -2 // no stall being tracked
	var stallIdx uint64
	var stallFirst, stallSince time.Time
	hot := false // last nudge round made progress; keep streaming
	for {
		select {
		case <-p.stopCh:
			return
		default:
		}
		// One drain is one run: it ends at the first action a local client
		// waits for — the run's own commit — or where the merge blocks.
		m.mu.Lock()
		var run []partition.Action
		var w *ownWait
		for len(run) < 256 && w == nil {
			act, ok := m.asm.Next()
			if !ok {
				break
			}
			run = append(run, act)
			w = m.takeWaiterLocked(act)
		}
		var blockG int
		var blockIdx uint64
		var motive bool
		if len(run) == 0 {
			blockG, blockIdx = m.asm.Blocking()
			motive = m.asm.Pending() || len(m.waiters) > 0
		}
		m.mu.Unlock()

		if len(run) == 0 {
			// Progress gate: nudges and fills are warranted only while
			// this replica has something to gain — a received entry
			// waiting to merge, or a local client waiting for its own
			// commit's merge position. Without the gate a quiescent
			// cluster would fill forever: the merge is always "blocked"
			// on the index after the last entry, and padding it just
			// moves the block one index up.
			if !motive {
				stallG, hot = -2, false
				select {
				case <-p.stopCh:
					return
				case <-m.wake:
				}
				continue
			}
			now := time.Now()
			if blockG != stallG || blockIdx != stallIdx {
				stallG, stallIdx = blockG, blockIdx
				stallFirst = now
				if !hot {
					stallSince = now
				}
			}
			if wait := mergeStallNudge - now.Sub(stallSince); wait > 0 && !hot {
				select {
				case <-p.stopCh:
					return
				case <-m.wake:
				case <-time.After(wait):
				}
				continue
			}
			hot = m.nudgeLagging(blockG, blockIdx, now.Sub(stallFirst) >= mergeFillPatience)
			stallSince = time.Now() // re-arm: give the pulled data time to land
			continue
		}
		stallG = -2
		if !m.apply(run, w) {
			return // store crashed; the recovery path builds a fresh proxy
		}
	}
}

// nudgeLagging unblocks a stalled merge: every group whose received
// prefix is at or behind the blocked position is pulled forward, in
// parallel — after the blocking group is resolved the merge would
// immediately block on the next-laggiest group at the same position,
// so pulling them one stall interval at a time would serialize the
// whole merge on the nudge timer. A pulled group whose committed log
// is genuinely shorter than the index the merge needs is asked to pad
// itself with fill no-ops — but only if its pull response says it is
// idle (no certifications in flight), or the force flag is set
// because the same position has been blocked past the patience
// window. Filling a busy group would be poison: the no-ops
// group's index, which in turn makes every other group look short, so
// an eager fill cascades into groups padding each other forever.
// Returns whether any pull ingested new entries.
func (m *merger) nudgeLagging(blockG int, blockIdx uint64, fill bool) bool {
	if blockG < 0 {
		return false
	}
	var progressed atomic.Bool
	m.mu.Lock()
	frontiers := make([]uint64, len(m.topo.Groups))
	for g := range frontiers {
		frontiers[g] = m.asm.Frontier(g)
	}
	m.mu.Unlock()
	// An idle group is padded level with the most advanced group, not
	// just to the blocked row: every group must eventually supply an
	// entry at each index up to the leader's frontier anyway, so one
	// fill round (one fsync) covers the whole idle episode instead of
	// one fsync per merged row.
	fillTo := blockIdx
	for _, f := range frontiers {
		if f > fillTo {
			fillTo = f
		}
	}
	fanOut(len(m.topo.Groups), func(g int) {
		if frontiers[g] > blockIdx {
			return // already past the merge horizon
		}
		if m.pullGroup(g, blockIdx, fillTo, fill && g == blockG) {
			progressed.Store(true)
		}
	})
	return progressed.Load()
}

// pullGroup pulls one group up toward needIdx, padding a genuinely
// short group with fill no-ops when its pull response reports it idle
// (or unconditionally when force is set — the patience fallback for a
// group stuck busy under fault injection). Returns whether new
// entries were ingested.
func (m *merger) pullGroup(g int, needIdx, fillTo uint64, force bool) bool {
	frontier := m.replicaVersion(g)
	if needIdx < frontier {
		return false // already received; the merger just has not run yet
	}
	client := m.topo.Groups[g]
	resp, err := client.Pull(certifier.PullRequest{
		Origin: m.p.cfg.ReplicaID, ReplicaVersion: frontier, IncludeOwn: true,
	})
	if err != nil {
		return false
	}
	m.ingest(g, resp.Remote, nil)
	after := m.replicaVersion(g)
	if needIdx < after {
		return after > frontier
	}
	if resp.SystemVersion < needIdx && (!resp.Busy || force) {
		// The group is genuinely short: it has no entry at needIdx and
		// nothing in flight to produce one. Pad it so the merge can
		// pass this position.
		if fillTo < needIdx {
			fillTo = needIdx
		}
		if _, err := client.Fill(fillTo); err != nil {
			return after > frontier
		}
		resp, err = client.Pull(certifier.PullRequest{
			Origin: m.p.cfg.ReplicaID, ReplicaVersion: m.replicaVersion(g), IncludeOwn: true,
		})
		if err == nil {
			m.ingest(g, resp.Remote, nil)
			after = m.replicaVersion(g)
		}
	}
	return after > frontier
}

// takeWaiterLocked consumes the own-commit waiter addressed by act, if
// one is registered. Caller holds m.mu.
func (m *merger) takeWaiterLocked(act partition.Action) *ownWait {
	key := waitKey{act.Group, act.Index}
	if act.GID != 0 {
		key = waitKey{-1, act.GID}
	}
	w := m.waiters[key]
	delete(m.waiters, key)
	return w
}

// apply applies one drained run of the merged stream through applyRun:
// its actions as the remote writesets (an action that installs nothing
// still holds its merged version), ended by the commit of the client
// waiting in w, if any, whom it then answers. The merged stream is the
// replica's ground truth, so a run that fails is retried until it lands,
// from wherever the store has announced by then; only a store crash or
// shutdown stops it, and then w is told why and false returned.
//
// Under Base and Tashkent-MW the merger commits the client's transaction
// itself, so their own commits are serialized; under Tashkent-API it
// hands the ordered commit back to the client (ownTurn.finish) and goes
// on to the next run.
func (m *merger) apply(run []partition.Action, w *ownWait) bool {
	p := m.p
	first, top := run[0].MV, run[len(run)-1].MV
	var own *ownCommit
	if w != nil {
		own = &ownCommit{tx: w.tx, ws: w.ws, cv: top}
		run = run[:len(run)-1]
	}
	answer := func(t ownTurn) {
		if w != nil {
			w.ch <- t
		}
	}
	noWS := &core.Writeset{}
	for {
		// Actions at or below the announced version never reach the run:
		// for a restarted merger replaying every group from index 1 and for
		// a retry, the store holds that state, and re-applying it would
		// take row locks and kill local transactions for nothing.
		announced := p.cfg.Store.AnnouncedVersion()
		remotes := make([]RemoteEntry, 0, len(run))
		for _, a := range run {
			if a.MV <= announced {
				continue
			}
			ws := a.WS
			if ws == nil {
				ws = noWS
			}
			remotes = append(remotes, RemoteEntry{Version: a.MV, WS: ws, Own: a.Origin == p.cfg.ReplicaID})
		}
		finish, err := p.applyRun(max(announced, first-1), remotes, own)
		if err == nil {
			answer(ownTurn{mv: top, finish: finish})
			return true
		}
		if own != nil {
			own.tx = nil // finished by the failed attempt; it lands by writeset
		}
		if errors.Is(err, mvstore.ErrCrashed) {
			answer(ownTurn{err: err})
			return false
		}
		select {
		case <-p.stopCh:
			answer(ownTurn{err: errUnresolved})
			return false
		case <-time.After(time.Millisecond):
		}
	}
}

// errUnresolved is what a client waiting for its commit's merged
// position is told when the proxy shuts down first and the store lives
// on.
var errUnresolved = fmt.Errorf("%w: commit outcome unresolved at shutdown", ErrProxyClosed)

// await blocks a committing client until the merger answers for w, runs
// the part of the commit the answer leaves to it, and returns the merged
// commit version. A waiter the merger has not taken is withdrawn after
// 30 s or when the proxy closes; one it has taken is always answered.
func (m *merger) await(w *ownWait) (uint64, error) {
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	var t ownTurn
	select {
	case t = <-w.ch:
	case <-timeout.C:
		t = m.withdraw(w, errors.New("proxy: merged apply of own commit timed out"))
	case <-m.p.stopCh:
		t = m.withdraw(w, errUnresolved)
	}
	if errors.Is(t.err, errUnresolved) {
		t.err = m.closedErr()
	}
	if t.err == nil && t.finish != nil {
		t.err = t.finish()
	}
	return t.mv, t.err
}

// withdraw takes w out of the waiters with err for its answer — unless
// a run has taken it, whose answer is then on its way.
func (m *merger) withdraw(w *ownWait, err error) ownTurn {
	m.mu.Lock()
	pending := m.waiters[w.key] == w
	if pending {
		delete(m.waiters, w.key)
	}
	m.mu.Unlock()
	if pending {
		return ownTurn{err: err}
	}
	return <-w.ch
}

// closedErr is what a client whose commit the proxy closed under is
// told. The proxy's owner takes the store down with it (Replica.Crash,
// Replica.Close), so the client waits for that and hears the store's
// ErrCrashed — outcome unknown, as for any commit on a replica that went
// down under it — or errUnresolved if the store lives on.
func (m *merger) closedErr() error {
	if err := m.p.cfg.Store.WaitAnnouncedOr(math.MaxUint64, 30*time.Second, nil); errors.Is(err, mvstore.ErrCrashed) {
		return err
	}
	return errUnresolved
}

// commitCross runs two-phase commit in two certifier rounds: a durable
// prepare in every involved group at once, then — all having
// acknowledged — the commit marker to every group at once; replicas
// apply the union of the parts atomically at the first commit marker's
// merged position. Prepare locks never wait (a held item refuses the
// prepare), so no lock order is needed; two transactions that collide
// in two groups may refuse each other, and both then abort and retry.
func (m *merger) commitCross(ctx context.Context, t *Tx, ws *core.Writeset, parts []partition.Part) error {
	p := m.p
	gid := uint64(p.cfg.ReplicaID)<<40 | (gidCounter.Add(1) & (1<<40 - 1))
	involved := make([]int, len(parts))
	for i, part := range parts {
		involved[i] = part.PID
	}

	// ctx is honored through phase 1 only: a cancellation while
	// preparing aborts the whole transaction (the abort decision is
	// delivered by the detached resolver, so no group's locks leak).
	// Once every prepare has acknowledged, the decision is commit and
	// the remaining work completes regardless of ctx.
	resps := make([]certifier.PrepareResponse, len(parts))
	errs := make([]error, len(parts))
	fanOut(len(parts), func(i int) {
		pid := parts[i].PID
		resps[i], errs[i] = m.topo.Groups[pid].PrepareCtx(ctx, certifier.PrepareRequest{
			GID:          gid,
			Origin:       p.cfg.ReplicaID,
			StartVersion: m.topo.Map.GroupVersion(pid, t.start),
			Involved:     involved,
			WSBytes:      parts[i].WS.Encode(nil),
		})
	})
	for i, part := range parts {
		if errs[i] == nil && resps[i].Prepared {
			continue
		}
		// Abort the whole transaction, in every involved group: each was
		// asked, so each may hold a durable prepare (on a transport error
		// it may have landed), and where it was refused the marker is
		// what keeps a duplicated late delivery of it from locking. An
		// abort marker for a never-prepared gid is otherwise a no-op.
		m.resolveDetached(gid, involved, false)
		t.inner.Abort()
		if errs[i] != nil {
			return fmt.Errorf("proxy: prepare in partition %d: %w", part.PID, certError(errs[i]))
		}
		p.addStat(func(st *Stats) { st.CertAborts++; st.CrossPartAborts++ })
		return ErrCertificationAbort
	}

	// Register the waiter before any marker can exist, then resolve.
	w := &ownWait{key: waitKey{-1, gid}, tx: t.inner, ws: ws, ch: make(chan ownTurn, 1)}
	m.mu.Lock()
	m.waiters[w.key] = w
	m.mu.Unlock()
	m.nudge()

	if pending := m.resolveAll(gid, involved, true); len(pending) > 0 {
		// Some group is unreachable; a detached resolver keeps
		// retrying (the prepares are durable — the decision must
		// reach every group or its locks stay held).
		m.resolveDetached(gid, pending, true)
	}

	mv, err := m.await(w)
	if err != nil {
		t.inner.Abort() // a no-op on a handle the commit finished
		return err
	}
	t.commitVersion = mv
	p.addStat(func(st *Stats) { st.Commits++; st.CrossPartCommits++ })
	return nil
}

// resolveAll sends the decision to every group in pids at once and
// returns the groups that did not acknowledge it. A commit's answer
// carries the group's entries from this replica's frontier through the
// marker, which go straight to the assembler: the merge then holds
// everything it needs to reach the first marker without a pull.
func (m *merger) resolveAll(gid uint64, pids []int, commit bool) []int {
	failed := make([]bool, len(pids))
	fanOut(len(pids), func(i int) {
		g := pids[i]
		resp, err := m.topo.Groups[g].Resolve(certifier.ResolveRequest{
			GID: gid, Commit: commit, ReplicaVersion: m.replicaVersion(g),
		})
		if err == nil {
			m.ingest(g, resp.Remote, nil)
		}
		failed[i] = err != nil
	})
	var pending []int
	for i, f := range failed {
		if f {
			pending = append(pending, pids[i])
		}
	}
	return pending
}

// resolveDetached completes the decision protocol in the background:
// it retries until every group has the marker. It touches only
// certifier clients (never the store), so it is safe across a
// simulated replica crash; it stops when the decision landed
// everywhere or the proxy shuts down. On shutdown an unresolved
// decision leaves the prepared groups' locks held, and nothing
// re-resolves it: no code finds an orphaned prepare, so every later
// conflicting certification aborts for good. That costs liveness on
// those items, never safety. The missing termination protocol is open
// item 4 of ROADMAP.md ("Cross-partition commit").
func (m *merger) resolveDetached(gid uint64, pids []int, commit bool) {
	p := m.p
	p.detach(func() {
		backoff := 5 * time.Millisecond
		for pending := pids; ; {
			if pending = m.resolveAll(gid, pending, commit); len(pending) == 0 {
				return
			}
			select {
			case <-p.stopCh:
				return
			case <-time.After(backoff):
			}
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		}
	})
}
