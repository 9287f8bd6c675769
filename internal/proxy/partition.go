package proxy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
)

// The ordering point (see internal/partition): the proxy talks to the
// certifier groups of its topology — one in the classic system. A commit
// sends one request to each group its writeset touches (merger.commit):
// one group's answer is the decision, and several groups' answers are
// votes, resolved by decision markers off the client's path. All
// application goes through one merger goroutine that interleaves the
// per-group committed streams into the deterministic merged order and
// applies it run by run through applyRun — the policy cfg.Mode picks — so
// every replica installs the same state at the same merged version.
//
// Entries are addressed by (group, index), the assembler deduplicates
// and orders them, and the merge is strict round-robin, so an entry's
// merged version and a snapshot's position in each group's version space
// are arithmetic (partition.Map.MergedVersion / GroupVersion), not state;
// with one group both are the identity. A commit's answer carries its
// group's entries through the committed one, so the merge holds the
// client's own entry as soon as the answer is in.

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
// applied at its union position (partition.Action), which can come
// before the merged position of its commit marker in the group that
// certifies a local writeset over it. The replica's window (start, now]
// and that group's window (GroupVersion(g, start), head] then disagree
// on what the snapshot could have seen.
func (m *merger) localCert() bool {
	return len(m.topo.Groups) == 1
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
	return nil
}

// ingest feeds raw committed entries of group g to the assembler and
// wakes the merger. w, if set, is the client waiting for an action: it
// is registered in the same critical section as the offers, so the
// merger cannot drain its action as a stranger's first. ingest reports
// whether it registered w, and if the merge had already passed w's
// action instead, the merged version the action took.
func (m *merger) ingest(g int, remote []certifier.RemoteWS, w *ownWait) (registered bool, mv uint64) {
	m.mu.Lock()
	for _, r := range remote {
		m.asm.Offer(g, r.Version, r.WSBytes)
	}
	if w != nil {
		var passed bool
		if mv, passed = m.mergedLocked(w.key); !passed {
			m.waiters[w.key] = w
			registered = true
		}
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
	return registered, mv
}

// mergedLocked reports whether the merge has emitted the action k
// addresses, and at which merged version: an entry's is arithmetic, a
// cross-partition union's the assembler's record of it. Caller holds
// m.mu.
func (m *merger) mergedLocked(k waitKey) (mv uint64, passed bool) {
	if k.g < 0 {
		return m.asm.Applied(k.idx)
	}
	mv = m.topo.Map.MergedVersion(k.g, k.idx)
	return mv, m.asm.MergedVersion() >= mv
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
	resp, err := client.Pull(certifier.PullRequest{ReplicaVersion: frontier})
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
		resp, err = client.Pull(certifier.PullRequest{ReplicaVersion: m.replicaVersion(g)})
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
// Under Base and Tashkent-MW the merger installs the run's entries and
// commits the client's transaction itself, each after the one before it
// has published, so their own commits are serialized; under Tashkent-API
// it submits the run to the scheduler's workers, hands the local commit
// back to the client (ownTurn.finish) and goes on to the next run.
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
// Either part may end unresolved at shutdown; closedErr then says what
// the client is told.
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
	if t.err == nil && t.finish != nil {
		t.err = t.finish()
	}
	if errors.Is(t.err, errUnresolved) {
		t.err = m.closedErr(w.tx)
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

// awaitRaced waits for a commit whose action the merge took before the
// client's waiter was registered: a run has it, and installs it by
// writeset at merged version mv. The client's handle tx is given up.
func (m *merger) awaitRaced(mv uint64, tx *mvstore.Tx) error {
	if tx != nil {
		tx.Abort()
	}
	err := m.p.cfg.Store.WaitAnnouncedOr(mv, 30*time.Second, m.p.stopCh)
	if errors.Is(err, mvstore.ErrWaitInterrupted) {
		err = m.closedErr(tx)
	}
	return err
}

// closedErr is what a client whose commit the proxy closed under is
// told; tx is its handle. The proxy's owner takes the store down with
// it (Replica.Crash, Replica.Close), so the client waits for that and
// hears the store's ErrCrashed — outcome unknown, as for any commit on a
// replica that went down under it — or errUnresolved if the store lives
// on. A detached commit round (tx nil: its client gave up) has nobody to
// tell and is told errUnresolved at once. It runs under the proxy's
// wait group, and the owner takes the store down only after Close has
// waited for that group.
func (m *merger) closedErr(tx *mvstore.Tx) error {
	if tx == nil {
		return errUnresolved
	}
	if err := m.p.cfg.Store.WaitAnnouncedOr(math.MaxUint64, 30*time.Second, nil); errors.Is(err, mvstore.ErrCrashed) {
		return err
	}
	return errUnresolved
}

// vote is what a coordinator knows of one group's vote for its gid: the
// first record the group's log holds for it (see certifier.Engine.Vote).
// A one-group commit's answer is its decision, read the same way.
type vote uint8

const (
	voteUnknown vote = iota // no answer yet
	voteYes                 // a commit, or a prepare
	voteNo                  // a refusal, or an abort marker: a refused prepare or a veto
)

// answer is what the coordinator holds of one group's answer to its
// commit request.
type answer struct {
	vote   vote
	index  uint64               // the log index the answer stands on
	remote []certifier.RemoteWS // the entries it shipped, until ingested
	err    error                // why the request failed, if it did
}

// decided reports whether answers fix the outcome, and which one it is:
// commit needs every yes, and a single no aborts.
func decided(answers []answer) (commit, ok bool) {
	ok = true
	for _, a := range answers {
		switch a.vote {
		case voteNo:
			return false, true
		case voteUnknown:
			ok = false
		}
	}
	return ok, ok
}

// round is one commit's requests to the groups its writeset's parts
// touch, and their answers. A cross-partition round has a gid; a
// one-group round keeps its group and answer inline.
type round struct {
	parts    []partition.Part
	pids     []int // the parts' partition ids
	answers  []answer
	gid      uint64 // 0: one group
	fillTo   uint64 // a cross-partition round's FillTo (certifier.Request)
	start    uint64 // the transaction's snapshot, a merged version
	deadline int64  // the caller's deadline in UnixNano (0 = none)

	pid    [1]int
	answer [1]answer
}

// newRound is the round that commits the parts of a writeset whose
// snapshot is start.
func (m *merger) newRound(parts []partition.Part, start uint64) *round {
	r := &round{parts: parts, start: start}
	if len(parts) == 1 {
		r.pid[0] = parts[0].PID
		r.pids, r.answers = r.pid[:], r.answer[:]
		return r
	}
	r.gid = uint64(m.p.cfg.ReplicaID)<<40 | (gidCounter.Add(1) & (1<<40 - 1))
	r.pids, r.answers = make([]int, len(parts)), make([]answer, len(parts))
	for i, part := range parts {
		r.pids[i] = part.PID
	}
	for g := range m.topo.Groups {
		r.fillTo = max(r.fillTo, m.replicaVersion(g))
	}
	return r
}

// certifyGrace is how far past the caller's deadline a commit's requests
// keep trying to learn the real decision after the caller has been
// answered with its context's error.
const certifyGrace = 500 * time.Millisecond

// commit commits t, whose writeset ws splits into parts, in one durable
// round: one commit request (certifier.Request) to every group the parts
// touch, all at once. With one part the answer is the decision. With
// several each answer is the group's durable vote, and every replica's
// merge applies the union of the parts where the last yes merges
// (partition.Action), so once all the votes are yes the transaction is
// committed. Either way the answers ship what the merge needs to reach
// the commit, and the client waits only for its own merge to get there.
// A prepare's locks never wait (a held item refuses it), so the groups
// need no order; two transactions that collide in two groups may refuse
// each other, and both abort and retry.
//
// The requests run on a context the caller's cancel cannot kill, bounded
// by the caller's deadline plus certifyGrace: a decision may exist, and
// the merged stream needs it. A caller that gives up hears ctx.Err() at
// once, and the round finishes detached, without the client's handle;
// the caller must treat the outcome as unknown.
func (m *merger) commit(ctx context.Context, t *Tx, ws *core.Writeset, parts []partition.Part) error {
	r := m.newRound(parts, t.SnapshotVersion())
	d, bounded := ctx.Deadline()
	if bounded {
		r.deadline = d.UnixNano()
	}
	if ctx.Done() == nil {
		m.run(ctx, r)
	} else {
		callCtx, cancel := context.WithoutCancel(ctx), context.CancelFunc(func() {})
		if bounded {
			callCtx, cancel = context.WithDeadline(callCtx, d.Add(certifyGrace))
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer cancel()
			m.run(callCtx, r)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			t.inner.Abort()
			m.p.detach(func() {
				<-done
				m.settle(r, nil, ws)
			})
			return ctx.Err()
		}
	}
	mv, err := m.settle(r, t.inner, ws)
	if err == nil {
		t.commitVersion = mv
	}
	return err
}

// run sends r's requests and records the answers. A cross-partition round
// then vetoes every group whose answer is missing — a transport error, a
// shed, an expired deadline: the veto casts a no unless the group already
// voted, and then returns that vote.
func (m *merger) run(ctx context.Context, r *round) {
	if r.gid == 0 {
		m.ask(ctx, r, 0)
		return
	}
	fanOut(len(r.pids), func(i int) { m.ask(ctx, r, i) })
	if _, ok := decided(r.answers); !ok {
		m.vetoAll(ctx, r.gid, r.pids, r.answers)
	}
}

// ask sends r's request to its i-th group and records the answer.
func (m *merger) ask(ctx context.Context, r *round, i int) {
	pid := r.pids[i]
	req := certifier.Request{
		GID:            r.gid,
		Origin:         m.p.cfg.ReplicaID,
		StartVersion:   m.topo.Map.GroupVersion(pid, r.start),
		WSBytes:        r.parts[i].WS.Encode(nil),
		ReplicaVersion: m.replicaVersion(pid),
		FillTo:         r.fillTo,
		Deadline:       r.deadline,
	}
	if r.gid != 0 {
		req.Involved = r.pids
	}
	resp, err := m.topo.Groups[pid].CertifyCtx(ctx, req)
	a := &r.answers[i]
	switch {
	case err != nil:
		a.err = err
	case resp.Yes:
		a.vote, a.index, a.remote = voteYes, resp.Index, resp.Remote
	default:
		a.vote, a.remote = voteNo, resp.Remote
	}
}

// settle turns r's answers into the commit's outcome. tx is the client's
// handle, nil when the client gave up: a commit is then installed by
// writeset at its merged position, and a failure has nobody to tell. A
// cross-partition round hands its decision to resolveDetached. The
// client hears ErrCertificationAbort only if some group refused, and an
// error if a request failed and no group refused: a vote may then be
// unknown, and the detached resolver learns it and drives the outcome to
// every group.
func (m *merger) settle(r *round, tx *mvstore.Tx, ws *core.Writeset) (uint64, error) {
	p := m.p
	cross := r.gid != 0
	if commit, _ := decided(r.answers); !commit {
		if tx != nil {
			tx.Abort()
		}
		m.ingestAnswers(r.pids, r.answers, nil) // a refusal ships what is committed
		err := ErrCertificationAbort
		// A group that refused answered its request; a veto's no stands
		// where the request failed.
		if slices.ContainsFunc(r.answers, func(a answer) bool { return a.vote == voteNo && a.err == nil }) {
			p.addStat(func(st *Stats) {
				st.CertAborts++
				if cross {
					st.CrossPartAborts++
				}
			})
		} else {
			i := slices.IndexFunc(r.answers, func(a answer) bool { return a.err != nil })
			err = fmt.Errorf("proxy: partition %d: %w", r.pids[i], certError(r.answers[i].err))
		}
		if cross {
			m.resolveDetached(r.gid, r.pids, r.answers)
		}
		return 0, err
	}

	// The waiter is registered in the critical section that offers the
	// first group's entries: a pull may have brought the commit to the
	// merge before the answers did, and for a cross-partition commit then
	// the union has already applied and no marker exists yet to retire its
	// record.
	key := waitKey{r.pids[0], r.answers[0].index}
	if cross {
		key = waitKey{-1, r.gid}
	}
	w := &ownWait{key: key, tx: tx, ws: ws, ch: make(chan ownTurn, 1)}
	// A union's merged version is read before the markers can retire it.
	registered, mv := m.ingestAnswers(r.pids, r.answers, w)
	if cross {
		m.resolveDetached(r.gid, r.pids, r.answers)
	}
	var err error
	if registered {
		mv, err = m.await(w)
	} else {
		err = m.awaitRaced(mv, tx)
	}
	if err != nil {
		if tx != nil {
			tx.Abort() // a no-op on a handle the commit finished
		}
		return 0, err
	}
	p.addStat(func(st *Stats) {
		st.Commits++
		if cross {
			st.CrossPartCommits++
		}
	})
	return mv, nil
}

// ingestAnswers feeds the entries the answers shipped to the assembler
// and drops them from the answers. w, if set, goes with the first
// group's entries, and ingestAnswers reports what ingest did with it.
func (m *merger) ingestAnswers(pids []int, answers []answer, w *ownWait) (registered bool, mv uint64) {
	for i := range answers {
		if i == 0 {
			registered, mv = m.ingest(pids[i], answers[i].remote, w)
		} else {
			m.ingest(pids[i], answers[i].remote, nil)
		}
		answers[i].remote = nil
	}
	return registered, mv
}

// vetoAll vetoes, at once, every group of pids whose vote is unknown and
// records what each answer says; a yes's entries land in its answer. A
// group whose veto fails stays unknown.
func (m *merger) vetoAll(ctx context.Context, gid uint64, pids []int, answers []answer) {
	fanOut(len(pids), func(i int) {
		a := &answers[i]
		if a.vote != voteUnknown {
			return
		}
		g := pids[i]
		resp, err := m.topo.Groups[g].ResolveCtx(ctx, certifier.ResolveRequest{
			GID: gid, Veto: true, ReplicaVersion: m.replicaVersion(g),
		})
		switch {
		case err != nil:
		case resp.Prepared:
			a.vote, a.index, a.remote = voteYes, resp.Index, resp.Remote
		default:
			a.vote = voteNo
		}
	})
}

// resolveAll sends the decision to every group in pids at once and
// returns the groups that did not acknowledge it. A commit's answer
// carries the group's entries from this replica's frontier through the
// marker, which go straight to the assembler.
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

// resolveDetached drives a cross-partition transaction's outcome to its
// groups (pids, with what the coordinator knows of their answers, which
// it takes over) in the background, off the client's path. Unless some
// group voted no, it first vetoes every group whose vote is unknown until
// each has answered. Then, if every vote is yes, it sends the commit
// markers to every group, and otherwise an abort marker to each group
// that did not vote no: one that did holds its abort marker already, and
// one whose answer is missing may hold a prepare. Markers release the
// groups' locks: a commit's also publishes the items to later
// certifications. No client waits on a marker, so a group does not count
// it as a request or an echo; it paces the group's next batch instead,
// since a marker follows the last group's answer (see the certifier's
// gatherBatch). Each round retries every pending group at once. It touches only certifier clients (never
// the store), so it is safe across a simulated replica crash; it stops
// when the decision landed everywhere or the proxy shuts down. On
// shutdown an undelivered decision leaves prepared groups' locks held,
// and nothing re-resolves it: no code finds an orphaned prepare, so every
// later conflicting certification aborts for good. That costs liveness on
// those items, never safety. The missing termination protocol is open
// item 4 of ROADMAP.md ("Cross-partition commit").
func (m *merger) resolveDetached(gid uint64, pids []int, answers []answer) {
	p := m.p
	p.detach(func() {
		backoff := 5 * time.Millisecond
		retry := func() bool {
			select {
			case <-p.stopCh:
				return false
			case <-time.After(backoff):
			}
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
			return true
		}
		commit, known := decided(answers)
		for !known {
			m.vetoAll(context.Background(), gid, pids, answers)
			m.ingestAnswers(pids, answers, nil)
			if commit, known = decided(answers); !known && !retry() {
				return
			}
		}
		var pending []int
		for i, g := range pids {
			if commit || answers[i].vote != voteNo {
				pending = append(pending, g)
			}
		}
		for len(pending) > 0 {
			if pending = m.resolveAll(gid, pending, commit); len(pending) > 0 && !retry() {
				return
			}
		}
	})
}
