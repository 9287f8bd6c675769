package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
)

// Partitioned certification (see internal/partition): the proxy talks
// to N certifier groups instead of one. Commits route by partition —
// a single-partition writeset certifies in one round against its
// group; a cross-partition writeset runs the prepare/resolve protocol
// across its groups. All application goes through one merger
// goroutine that interleaves the per-group committed streams into the
// deterministic merged order and applies it run by run through applyRun
// — the policy cfg.Mode picks, the same as behind the classic response
// sequencer — so every replica installs the same state at the same
// merged version.
//
// The per-replica response sequencer, local certification and the
// safe-back machinery are not used in partitioned mode: entries are
// addressed by (group, index), the assembler deduplicates and orders
// them, and the merge is strict round-robin, so an entry's merged
// version and a snapshot's position in each group's version space are
// arithmetic (partition.Map.MergedVersion / GroupVersion), not state.

// waitKey addresses a single-partition own commit: the entry's group
// and log index.
type waitKey struct {
	g   int
	idx uint64
}

// ownWait is a committing client transaction waiting for its entry's
// merged apply position; the merger answers with the merged version it
// committed the transaction at.
type ownWait struct {
	tx *mvstore.Tx
	ws *core.Writeset
	ch chan uint64
}

// partState is the proxy's partitioned-mode machinery.
type partState struct {
	topo *partition.Topology

	mu  sync.Mutex
	asm *partition.Assembler
	// waiters / gidWaiters are taken by the merger in the same critical
	// section that drains their action from the assembler, so an action
	// at or below asm.MergedVersion() has been looked up for good.
	waiters    map[waitKey]*ownWait
	gidWaiters map[uint64]*ownWait

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

func newPartState(topo *partition.Topology) *partState {
	return &partState{
		topo:       topo,
		asm:        partition.NewAssembler(len(topo.Groups)),
		waiters:    make(map[waitKey]*ownWait),
		gidWaiters: make(map[uint64]*ownWait),
		wake:       make(chan struct{}, 1),
	}
}

// ingest feeds raw committed entries of group g to the assembler and
// wakes the merger.
func (p *Proxy) ingest(g int, remote []certifier.RemoteWS) {
	if len(remote) == 0 {
		return
	}
	ps := p.part
	ps.mu.Lock()
	for _, r := range remote {
		ps.asm.Offer(g, r.Version, r.WSBytes)
	}
	ps.mu.Unlock()
	p.mu.Lock()
	p.lastRemote = time.Now()
	p.mu.Unlock()
	select {
	case ps.wake <- struct{}{}:
	default:
	}
}

// fanOut runs fn(0..n-1) concurrently and returns when all have: the
// proxy's one way of talking to several certifier groups at once.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	if n > 0 {
		fn(0)
	}
	wg.Wait()
}

// frontierOf is the highest contiguous log index received from group g
// — what a certify or pull request to g reports so the response carries
// the committed entries above it.
func (ps *partState) frontierOf(g int) uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.asm.Frontier(g)
}

// mergerLoop is the replica's ordering point in partitioned mode: it
// drains ready actions from the assembler and applies them, run by run,
// in merged order. When the merge stalls it pulls every group at or behind the
// blocked position — and if the blocking group's log is genuinely
// shorter than the needed index, asks its leader to fill (idle
// partitions must not stall the merge).
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
func (p *Proxy) mergerLoop() {
	defer p.wg.Done()
	ps := p.part
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
		ps.mu.Lock()
		var run []partition.Action
		var w *ownWait
		for len(run) < 256 && w == nil {
			act, ok := ps.asm.Next()
			if !ok {
				break
			}
			run = append(run, act)
			w = ps.takeWaiterLocked(act)
		}
		var blockG int
		var blockIdx uint64
		var motive bool
		if len(run) == 0 {
			blockG, blockIdx = ps.asm.Blocking()
			motive = ps.asm.Pending() || len(ps.waiters) > 0 || len(ps.gidWaiters) > 0
		}
		ps.mu.Unlock()

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
				case <-ps.wake:
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
				case <-ps.wake:
				case <-time.After(wait):
				}
				continue
			}
			hot = p.nudgeLagging(blockG, blockIdx, now.Sub(stallFirst) >= mergeFillPatience)
			stallSince = time.Now() // re-arm: give the pulled data time to land
			continue
		}
		stallG = -2
		if !p.applyMerged(run, w) {
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
func (p *Proxy) nudgeLagging(blockG int, blockIdx uint64, fill bool) bool {
	ps := p.part
	if blockG < 0 {
		return false
	}
	progressed := make([]bool, len(ps.topo.Groups))
	ps.mu.Lock()
	frontiers := make([]uint64, len(ps.topo.Groups))
	for g := range frontiers {
		frontiers[g] = ps.asm.Frontier(g)
	}
	ps.mu.Unlock()
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
	fanOut(len(ps.topo.Groups), func(g int) {
		if frontiers[g] > blockIdx {
			return // already past the merge horizon
		}
		progressed[g] = p.pullGroup(g, blockIdx, fillTo, fill && g == blockG)
	})
	for _, ok := range progressed {
		if ok {
			return true
		}
	}
	return false
}

// pullGroup pulls one group up toward needIdx, padding a genuinely
// short group with fill no-ops when its pull response reports it idle
// (or unconditionally when force is set — the patience fallback for a
// group stuck busy under fault injection). Returns whether new
// entries were ingested.
func (p *Proxy) pullGroup(g int, needIdx, fillTo uint64, force bool) bool {
	ps := p.part
	frontier := ps.frontierOf(g)
	if needIdx < frontier {
		return false // already received; the merger just has not run yet
	}
	client := ps.topo.Groups[g]
	resp, err := client.Pull(certifier.PullRequest{
		Origin: p.cfg.ReplicaID, ReplicaVersion: frontier, IncludeOwn: true,
	})
	if err != nil {
		return false
	}
	p.ingest(g, resp.Remote)
	after := ps.frontierOf(g)
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
			Origin: p.cfg.ReplicaID, ReplicaVersion: ps.frontierOf(g), IncludeOwn: true,
		})
		if err == nil {
			p.ingest(g, resp.Remote)
			after = ps.frontierOf(g)
		}
	}
	return after > frontier
}

// takeWaiterLocked consumes the own-commit waiter addressed by act, if
// one is registered. Caller holds ps.mu.
func (ps *partState) takeWaiterLocked(act partition.Action) *ownWait {
	if act.GID != 0 {
		w := ps.gidWaiters[act.GID]
		delete(ps.gidWaiters, act.GID)
		return w
	}
	key := waitKey{act.Group, act.Index}
	w := ps.waiters[key]
	delete(ps.waiters, key)
	return w
}

// applyMerged applies one drained run of the merged stream through
// applyRun: its actions as the remote writesets (an action that
// installs nothing still holds its merged version), ended by the commit
// of the client waiting in w, if any. The merged stream is the replica's
// ground truth, so a run that fails is retried until it lands, from
// wherever the store has announced by then; only a store crash or
// shutdown stops it, and then w is released (the outcome resolves at
// recovery) and false returned.
//
// The merger blocks in the local commit — own commits are serialized,
// and no later run is scheduled before this one's commit has published.
func (p *Proxy) applyMerged(run []partition.Action, w *ownWait) bool {
	first, top := run[0].MV, run[len(run)-1].MV
	var own *ownCommit
	if w != nil {
		own = &ownCommit{tx: w.tx, ws: w.ws, cv: top}
		run = run[:len(run)-1]
		defer func() { w.ch <- top }()
	}
	noWS := &core.Writeset{}
	for {
		// Actions at or below the announced version never reach the run —
		// decodeRemotes' filter, for a restarted merger replaying every
		// group from index 1 and for a retry: the store holds that state,
		// and re-applying it would take row locks and kill local
		// transactions for nothing.
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
			remotes = append(remotes, RemoteEntry{Version: a.MV, WS: ws})
		}
		err := p.applyRun(max(announced, first-1), remotes, own, func() {})
		if err == nil {
			return true
		}
		if own != nil {
			own.tx = nil // finished by the failed attempt; it lands by writeset
		}
		if errors.Is(err, mvstore.ErrCrashed) {
			return false
		}
		select {
		case <-p.stopCh:
			return false
		case <-time.After(time.Millisecond):
		}
	}
}

// awaitMerged blocks a committing client until the merger has committed
// its transaction, and returns the merged commit version.
func (p *Proxy) awaitMerged(w *ownWait) (uint64, error) {
	select {
	case mv := <-w.ch:
		return mv, nil
	case <-p.stopCh:
		return 0, fmt.Errorf("%w: commit outcome unresolved at shutdown", ErrProxyClosed)
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("proxy: merged apply of own commit timed out")
	}
}

// commitSinglePartition is the fast path: one certification round
// against the owning group, then wait for the entry's merged apply.
// ctx bounds the certification round trip; a cancellation mid-certify
// leaves the outcome unknown to the caller, and the merger installs
// the writeset from the group's stream if it did commit (the entry is
// addressed by (group, index), so no sequence hole results).
func (p *Proxy) commitSinglePartition(ctx context.Context, t *Tx, ws *core.Writeset, g int) error {
	ps := p.part
	resp, err := ps.topo.Groups[g].CertifyCtx(ctx, certifier.Request{
		Origin:         p.cfg.ReplicaID,
		StartVersion:   ps.topo.Map.GroupVersion(g, t.start),
		ReplicaVersion: ps.frontierOf(g),
		WSBytes:        ws.Encode(nil),
		Deadline:       deadlineNano(ctx),
	})
	if err != nil {
		t.inner.Abort()
		return certError(err)
	}
	p.ingest(g, resp.Remote)
	if !resp.Committed {
		t.inner.Abort()
		p.addStat(func(st *Stats) { st.CertAborts++ })
		return ErrCertificationAbort
	}
	// The merger takes a waiter as it drains the waiter's action, so the
	// drain cursor says which of the two got there first.
	mv := ps.topo.Map.MergedVersion(g, resp.CommitVersion)
	var w *ownWait
	ps.mu.Lock()
	if ps.asm.MergedVersion() < mv {
		w = &ownWait{tx: t.inner, ws: ws, ch: make(chan uint64, 1)}
		ps.waiters[waitKey{g, resp.CommitVersion}] = w
	}
	ps.mu.Unlock()
	if w != nil {
		// A registered waiter is a reason for the merger to advance (it
		// may be parked with nothing else to do).
		select {
		case ps.wake <- struct{}{}:
		default:
		}
		_, err = p.awaitMerged(w)
	} else {
		// The response raced the stream: the entry is already in a run,
		// which installs it by writeset.
		t.inner.Abort()
		err = p.cfg.Store.WaitAnnouncedOr(mv, 30*time.Second, p.stopCh)
		if errors.Is(err, mvstore.ErrWaitInterrupted) {
			err = fmt.Errorf("%w: commit outcome unresolved at shutdown", ErrProxyClosed)
		}
	}
	if err != nil {
		return err
	}
	t.commitVersion = mv
	p.addStat(func(st *Stats) { st.Commits++ })
	return nil
}

// commitCrossPartition runs two-phase commit in two certifier rounds:
// a durable prepare in every involved group at once, then — all having
// acknowledged — the commit marker to every group at once; replicas
// apply the union of the parts atomically at the first commit marker's
// merged position. Prepare locks never wait (a held item refuses the
// prepare), so no lock order is needed; two transactions that collide
// in two groups may refuse each other, and both then abort and retry.
func (p *Proxy) commitCrossPartition(ctx context.Context, t *Tx, ws *core.Writeset, parts []partition.Part) error {
	ps := p.part
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
		resps[i], errs[i] = ps.topo.Groups[pid].PrepareCtx(ctx, certifier.PrepareRequest{
			GID:          gid,
			Origin:       p.cfg.ReplicaID,
			StartVersion: ps.topo.Map.GroupVersion(pid, t.start),
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
		p.resolveDetached(gid, involved, false)
		t.inner.Abort()
		if errs[i] != nil {
			return fmt.Errorf("proxy: prepare in partition %d: %w", part.PID, certError(errs[i]))
		}
		p.addStat(func(st *Stats) { st.CertAborts++; st.CrossPartAborts++ })
		return ErrCertificationAbort
	}

	// Register the waiter before any marker can exist, then resolve.
	w := &ownWait{tx: t.inner, ws: ws, ch: make(chan uint64, 1)}
	ps.mu.Lock()
	ps.gidWaiters[gid] = w
	ps.mu.Unlock()
	select {
	case ps.wake <- struct{}{}:
	default:
	}

	if pending := p.resolveAll(gid, involved, true); len(pending) > 0 {
		// Some group is unreachable; a detached resolver keeps
		// retrying (the prepares are durable — the decision must
		// reach every group or its locks stay held).
		p.resolveDetached(gid, pending, true)
	}

	mv, err := p.awaitMerged(w)
	if err != nil {
		ps.mu.Lock()
		delete(ps.gidWaiters, gid)
		ps.mu.Unlock()
		return err
	}
	t.commitVersion = mv
	p.addStat(func(st *Stats) { st.Commits++; st.CrossPartCommits++ })
	return nil
}

// resolveAll sends the decision to every group in pids at once and
// returns the groups that did not acknowledge it.
func (p *Proxy) resolveAll(gid uint64, pids []int, commit bool) []int {
	failed := make([]bool, len(pids))
	fanOut(len(pids), func(i int) {
		_, err := p.part.topo.Groups[pids[i]].Resolve(certifier.ResolveRequest{GID: gid, Commit: commit})
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
// decision leaves the prepared groups' locks held — later conflicting
// certifications abort until a restarted coordinator re-resolves,
// which is legal (aborts, never a safety violation).
func (p *Proxy) resolveDetached(gid uint64, pids []int, commit bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		backoff := 5 * time.Millisecond
		for pending := pids; ; {
			if pending = p.resolveAll(gid, pending, commit); len(pending) == 0 {
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
	}()
}

// pullOncePartitioned fetches every group's stream forward once, all
// groups at the same time.
func (p *Proxy) pullOncePartitioned() error {
	ps := p.part
	errs := make([]error, len(ps.topo.Groups))
	fanOut(len(ps.topo.Groups), func(g int) {
		resp, err := ps.topo.Groups[g].Pull(certifier.PullRequest{
			Origin: p.cfg.ReplicaID, ReplicaVersion: ps.frontierOf(g), IncludeOwn: true,
		})
		if err != nil {
			errs[g] = err
			return
		}
		p.ingest(g, resp.Remote)
	})
	p.addStat(func(st *Stats) { st.StalenessPulls++ })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resyncPartitioned brings a recovered replica back: the merger
// replays every group's stream from index 1 (applyMerged drops the
// actions the store already covers), so resync only has to pull the
// streams and wait until the merge has drained through the pre-crash
// base.
func (p *Proxy) resyncPartitioned() error {
	p.addStat(func(st *Stats) { st.Resyncs++ })
	p.cfg.Store.CancelPendings() // see Resync
	base := p.cfg.Store.AnnouncedVersion()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := p.pullOncePartitioned(); err != nil {
			return err
		}
		ps := p.part
		ps.mu.Lock()
		applied := ps.asm.MergedVersion()
		ps.mu.Unlock()
		if applied >= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("proxy: partitioned resync stuck at merged version %d of %d", applied, base)
		}
		select {
		case <-p.stopCh:
			return ErrProxyClosed
		case <-time.After(time.Millisecond):
		}
	}
}
