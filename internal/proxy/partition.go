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
// deterministic merged order and feeds it to the dependency scheduler,
// which publishes in that order, so every replica installs the same
// state at the same merged version.
//
// The per-replica response sequencer, local certification and the
// safe-back machinery are not used in partitioned mode: entries are
// addressed by (group, index) and the assembler deduplicates and orders
// them.

// waitKey addresses a single-partition own commit: the entry's group
// and log index.
type waitKey struct {
	g   int
	idx uint64
}

// ownDone is the merger's notification to a waiting own commit.
type ownDone struct {
	mv        uint64
	viaHandle bool // committed through the waiting tx handle
}

// ownWait is a committing client transaction waiting for its entry's
// merged apply position.
type ownWait struct {
	tx *mvstore.Tx
	ws *core.Writeset
	ch chan ownDone
}

// partState is the proxy's partitioned-mode machinery.
type partState struct {
	topo *partition.Topology

	mu            sync.Mutex
	asm           *partition.Assembler
	vector        []uint64 // per-group applied counts, updated after announce
	mergedApplied uint64
	waiters       map[waitKey]*ownWait
	gidWaiters    map[uint64]*ownWait
	// doneIdx/doneGid record own entries the merger applied before the
	// commit path could register a waiter (response raced the stream).
	doneIdx map[waitKey]uint64
	doneGid map[uint64]uint64

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
	n := len(topo.Groups)
	return &partState{
		topo:       topo,
		asm:        partition.NewAssembler(n),
		vector:     make([]uint64, n),
		waiters:    make(map[waitKey]*ownWait),
		gidWaiters: make(map[uint64]*ownWait),
		doneIdx:    make(map[waitKey]uint64),
		doneGid:    make(map[uint64]uint64),
		wake:       make(chan struct{}, 1),
	}
}

// startVec samples the per-group start versions for a new snapshot.
// The vector is updated only after a merged version is announced, so
// the sample taken before Store.Begin is conservative in every
// group's version space — lower starts cause at worst false aborts,
// never missed conflicts (§6.2's conservative labeling, per group).
func (p *Proxy) startVecLocked() []uint64 {
	ps := p.part
	ps.mu.Lock()
	v := append([]uint64(nil), ps.vector...)
	ps.mu.Unlock()
	return v
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

// mergerLoop is the replica's single submitter in partitioned mode: it
// drains ready actions from the assembler and schedules them in merged
// order. When the merge stalls it pulls every group at or behind the
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
		ps.mu.Lock()
		var acts []partition.Action
		for len(acts) < 256 {
			act, ok := ps.asm.Next()
			if !ok {
				break
			}
			acts = append(acts, act)
		}
		var blockG int
		var blockIdx uint64
		if len(acts) == 0 {
			blockG, blockIdx = ps.asm.Blocking()
		}
		ps.mu.Unlock()

		if len(acts) == 0 {
			// Progress gate: nudges and fills are warranted only while
			// this replica has something to gain — a received entry
			// waiting to merge, or a local client waiting for its own
			// commit's merge position. Without the gate a quiescent
			// cluster would fill forever: the merge is always "blocked"
			// on the index after the last entry, and padding it just
			// moves the block one index up.
			ps.mu.Lock()
			motive := ps.asm.Pending() || len(ps.waiters) > 0 || len(ps.gidWaiters) > 0
			ps.mu.Unlock()
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
		if !p.applyActions(acts) {
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

// takeWaiter consumes the own-commit waiter addressed by act, if one
// is registered.
func (p *Proxy) takeWaiter(act partition.Action) *ownWait {
	ps := p.part
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if act.GID != 0 {
		if w, ok := ps.gidWaiters[act.GID]; ok {
			delete(ps.gidWaiters, act.GID)
			return w
		}
		return nil
	}
	if w, ok := ps.waiters[waitKey{act.Group, act.Index}]; ok {
		delete(ps.waiters, waitKey{act.Group, act.Index})
		return w
	}
	return nil
}

// afterApply publishes a merged version: vector and cursor updates
// (strictly after the store announce — Begin samples the vector
// before the snapshot, and updating first would make starts too
// high), plus the done-records for own entries that had no waiter
// yet. Returns a waiter that registered during the apply, which must
// now be notified that the merger installed its writeset.
func (p *Proxy) afterApply(act partition.Action, viaHandle bool) *ownWait {
	ps := p.part
	ps.mu.Lock()
	if act.Index > ps.vector[act.Group] {
		ps.vector[act.Group] = act.Index
	}
	if act.MV > ps.mergedApplied {
		ps.mergedApplied = act.MV
	}
	var late *ownWait
	own := act.WS != nil && act.Origin == p.cfg.ReplicaID
	if own && !viaHandle {
		if act.GID != 0 {
			if w, ok := ps.gidWaiters[act.GID]; ok {
				delete(ps.gidWaiters, act.GID)
				late = w
			} else {
				ps.doneGid[act.GID] = act.MV
			}
		} else {
			key := waitKey{act.Group, act.Index}
			if w, ok := ps.waiters[key]; ok {
				delete(ps.waiters, key)
				late = w
			} else {
				ps.doneIdx[key] = act.MV
			}
		}
		// Unconsumed done-records (commit responses lost in crashes)
		// would otherwise accumulate forever.
		if len(ps.doneIdx) > 8192 {
			ps.doneIdx = make(map[waitKey]uint64)
		}
		if len(ps.doneGid) > 8192 {
			ps.doneGid = make(map[uint64]uint64)
		}
	}
	ps.mu.Unlock()
	p.advanceRV(act.MV)
	return late
}

// applyActions hands a drained run of merged actions to the scheduler:
// each non-empty action becomes one entry (so disjoint merged commits
// install concurrently instead of single-file), runs of empty actions
// coalesce into hollow announce entries, and own commits with a
// registered waiter commit through the waiting handle (applyOwn). The
// per-entry completion callback performs the merger's vector/waiter
// bookkeeping at publication time. Returns false when the store
// crashed.
func (p *Proxy) applyActions(acts []partition.Action) bool {
	var batch []*applyEntry
	mkDone := func(run []partition.Action) func(bool) {
		return func(applied bool) {
			if !applied {
				return // abandoned; resync re-drives the merged stream
			}
			for _, a := range run {
				if late := p.afterApply(a, false); late != nil {
					late.ch <- ownDone{mv: a.MV, viaHandle: false}
				}
				if a.WS != nil && a.Origin != p.cfg.ReplicaID {
					p.addStat(func(st *Stats) { st.RemoteApplied++ })
				}
			}
		}
	}
	var hollowRun []partition.Action // actions of the trailing hollow entry
	for _, act := range acts {
		if w := p.takeWaiter(act); w != nil {
			p.sched.submit(batch)
			batch, hollowRun = nil, nil
			if !p.applyOwn(act, w) {
				return false
			}
			continue
		}
		if act.WS == nil {
			// Coalesce consecutive hollow actions (fill no-ops) into one
			// announce entry; the merged versions are dense, so the run
			// is contiguous.
			if n := len(batch); n > 0 && batch[n-1].ws == nil && batch[n-1].to == act.MV-1 {
				hollowRun = append(hollowRun, act)
				batch[n-1].to = act.MV
				batch[n-1].done = mkDone(hollowRun)
				continue
			}
			hollowRun = []partition.Action{act}
			batch = append(batch, &applyEntry{from: act.MV - 1, to: act.MV, done: mkDone(hollowRun)})
			continue
		}
		hollowRun = nil
		batch = append(batch, &applyEntry{
			from: act.MV - 1, to: act.MV, ws: act.WS, done: mkDone([]partition.Action{act}),
		})
	}
	p.sched.submit(batch)
	return !p.sched.storeDead.Load()
}

// applyMergedRange installs one coalesced writeset covering merged
// versions (from, to], retrying until it lands: the merged stream is
// the replica's ground truth and cannot be skipped. Only a store
// crash stops it.
func (p *Proxy) applyMergedRange(ws *core.Writeset, from, to uint64) bool {
	for {
		err := p.applyBatchWithRecovery(ws, from, to, (*mvstore.Tx).CommitLabeled)
		if err == nil {
			return true
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

// applyOwn commits a waiting client transaction at its merged
// position, through its own handle when possible (no re-execution),
// falling back to apply-by-writeset when the handle was killed. It
// first waits for every previously submitted entry to publish — the
// merger submits in merged order, so once act.MV-1 is announced no
// unpublished pending exists below the commit's range for the handle's
// synchronous labeled commit to announce past and discard. On a store
// crash or shutdown the waiter is released (the outcome resolves at
// recovery) and false returned.
func (p *Proxy) applyOwn(act partition.Action, w *ownWait) bool {
	from, to := act.MV-1, act.MV
	// The merged stream is ground truth: a wait that merely times out
	// is repeated (a resync or superseded drain will move the cursor).
	for {
		err := p.cfg.Store.WaitAnnouncedOr(from, p.cfg.ChunkWaitTimeout, p.stopCh)
		if err == nil {
			break
		}
		if errors.Is(err, mvstore.ErrCrashed) || errors.Is(err, mvstore.ErrWaitInterrupted) {
			w.ch <- ownDone{mv: act.MV, viaHandle: false}
			return false
		}
	}
	cerr := w.tx.CommitLabeled(from, to)
	if cerr != nil {
		if !p.applyMergedRange(w.ws, from, to) {
			w.ch <- ownDone{mv: act.MV, viaHandle: false}
			return false
		}
		p.addStat(func(st *Stats) { st.SoftRecoveries++ })
	}
	p.afterApply(act, true)
	w.ch <- ownDone{mv: act.MV, viaHandle: cerr == nil}
	return true
}

// waitOwn blocks a committing client until the merger reaches its
// entry. Returns the merged commit version.
func (p *Proxy) waitOwn(t *Tx, register func() (uint64, bool, *ownWait)) (uint64, error) {
	mv, done, w := register()
	if done {
		t.inner.Abort() // the merger already installed the writeset
		return mv, nil
	}
	select {
	case d := <-w.ch:
		if !d.viaHandle {
			t.inner.Abort()
		}
		return d.mv, nil
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
		StartVersion:   t.startVec[g],
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
	key := waitKey{g, resp.CommitVersion}
	mv, err := p.waitOwn(t, func() (uint64, bool, *ownWait) {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		if mv, ok := ps.doneIdx[key]; ok {
			delete(ps.doneIdx, key)
			return mv, true, nil
		}
		w := &ownWait{tx: t.inner, ws: ws, ch: make(chan ownDone, 1)}
		ps.waiters[key] = w
		// A registered waiter is a reason for the merger to advance
		// (it may be parked with nothing else to do).
		select {
		case ps.wake <- struct{}{}:
		default:
		}
		return 0, false, w
	})
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
			StartVersion: t.startVec[pid],
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
	w := &ownWait{tx: t.inner, ws: ws, ch: make(chan ownDone, 1)}
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

	mv, err := p.waitOwn(t, func() (uint64, bool, *ownWait) {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		if mv, ok := ps.doneGid[gid]; ok {
			delete(ps.doneGid, gid)
			delete(ps.gidWaiters, gid)
			return mv, true, nil
		}
		return 0, false, w
	})
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
// replays every group's stream from index 1 (the store's labeled-
// commit gate turns already-covered versions into no-ops), so resync
// only has to pull the streams and wait until the merged cursor
// reaches the pre-crash base.
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
		applied := ps.mergedApplied
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
