// Package proxy implements the transparent middleware proxy that sits
// in front of each database replica (paper §6.2): it intercepts BEGIN
// and COMMIT, tracks the replica version, invokes certification, and
// applies remote writesets — in one of three commit strategies:
//
//   - Base: ordering in the middleware, durability in the database.
//     Remote-writeset batches and local commits are submitted
//     *serially*, each paying its own synchronous WAL flush — the
//     scalability bottleneck the paper identifies.
//   - Tashkent-MW: same serial submission, but the database runs with
//     synchronous writes disabled; durability lives in the certifier's
//     group-committed log. Replica commits are in-memory operations.
//   - Tashkent-API: the database keeps durability but the proxy uses
//     the extended COMMIT <seq> API, submitting remote batches and
//     local commits concurrently so the database groups their commit
//     records into shared fsyncs while announcing them in the exact
//     global order. A remote writeset waits for an earlier commit on
//     its rows, local or remote, in the applier's dependency window
//     (§5.2.1's artificial conflicts).
//
// The three are one pipeline; Proxy.applyRun picks the two policies in
// which they differ, behind one ordering point, the merger
// (partition.go), at any certifier group count.
//
// The proxy also implements the paper's optimizations: local
// certification (§6.2), eager pre-certification for deadlock avoidance
// (§8.2), staleness bounding (§6.2), and soft recovery (§8.1). A replica
// learns remote writesets from its own certification answers; otherwise
// the merger pulls them, and it is the replica's only puller: for a
// stalled merge, for a causal wait (WaitVersion), and when the replica
// has received nothing for StalenessBound.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
)

// Mode selects the commit strategy.
type Mode int

// The three systems compared in the paper.
const (
	// Base separates ordering (middleware) from durability (database).
	Base Mode = iota + 1
	// TashkentMW unites them in the middleware (certifier log).
	TashkentMW
	// TashkentAPI unites them in the database (ordered commits).
	TashkentAPI
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Base:
		return "base"
	case TashkentMW:
		return "tashMW"
	case TashkentAPI:
		return "tashAPI"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrCertificationAbort is returned to the client when certification
// (global or local) found a write-write conflict; the client may retry
// the whole transaction.
var ErrCertificationAbort = errors.New("proxy: transaction aborted by certification")

// ErrProxyClosed reports use of a closed proxy.
var ErrProxyClosed = errors.New("proxy: closed")

// ErrReadOnlyDegraded reports that the certifier tier is unreachable
// (its group breaker is open) and the replica has degraded to
// read-only service: snapshot reads keep being served at the last
// merged version, while update commits fail fast with this error
// instead of hanging for the certifier client's full retry budget.
// Errors carrying it also match certifier.ErrDegraded.
var ErrReadOnlyDegraded = errors.New("proxy: certifier unreachable, serving reads only at last merged version")

// certError wraps a certification failure, promoting a degraded
// certifier group into the typed read-only-degradation error.
func certError(err error) error {
	if errors.Is(err, certifier.ErrDegraded) {
		return fmt.Errorf("%w: %w", ErrReadOnlyDegraded, err)
	}
	return fmt.Errorf("proxy: certification: %w", err)
}

// Stats is a snapshot of proxy activity.
type Stats struct {
	Commits             int64
	ReadOnlyCommits     int64
	CertAborts          int64 // certifier-decided aborts
	LocalCertAborts     int64 // aborts decided locally without a round trip
	RemoteApplied       int64 // remote writesets applied
	RemoteChunks        int64 // grouped remote transactions submitted
	ArtificialConflicts int64 // always 0 (a conflict waits in the dependency window); read by bench/
	EagerKills          int64 // local transactions killed to admit remote writesets
	SoftRecoveries      int64 // §8.1 soft-recovery rounds
	Resyncs             int64 // full pull-based resynchronizations
	StalenessPulls      int64 // pull rounds for causal waits, the staleness bound and PullOnce
	CrossPartCommits    int64 // cross-partition transactions committed (partitioned mode)
	CrossPartAborts     int64 // cross-partition transactions aborted in prepare
}

// Config parameterizes a proxy.
type Config struct {
	Mode      Mode
	ReplicaID int
	Store     *mvstore.Store
	// Parts is the certifier tier (see internal/partition): the partition
	// map and one failover client per certifier group. The classic system
	// is one group. Required.
	Parts *partition.Topology
	// StalenessBound, if nonzero, makes the merger pull remote writesets
	// once it has been idle, having received none, for this long.
	StalenessBound time.Duration
	// ChunkWaitTimeout bounds how long an install waits for the version
	// it follows before it is given up (0 = 5 s).
	ChunkWaitTimeout time.Duration
	// ApplyWorkers is the pool size of the dependency-tracked applier
	// (see schedule.go), 0 = 8: labeled remote writesets are
	// conflict-analyzed per store stripe, installed concurrently by
	// this many workers (one installs them one at a time) and published
	// strictly in global order. Under Tashkent-API the pool installs every chunk;
	// under Base and Tashkent-MW the merger installs each entry itself
	// (see applyRun), and the pool only retries a failed attempt.
	ApplyWorkers int
}

// Proxy is the per-replica replication middleware.
type Proxy struct {
	cfg  Config
	topo *partition.Topology

	mu        sync.Mutex
	rvPlanned uint64 // highest global version scheduled for application
	stats     Stats
	closed    bool

	// m is the ordering point: where certifier responses take their
	// place in the replica's global order.
	m *merger

	// proxyLog: recent remote writesets for local certification, plus
	// the items of remote writesets currently mid-application (for
	// eager pre-certification of local writes).
	logMu         sync.Mutex
	recent        []remoteRecord
	inFlightItems map[core.ItemID]inFlightMark
	// applierTxs are the store transaction ids of in-flight remote/
	// catch-up appliers. Eager pre-certification must never pick one
	// as a kill victim: appliers install *committed* global state, and
	// two overlapping appliers (a pending chunk and a resync) killing
	// each other livelock until both exhaust their retries and drop
	// committed writesets. Appliers serialize on row locks and the
	// store's labeled-commit gate instead.
	applierTxs map[uint64]struct{}

	// sched is the dependency scheduler: every run of the merged stream
	// is applied as entries of its window, in every mode.
	sched *applyScheduler

	// life ends when Close begins.
	life context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

type remoteRecord struct {
	version uint64
	items   []core.ItemID
}

// maxRecent is how many records of the proxy log local certification is
// guaranteed to see; the log is cut back to it whenever it reaches
// twice that (see recordRemotes).
const maxRecent = 4096

// defaultApplyWorkers is the scheduler's pool size when
// Config.ApplyWorkers is 0. Not 1: Tashkent-API groups remote commit
// records into shared fsyncs only if several installs are in flight.
const defaultApplyWorkers = 8

// New creates a proxy and starts its merger. A config without one client
// per group of its map is a wiring bug and panics.
func New(cfg Config) *Proxy {
	if cfg.Parts == nil || len(cfg.Parts.Groups) != max(cfg.Parts.Map.N, 1) {
		panic("proxy: Config.Parts must hold one certifier client per group of its map")
	}
	if cfg.ChunkWaitTimeout == 0 {
		cfg.ChunkWaitTimeout = 5 * time.Second
	}
	p := &Proxy{
		cfg:           cfg,
		topo:          cfg.Parts,
		inFlightItems: make(map[core.ItemID]inFlightMark),
		applierTxs:    make(map[uint64]struct{}),
	}
	p.life, p.stop = context.WithCancel(context.Background())
	workers := cfg.ApplyWorkers
	if workers <= 0 {
		workers = defaultApplyWorkers
	}
	p.sched = newApplyScheduler(p, workers)
	p.m = newMerger(p)
	p.detach(p.m.loop)
	return p
}

// detach runs fn on a goroutine Close waits for — unless the proxy is
// already closed: after Close nobody may touch the store. Registering
// under p.mu keeps wg.Add from racing Close's wg.Wait (WaitGroup misuse).
func (p *Proxy) detach(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
}

// Close stops background activity. The store is left to its owner.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.stop()
	// Submitters first: a detached commit round may be waiting on a
	// version that is still in the scheduler's window.
	p.wg.Wait()
	p.sched.stop()
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ReplicaVersion returns the highest global version scheduled at this
// replica.
func (p *Proxy) ReplicaVersion() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rvPlanned
}

// Tx is a client transaction handle mediated by the proxy.
type Tx struct {
	p     *Proxy
	inner *mvstore.Tx
	done  bool
	// commitVersion is the transaction's position in the global commit
	// order, recorded on a successful commit. Read-only transactions
	// record their snapshot's version: the causal token of a session
	// that only read covers exactly what the snapshot showed.
	commitVersion uint64
}

// SnapshotVersion returns the global version the transaction's snapshot
// shows exactly: every commit up to it and none above. It is the start
// label certification checks against and, after reads and aborts, the
// session's causal token.
func (t *Tx) SnapshotVersion() uint64 { return t.inner.SnapshotVersion() }

// CommitVersion returns the global version assigned to the
// transaction by certification (its snapshot version for read-only
// transactions); zero until Commit succeeds. Sessions use it as the
// causal token for read-your-writes routing.
func (t *Tx) CommitVersion() uint64 { return t.commitVersion }

// Wrote reports whether the transaction has written: the class the
// router's breaker judges its latency in, whatever the caller declared.
func (t *Tx) Wrote() bool { return !t.inner.Writeset().Empty() }

// Begin intercepts BEGIN: the transaction receives the latest local
// snapshot, labeled with the replica version the store published with
// it (mvstore.Tx.SnapshotVersion). The label is exact: GSI would accept
// one below what the snapshot shows (paper §6.2, conservative
// labeling), but the same label is the session's causal token after a
// read, which must cover everything the snapshot showed. In partitioned
// mode the label is a merged version, and each group's start label is
// read off it (partition.Map.GroupVersion).
func (p *Proxy) Begin() (*Tx, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrProxyClosed
	}
	p.mu.Unlock()
	inner, err := p.cfg.Store.Begin()
	if err != nil {
		return nil, err
	}
	tx := &Tx{p: p, inner: inner}
	inner.SetWriteHook(p.preCertHook(inner))
	return tx, nil
}

// preCertHook is the eager pre-certification write hook: each local
// write is checked against the remote writesets currently being
// applied; a conflict aborts the local write immediately (the remote
// writeset must win, §8.2).
func (p *Proxy) preCertHook(inner *mvstore.Tx) mvstore.WriteHook {
	return func(op core.WriteOp) error {
		if p.remoteInFlightConflicts(op.Item()) {
			return fmt.Errorf("%w: eager pre-certification against in-flight remote writeset", ErrCertificationAbort)
		}
		return nil
	}
}

// Read/write passthroughs.

// Read returns the row visible in the transaction snapshot. The map
// is a shared immutable row version (see mvstore.Tx.Read); callers
// must not modify it.
func (t *Tx) Read(table, key string) (map[string][]byte, bool, error) {
	return t.inner.Read(table, key)
}

// ReadCol returns one column.
func (t *Tx) ReadCol(table, key, col string) ([]byte, bool, error) {
	return t.inner.ReadCol(table, key, col)
}

// Insert writes a full row.
func (t *Tx) Insert(table, key string, cols map[string][]byte) error {
	return t.inner.Insert(table, key, cols)
}

// Update modifies columns.
func (t *Tx) Update(table, key string, cols map[string][]byte) error {
	return t.inner.Update(table, key, cols)
}

// Delete removes a row.
func (t *Tx) Delete(table, key string) error {
	return t.inner.Delete(table, key)
}

// Abort rolls back.
func (t *Tx) Abort() error {
	t.done = true
	return t.inner.Abort()
}

// Commit is CommitCtx without cancellation — the workload.PlainTx
// shape the benchmark and the harness drive replicas through.
func (t *Tx) Commit() error { return t.CommitCtx(context.Background()) }

// CommitCtx intercepts COMMIT (paper §6.2 step C): read-only
// transactions commit immediately; update transactions go through
// certification and the mode's commit strategy.
//
// Cancellation semantics: ctx is honored before and during the
// certification round trip, at any number of groups. If ctx ends while
// certification is in flight, CommitCtx aborts the local handle and
// returns ctx.Err() at once, but — as with any distributed commit — the
// certifier tier may still commit the transaction; the proxy then
// finishes the round in the background so the merged stream stays whole
// (see merger.commit), and the caller must treat the outcome as unknown.
// Once the decision has arrived the remaining local work completes
// regardless of ctx (it is bounded by the proxy's own timeouts).
func (t *Tx) CommitCtx(ctx context.Context) error {
	if t.done {
		return mvstore.ErrTxDone
	}
	t.done = true
	p := t.p
	if err := ctx.Err(); err != nil {
		t.inner.Abort()
		return err
	}
	ws := t.inner.Writeset()
	if ws.Empty() {
		if err := t.inner.Commit(); err != nil {
			return err
		}
		t.commitVersion = t.SnapshotVersion()
		p.addStat(func(st *Stats) { st.ReadOnlyCommits++ })
		return nil
	}

	// Local certification (§6.2): a conflict with an already-received
	// remote writeset aborts without bothering the certifier.
	if p.m.localCert() && p.localConflict(ws, t.SnapshotVersion()) {
		t.inner.Abort()
		p.addStat(func(st *Stats) { st.LocalCertAborts++ })
		return fmt.Errorf("%w (local certification)", ErrCertificationAbort)
	}
	return p.m.commit(ctx, t, ws, p.topo.Map.Split(ws))
}

// localConflict checks ws against remote writesets received with
// versions in (start, now]; finding one proves the certifier would
// abort.
func (p *Proxy) localConflict(ws *core.Writeset, start uint64) bool {
	items := make(map[core.ItemID]struct{}, len(ws.Ops))
	for i := range ws.Ops {
		items[ws.Ops[i].Item()] = struct{}{}
	}
	p.logMu.Lock()
	defer p.logMu.Unlock()
	for i := len(p.recent) - 1; i >= 0; i-- {
		rec := &p.recent[i]
		if rec.version <= start {
			break
		}
		for _, it := range rec.items {
			if _, hit := items[it]; hit {
				return true
			}
		}
	}
	return false
}

// recordRemotes adds applied remote writesets to the proxy log and
// returns how many there were: an entry that installs nothing (a barrier
// or fill no-op, a prepare, a decision marker) holds a version and is
// neither logged nor counted. The log is trimmed in chunks: it grows to
// twice maxRecent and is then cut to its newest maxRecent records in
// place, so a full log costs one copy per maxRecent records instead of
// one per response.
func (p *Proxy) recordRemotes(remotes []RemoteEntry) (installed int) {
	if len(remotes) == 0 {
		return 0
	}
	p.logMu.Lock()
	for _, r := range remotes {
		if !r.WS.Empty() {
			p.recent = append(p.recent, remoteRecord{version: r.Version, items: r.WS.Items()})
			installed++
		}
	}
	if n := len(p.recent); n >= 2*maxRecent {
		kept := copy(p.recent, p.recent[n-maxRecent:])
		clear(p.recent[kept:]) // let go of the dropped records' items
		p.recent = p.recent[:kept]
	}
	p.logMu.Unlock()
	return installed
}

// inFlightMark is an item's entry in the in-flight set: how many
// appliers of remote writesets over it are running, and the highest
// global version any of them installs.
type inFlightMark struct {
	n  int
	to uint64
}

// remoteInFlightConflicts reports whether an item collides with a
// remote writeset currently being applied (set by the scheduler's
// install, whichever goroutine runs it, in every mode). A mark stops
// counting the moment the store announces its version, not when its
// applier gets round to clearing it:
// whoever was told that version is applied (a causal wait, Converge)
// must be able to write the item.
func (p *Proxy) remoteInFlightConflicts(item core.ItemID) bool {
	p.logMu.Lock()
	m, hit := p.inFlightItems[item]
	p.logMu.Unlock()
	return hit && m.to > p.cfg.Store.AnnouncedVersion()
}

// markInFlight registers (or unregisters) the items of a remote
// writeset being applied, which leaves the replica at version to.
// An item written twice is marked twice and unmarked twice.
func (p *Proxy) markInFlight(ws *core.Writeset, to uint64, on bool) {
	if ws == nil {
		return
	}
	p.logMu.Lock()
	for i := range ws.Ops {
		it := ws.Ops[i].Item()
		m := p.inFlightItems[it]
		if on {
			m.n++
			m.to = max(m.to, to)
		} else {
			m.n--
		}
		if m.n > 0 {
			p.inFlightItems[it] = m
		} else {
			delete(p.inFlightItems, it)
		}
	}
	p.logMu.Unlock()
}

// killConflictingLocals applies eager pre-certification from the
// remote side: local transactions holding locks that a remote writeset
// needs are killed so the remote writeset can proceed (§8.2 — "the
// proxy aborts the conflicting local update transaction, which allows
// the remote writeset to be executed"). A victim that turns out to be
// globally committed is re-applied from its writeset by the commit
// path's soft-recovery fallback, so killing is always safe.
func (p *Proxy) killConflictingLocals(ws *core.Writeset, applierTx uint64) {
	for _, id := range p.cfg.Store.ConflictingActiveTxns(ws, applierTx) {
		if p.isApplierTx(id) {
			continue // fellow appliers install committed state; never kill them
		}
		if p.cfg.Store.Kill(id) {
			p.addStat(func(st *Stats) { st.EagerKills++ })
		}
	}
}

// markApplier registers (or unregisters) an applier transaction id.
func (p *Proxy) markApplier(id uint64, on bool) {
	p.logMu.Lock()
	if on {
		p.applierTxs[id] = struct{}{}
	} else {
		delete(p.applierTxs, id)
	}
	p.logMu.Unlock()
}

// isApplierTx reports whether id belongs to an in-flight applier.
func (p *Proxy) isApplierTx(id uint64) bool {
	p.logMu.Lock()
	_, ok := p.applierTxs[id]
	p.logMu.Unlock()
	return ok
}

// WaitVersion blocks until the replica has announced merged version v:
// the causal wait behind a session's read-your-writes. It registers v with
// the merger, which pulls what the replica lacks of it (see merger.loop).
// It returns ctx's error if ctx ends first, ErrProxyClosed if the proxy
// closes and mvstore.ErrCrashed if the store crashes.
func (p *Proxy) WaitVersion(ctx context.Context, v uint64) error {
	store := p.cfg.Store
	if store.AnnouncedVersion() >= v {
		return nil
	}
	p.m.want(v, 1)
	defer p.m.want(v, -1)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(p.life, cancel)()
	err := store.WaitAnnouncedOr(v, math.MaxInt64, wctx.Done())
	if errors.Is(err, mvstore.ErrWaitInterrupted) {
		if err = ctx.Err(); err == nil {
			err = ErrProxyClosed
		}
	}
	return err
}

// PullOnce fetches every group's missing writesets once, all groups at
// the same time, and hands each response to the merger. The
// pull includes this replica's own writesets: a pull covers entries
// above what the replica reports — entries it provably does not have —
// and in that range "own" writesets exist only if their commit
// responses were lost (or the replica is rebuilding after a crash).
// Excluding them would let the apply announce past versions whose data
// never reached this replica, a permanent hole no later resync could see
// (the resync basis sits above it).
func (p *Proxy) PullOnce() error {
	errs := make([]error, len(p.topo.Groups))
	fanOut(len(p.topo.Groups), func(g int) {
		resp, err := p.topo.Groups[g].Pull(certifier.PullRequest{ReplicaVersion: p.m.replicaVersion(g)})
		if err == nil {
			p.m.ingest(g, resp.Remote, nil)
		}
		errs[g] = err
	})
	p.addStat(func(st *Stats) { st.StalenessPulls++ })
	return errors.Join(errs...)
}

// fanOut runs fn(0..n-1) concurrently and returns when all have: the
// proxy's one way of talking to several certifier groups at once. One
// call runs inline.
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

// Resync brings the replica up to the certifier tier's committed state
// after a crash (see merger.resync). It is for a freshly built proxy:
// its store holds no installed-but-unpublished commit whose row locks
// the catch-up could wait on.
func (p *Proxy) Resync() error {
	p.addStat(func(st *Stats) { st.Resyncs++ })
	return p.m.resync()
}
