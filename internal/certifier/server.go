package certifier

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/metrics"
	"tashkent/internal/paxos"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
	"tashkent/internal/wal"
)

// Stats is a snapshot of certifier activity.
type Stats struct {
	Requests       int64 // commit requests and vetoes the batch loop checked
	Commits        int64 // of those, the ones whose entry reached the log
	Aborts         int64
	InjectedAborts int64
	Pulls          int64
	RemoteShipped  int64 // remote writesets shipped to replicas
	CertifyBackOps int64 // always 0 (nothing certifies back); read by bench/
}

// Config parameterizes one certifier node.
type Config struct {
	// ID is this certifier's identity within the group.
	ID int
	// Peers maps other certifier ids to clients (for paxos traffic).
	Peers map[int]transport.Client
	// Disk backs the persistent certification log. nil = instant.
	Disk *simdisk.Disk
	// DisableDurability runs certification without disk writes — the
	// paper's tashAPInoCERT ablation (§9.2: "the certifier performs
	// certification as usual, but it does not write information to
	// disk").
	DisableDurability bool
	// AbortRate injects random aborts at the given rate in [0,1),
	// applied *after* the full certification check so all certifier
	// work is still done — the Fig 14 methodology.
	AbortRate float64
	// MaxBatch caps how many admitted requests one pipeline iteration
	// drains into a single replication round and durability barrier
	// (<=0 selects the default of 256).
	MaxBatch int
	// AdmitTimeout is the admission-control budget: a commit request
	// that cannot get a queue slot within this budget is shed with an
	// OVERLOADED/retry-after response instead of queueing without bound,
	// and one that has already waited twice the budget in the queue when
	// a batch drains (drain collapse) is shed under the same contract.
	// Decision markers, fills and barriers are never shed. Zero selects
	// the default of 1s; negative disables shedding (requests block as
	// before).
	AdmitTimeout time.Duration
	// QueueDepth caps the admission queue (<=0 selects 4*MaxBatch).
	// Size it to roughly one AdmitTimeout of drain so an admitted
	// request's queue wait stays inside the budget.
	QueueDepth int
	// ElectionTimeout/Seed tune the underlying replication group.
	ElectionTimeout time.Duration
	Seed            int64
}

// defaultMaxBatch bounds one certification batch when Config.MaxBatch
// is unset.
const defaultMaxBatch = 256

// Server is one certifier node: a paxos group member plus the
// certification engine. Any node accepts RPCs; only the current leader
// certifies (followers redirect).
//
// Certification runs as a staged pipeline: RPC handlers enqueue onto
// the admission queue and wait; a dedicated certification loop drains
// all waiting tasks — commit requests, decision markers, fills and
// barriers — checks them in order, proposes every entry they add as
// one batched log append, takes one durability barrier per batch, and
// fans the responses back (see pipeline.go).
type Server struct {
	cfg  Config
	node *paxos.Node
	disk *simdisk.Disk

	admitCh    chan *task    // admission queue feeding the loop
	slots      chan struct{} // admission tokens: one per queue slot, released at dequeue
	stopCh     chan struct{}
	stopOnce   sync.Once
	loopWG     sync.WaitGroup
	batchSizes metrics.Distribution // client entries (one-group commits, yes prepares) proposed per batch

	// Admission-control observability: queue depth at admit time,
	// queue wait at drain time, and the shed/expired totals — the data
	// behind tashbench's goodput-vs-offered-load knee plot.
	queueDepth   metrics.Distribution
	queueWait    *metrics.Latency
	shedCount    atomic.Int64 // requests rejected with OVERLOADED
	expiredCount atomic.Int64 // requests dropped: caller deadline passed
	// barrierInFlight coalesces the automatic post-election barrier
	// (see ensureEngineLocked).
	barrierInFlight atomic.Bool
	// inFlight counts admitted-but-unresolved log-appending requests
	// (commit requests and resolves). Pull responses report it so
	// a partitioned replica's merger can tell a group that is about to
	// commit more entries from one that is genuinely idle and needs a
	// fill to unblock the merge.
	inFlight atomic.Int64

	// Batch linger state (see gatherBatch). fanout is the last fan-out,
	// whose echoes and awaited markers request handlers count at
	// admission; cycle is the last committed batch's drain-to-durability
	// time in nanoseconds (0 before the first barrier); echoRatio, the
	// decaying average of echoes per client task a fan-out answered,
	// belongs to the certification loop alone.
	fanout    atomic.Pointer[fanout]
	cycle     atomic.Int64
	echoRatio float64

	mu         sync.Mutex // guards engine + basisTerm + rng + stats
	engine     *core.Engine
	basisTerm  uint64 // term the engine was last rebuilt for
	basisValid bool
	rng        *rand.Rand
	stats      Stats
}

// New creates a certifier node. Call Start to join the group.
func New(cfg Config) *Server {
	if cfg.Disk == nil {
		cfg.Disk = simdisk.New(simdisk.Instant(), int64(cfg.ID)+100)
	}
	mode := wal.SyncCommits
	if cfg.DisableDurability {
		mode = wal.NoSync
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.AdmitTimeout == 0 {
		cfg.AdmitTimeout = time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	s := &Server{
		cfg:       cfg,
		disk:      cfg.Disk,
		engine:    core.NewEngine(),
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5EED)),
		admitCh:   make(chan *task, cfg.QueueDepth),
		slots:     make(chan struct{}, cfg.QueueDepth),
		stopCh:    make(chan struct{}),
		queueWait: metrics.NewLatency(0),
	}
	for i := 0; i < cfg.QueueDepth; i++ {
		s.slots <- struct{}{}
	}
	s.node = paxos.NewNode(paxos.Config{
		ID:              cfg.ID,
		Peers:           cfg.Peers,
		Disk:            cfg.Disk,
		WALMode:         mode,
		ElectionTimeout: cfg.ElectionTimeout,
		Seed:            cfg.Seed,
	})
	return s
}

// RestoreFromImage rebuilds the node's replicated log from a WAL crash
// image before Start (certifier recovery, §7.3).
func (s *Server) RestoreFromImage(img []byte) error { return s.node.RestoreFromImage(img) }

// Start joins the replication group and launches the certification
// pipeline loop.
func (s *Server) Start() {
	s.node.Start()
	s.loopWG.Add(1)
	go s.certifyLoop()
}

// Stop halts the node and the certification loop. Requests still in
// the admission queue fail with paxos.ErrStopped.
func (s *Server) Stop() {
	// Stop the node first so a loop blocked in WaitCommitted (or a
	// propose in flight) unblocks with ErrStopped before we wait for it.
	s.node.Stop()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.loopWG.Wait()
}

// WALImage returns the crash-surviving persistent log image.
func (s *Server) WALImage() []byte { return s.node.WALImage() }

// Node exposes the underlying replication node (tests, recovery
// harness).
func (s *Server) Node() *paxos.Node { return s.node }

// IsLeader reports whether this node currently leads the group.
func (s *Server) IsLeader() bool {
	r, _ := s.node.Role()
	return r == paxos.Leader
}

// Stats returns a snapshot of activity counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Disk exposes the node's log IO channel (chaos drills arm fsync
// hooks on it to crash the node at exact durability boundaries).
func (s *Server) Disk() *simdisk.Disk { return s.disk }

// DiskStats exposes the log channel statistics — the source of the
// writesets-per-fsync figure the paper reports.
func (s *Server) DiskStats() simdisk.Stats { return s.disk.Stats() }

// BatchStats summarizes the certification pipeline's batch sizes: how
// many commits shared one replication round and durability barrier.
func (s *Server) BatchStats() metrics.DistSummary { return s.batchSizes.Summarize() }

// QueueStats is a snapshot of admission-control activity.
type QueueStats struct {
	Depth   metrics.DistSummary // queue depth observed at admit time
	Wait    metrics.Summary     // admission-queue wait of drained requests
	Shed    int64               // requests rejected with OVERLOADED
	Expired int64               // requests dropped after their caller deadline passed
}

// QueueStats reports the admission queue's depth/wait distributions
// and the shed/expired totals.
func (s *Server) QueueStats() QueueStats {
	return QueueStats{
		Depth:   s.queueDepth.Summarize(),
		Wait:    s.queueWait.Summarize(),
		Shed:    s.shedCount.Load(),
		Expired: s.expiredCount.Load(),
	}
}

// retryAfterHint scales the shed response's backoff hint with queue
// occupancy: an idle-ish queue suggests one measured batch cycle, a
// saturated one proportionally more. Before the first barrier there is
// no cycle to go by, and the hint is 2 ms.
func (s *Server) retryAfterHint() time.Duration {
	base := time.Duration(s.cycle.Load())
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	return base * time.Duration(1+len(s.admitCh)/s.cfg.MaxBatch)
}

// ResetActivityStats zeroes the disk statistics and the batch-size
// distribution, typically after populate/warm-up so the reported
// writesets-per-fsync reflects steady state.
func (s *Server) ResetActivityStats() {
	s.disk.ResetStats()
	s.batchSizes.Reset()
	s.queueDepth.Reset()
	s.queueWait.Reset()
	s.shedCount.Store(0)
	s.expiredCount.Store(0)
}

// SetAbortRate changes the injected abort rate at runtime (Fig 14
// sweeps).
func (s *Server) SetAbortRate(r float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.AbortRate = r
}

// Handle is the transport handler for this node: it serves both the
// certification API and the group's replication traffic.
func (s *Server) Handle(method string, req []byte) ([]byte, error) {
	// A stopped server simulates a crashed process across the whole
	// API, not just the replication layer. Without this a deposed
	// zombie — whose paxos node refuses peer RPCs and so never learns
	// the new term — would keep serving Pull from its frozen state as
	// if it still led, feeding replicas empty answers instead of the
	// failover error that sends them to the live leader.
	select {
	case <-s.stopCh:
		return nil, paxos.ErrStopped
	default:
	}
	switch {
	case strings.HasPrefix(method, "paxos."):
		return s.node.HandleRPC(method, req)
	case method == MethodCertify:
		var r Request
		if err := transport.DecodeMessage(req, &r); err != nil {
			return nil, err
		}
		resp, err := s.Certify(r)
		if err != nil {
			return nil, err
		}
		return transport.EncodeMessage(&resp)
	case method == MethodPull:
		var r PullRequest
		if err := transport.DecodeMessage(req, &r); err != nil {
			return nil, err
		}
		resp, err := s.pull(r)
		if err != nil {
			return nil, err
		}
		return transport.EncodeMessage(&resp)
	case method == MethodResolve:
		var r ResolveRequest
		if err := transport.DecodeMessage(req, &r); err != nil {
			return nil, err
		}
		resp, err := s.Resolve(r)
		if err != nil {
			return nil, err
		}
		return transport.EncodeMessage(&resp)
	case method == MethodFill:
		var r FillRequest
		if err := transport.DecodeMessage(req, &r); err != nil {
			return nil, err
		}
		head, err := s.FillTo(r.Target)
		if err != nil {
			return nil, err
		}
		return transport.EncodeMessage(&FillResponse{Head: head})
	default:
		return nil, fmt.Errorf("certifier: unknown method %q", method)
	}
}

// ensureEngineLocked makes the engine reflect this node's log,
// rebuilding it after a leadership change or a failed propose. Returns
// an error if the node is not the leader. Every request calls it, so
// the steady state — still leading in the term the engine was built
// for — reads role and term only; the log is copied on the rebuild
// path alone and a request's cost does not grow with committed history.
func (s *Server) ensureEngineLocked() error {
	role, term := s.node.Role()
	if role != paxos.Leader {
		return notLeaderError(s.node.LeaderHint())
	}
	if s.basisValid && s.basisTerm == term {
		return nil
	}
	// Term and role are read again with the copy: leadership may have
	// moved since the test above.
	term, role, entries := s.node.SnapshotLog()
	if role != paxos.Leader {
		return notLeaderError(s.node.LeaderHint())
	}
	eng := core.NewEngine()
	for _, e := range entries {
		le, err := logEntryAt(e.Index, e.Data)
		if err == nil {
			err = eng.Append(le)
		}
		if err != nil {
			return fmt.Errorf("certifier: rebuilding engine: %w", err)
		}
	}
	s.engine = eng
	s.basisTerm = term
	s.basisValid = true
	// A new leader cannot mark the previous term's tail committed
	// until an entry of its own term commits; until then pulls and
	// resyncs are capped below transactions that are already acked.
	// Self-barrier in the background so a quiet (or read-only) period
	// after a failover still finalizes the tail promptly.
	if s.node.CommitIndex() < uint64(len(entries)) && s.barrierInFlight.CompareAndSwap(false, true) {
		go func() {
			defer s.barrierInFlight.Store(false)
			s.Barrier()
		}()
	}
	return nil
}

// committedCap bounds what leaves the certifier to majority-durable
// versions: uncommitted in-flight entries must never reach a replica.
func (s *Server) committedCap() uint64 {
	return s.node.CommitIndex()
}

// proposeLocked replicates payloads as the log entries right after
// head, the engine's head as the caller sees it under s.mu. If the
// propose fails or lands elsewhere the engine no longer matches the log
// (it changed, or leadership is lost) and the basis is invalidated: the
// next request rebuilds the engine from the authoritative log.
func (s *Server) proposeLocked(head uint64, payloads [][]byte) (term uint64, err error) {
	first, term, err := s.node.ProposeBatchAt(head, payloads)
	if err == nil && first != head+1 {
		err = fmt.Errorf("certifier: proposed at index %d, engine expected %d", first, head+1)
	}
	if err != nil {
		s.basisValid = false
	}
	return term, err
}

// Barrier commits a no-op log entry and waits for it, returning the
// resulting committed index. A freshly elected leader cannot mark a
// previous term's tail committed until an entry of its own term
// commits (the leader-completeness rule), so after a failover a quiet
// group would keep reporting a committed prefix that excludes already-
// acknowledged transactions; a barrier finalizes the tail on demand.
// The no-op consumes one global version; replicas advance their
// announce chain through it without installing anything.
func (s *Server) Barrier() (uint64, error) {
	// Claim the coalescing flag so ensureEngineLocked's automatic
	// post-election barrier does not spawn a second no-op alongside
	// this explicit one.
	if s.barrierInFlight.CompareAndSwap(false, true) {
		defer s.barrierInFlight.Store(false)
	}
	if err := s.submit(newTask(kindBarrier, noop)); err != nil {
		return 0, err
	}
	return s.node.CommitIndex(), nil
}

// remotesLocked collects the log entries in (after, upTo] from the
// paxos log, each as the payload it holds: the replica merges the whole
// entry (kind and 2PC metadata) into its stream. The log may hold an
// uncommitted suffix that a new leader later overwrites, but no answer
// ships one: every upTo above committedCap comes from the batch just
// proposed, and its tasks are answered only once WaitCommitted(lastIdx,
// term) has confirmed that batch in this term (see processBatch).
func (s *Server) remotesLocked(after, upTo uint64) []RemoteWS {
	entries := s.node.Entries(after, upTo)
	remote := make([]RemoteWS, 0, len(entries))
	for _, e := range entries {
		remote = append(remote, RemoteWS{Version: e.Index, WSBytes: e.Data})
	}
	s.stats.RemoteShipped += int64(len(entries))
	return remote
}

// waitIndexCommitted waits until the group's committed prefix covers
// index. Unlike paxos.WaitCommitted it does not pin a term: it is used
// for idempotent retries whose entry may have been proposed in an
// earlier term (the entry is identified by content, not by (index,
// term)).
func (s *Server) waitIndexCommitted(index uint64) error {
	// A condition wait on the node's commit broadcast — the previous
	// 200µs timer poll allocated a timer per iteration on the hot
	// certify path and put a scheduling-granularity floor under every
	// wait. Node.Stop (called first by Server.Stop) broadcasts too, so
	// shutdown wakes this without watching stopCh.
	err := s.node.WaitCommittedIndex(index, 5*time.Second)
	if errors.Is(err, paxos.ErrWaitTimeout) {
		return fmt.Errorf("certifier: index %d not committed in time", index)
	}
	return err
}

// Certify serves one commit request (see Request) and answers once its
// outcome is final. A one-group commit certifies in the next batch and
// commits as a data entry at the batch's barrier. A cross-partition one
// is answered by the group's durable vote: a yes locks the slice's items
// under the gid, is preceded by fill no-ops up to req.FillTo, and ends
// its batch alignPad no-ops past the batch's last entry. Response.Remote
// says what each answer ships.
func (s *Server) Certify(req Request) (Response, error) {
	t, err := newCommitTask(req)
	if err != nil {
		return Response{}, err
	}
	if err := s.submit(t); err != nil {
		return Response{}, err
	}
	return s.response(t), nil
}

// newCommitTask is the task a commit request submits. The entry, payload
// included, is built on the handler's own goroutine, so the
// certification loop only conflict-checks and proposes.
func newCommitTask(req Request) (*task, error) {
	kind, gid, involved := core.KindData, uint64(0), []int(nil)
	if len(req.Involved) > 1 {
		kind, gid, involved = core.KindPrepare, req.GID, req.Involved
	}
	entry, err := newLogEntry(kind, req.Origin, req.StartVersion, gid, involved, req.WSBytes)
	if err != nil {
		return nil, err
	}
	if entry.WS.Empty() {
		return nil, errors.New("certifier: empty writeset (read-only transactions commit at the replica)")
	}
	t := newTask(kindCommit, entry)
	t.after = req.ReplicaVersion
	t.target = req.FillTo
	if req.Deadline != 0 {
		t.deadline = time.Unix(0, req.Deadline)
	}
	return t, nil
}

// response is the answer to a commit request whose task is finished.
func (s *Server) response(t *task) Response {
	return Response{Yes: t.yes, Index: t.index, SystemVersion: s.committedCap(), Remote: t.remote}
}

// Resolve appends the commit or abort decision marker for a gid, or
// serves a veto (see ResolveRequest). Idempotent — the first marker wins
// and retries return its index. A commit's response, and a veto's that
// finds a yes, carries the group's entries after req.ReplicaVersion
// through the record it stands on.
func (s *Server) Resolve(req ResolveRequest) (ResolveResponse, error) {
	if req.Commit && req.Veto {
		return ResolveResponse{}, fmt.Errorf("certifier: resolve of gid %d both commits and vetoes", req.GID)
	}
	kind := core.KindAbortMarker
	if req.Commit {
		kind = core.KindCommitMarker
	}
	t := newTask(kindResolve, emptyEntry(kind, req.GID))
	t.veto = req.Veto
	t.after = req.ReplicaVersion
	if err := s.submit(t); err != nil {
		return ResolveResponse{}, err
	}
	return ResolveResponse{Index: t.index, SystemVersion: s.committedCap(), Prepared: t.yes, Remote: t.remote}, nil
}

// maxFill bounds one fill request; a merge that is further behind asks
// again.
const maxFill = 4096

// FillTo pads the group's log with no-op fill entries until it holds
// at least target entries, then waits for them to commit. Replicas
// blocked on this group's position in the deterministic merge call it
// (through the proxy) when the group is idle. Returns the committed
// head.
func (s *Server) FillTo(target uint64) (uint64, error) {
	t := newTask(kindFill, noop)
	t.target = target
	if err := s.submit(t); err != nil {
		return 0, err
	}
	return s.committedCap(), nil
}

// pull serves the staleness-bounding fetch: all committed remote
// writesets the replica has not seen.
func (s *Server) pull(req PullRequest) (PullResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureEngineLocked(); err != nil {
		return PullResponse{}, err
	}
	s.stats.Pulls++
	upTo := s.committedCap()
	return PullResponse{
		Remote:        s.remotesLocked(req.ReplicaVersion, upTo),
		SystemVersion: upTo,
		Busy:          s.inFlight.Load() > 0,
	}, nil
}
