// Package paxos implements the replicated log used to make the
// certifier highly available (paper §7.3): "The certifier state is
// replicated for availability across a small set of nodes using Paxos.
// The replication algorithm uses a leader elected from the set of
// certifiers. ... the leader sends the new state to all certifiers
// including itself. All certifiers write the new state to disk and
// reply to the leader. When a majority of certifiers reply, the leader
// declares those transactions as committed."
//
// The implementation is Multi-Paxos in its steady-state leader-based
// formulation (equivalently, the Raft refinement): a ballot-based
// election chooses a leader; the leader appends entries to all nodes;
// each node makes the entries durable via its group-committed WAL and
// acknowledges; the leader commits on majority. Log-index equals the
// certifier's global version, so entry i of the paxos log is exactly
// version i of the replication system's commit order.
//
// Crash-recovery is supported: a node rebuilds its log from its WAL
// image and catches up from the current leader via state transfer.
package paxos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
	"tashkent/internal/wal"
	"tashkent/internal/wire"
)

// nowFunc indirects time.Now for tests.
var nowFunc = time.Now

// Errors surfaced to proposers.
var (
	// ErrNotLeader reports a proposal on a non-leader node; the error
	// text carries the known leader hint.
	ErrNotLeader = errors.New("paxos: not leader")
	// ErrDeposed reports that leadership was lost while a proposal was
	// in flight; the entry may or may not survive.
	ErrDeposed = errors.New("paxos: leadership lost during proposal")
	// ErrStopped reports a stopped node.
	ErrStopped = errors.New("paxos: node stopped")
)

// Role is a node's current protocol role.
type Role uint8

// Roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Entry is one replicated log record.
type Entry struct {
	Index uint64 // 1-based; equals the certifier global version
	Term  uint64
	Data  []byte
}

// Config parameterizes a node.
type Config struct {
	// ID is this node's identity (unique small integer).
	ID int
	// Peers maps every *other* node id to a transport client for it.
	Peers map[int]transport.Client
	// Disk backs the node's persistent log.
	Disk *simdisk.Disk
	// WALMode is SyncCommits for durable certification (normal) or
	// NoSync for the paper's tashAPInoCERT ablation, where the
	// certifier performs certification but skips disk writes.
	WALMode wal.Mode
	// ElectionTimeout is the base follower timeout (jittered per
	// node); a leader appends to idle followers every third of it.
	ElectionTimeout time.Duration
	// Seed randomizes election jitter deterministically.
	Seed int64
	// heartbeat overrides the leader's idle append cadence. Tests whose
	// election timers must stay silent still want a prompt cadence.
	heartbeat time.Duration
}

// Node is one member of the replicated-log group.
type Node struct {
	cfg Config

	mu          sync.Mutex
	cond        *sync.Cond
	role        Role
	term        uint64
	votedFor    int
	leaderHint  int
	log         []Entry // log[i] has Index i+1
	commitIndex uint64
	stableIndex uint64 // highest index covered by our own WAL fsyncs
	matchIndex  map[int]uint64
	nextIndex   map[int]uint64
	inflight    map[int]bool
	lastHeard   time.Time
	lastAck     map[int]time.Time // leader: last append answer per peer (check-quorum)
	started     bool
	stopped     bool

	wal    *wal.WAL
	rng    *rand.Rand
	wg     sync.WaitGroup
	stopCh chan struct{}
	// elected pokes timerLoop when the node wins an election: the loop is
	// then asleep on the wait it computed as follower or candidate, and
	// heartbeats must start now, not when that wait runs out. One pending
	// poke is enough, whatever number of wins it stands for.
	elected chan struct{}
	// announced is closed, and replaced, once a win has been announced:
	// the new leader's first append round has come back from every peer
	// (see Announced).
	announced chan struct{}
}

// NewNode creates a node. Call Start to run its timers.
func NewNode(cfg Config) *Node {
	if cfg.Disk == nil {
		cfg.Disk = simdisk.New(simdisk.Instant(), int64(cfg.ID))
	}
	if cfg.WALMode == 0 {
		cfg.WALMode = wal.SyncCommits
	}
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.heartbeat == 0 {
		cfg.heartbeat = cfg.ElectionTimeout / 3
	}
	n := &Node{
		cfg:        cfg,
		votedFor:   -1,
		leaderHint: -1,
		matchIndex: make(map[int]uint64),
		wal:        wal.New(cfg.Disk, cfg.WALMode),
		rng:        rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.ID)<<16)),
		stopCh:     make(chan struct{}),
		elected:    make(chan struct{}, 1),
		announced:  make(chan struct{}),
		lastHeard:  time.Now(),
	}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// RestoreFromImage rebuilds the node's log and term metadata from a
// crash-surviving WAL image. Must be called before Start.
func (n *Node) RestoreFromImage(image []byte) error {
	records, err := wal.Scan(image)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, rec := range records {
		r := wire.NewReader(rec)
		switch kind := r.U8(); kind {
		case recEntry:
			e, err := parseEntryRecord(rec[1:])
			if err != nil {
				return fmt.Errorf("paxos: restore entry: %w", err)
			}
			if e.Index == 0 || e.Index > uint64(len(n.log))+1 {
				return fmt.Errorf("paxos: restore: entry index %d does not extend log of %d", e.Index, len(n.log))
			}
			// An entry at index i implicitly truncates everything above.
			n.log = append(n.log[:e.Index-1], e)
		case recMeta:
			term, votedFor, err := parseMetaRecord(rec[1:])
			if err != nil {
				return fmt.Errorf("paxos: restore meta: %w", err)
			}
			n.term, n.votedFor = term, votedFor
		default:
			return fmt.Errorf("paxos: restore: record of unknown kind %d (%d bytes)", kind, len(rec))
		}
	}
	n.stableIndex = uint64(len(n.log))
	return nil
}

// Start launches the election timer.
func (n *Node) Start() {
	n.mu.Lock()
	n.started = true
	n.mu.Unlock()
	n.wg.Add(1)
	go n.timerLoop()
}

// Campaign starts an election now instead of waiting out the election
// timeout. It does nothing unless the node is a running follower that
// has never seen a term and holds an empty log — a member of a brand-new
// group, whose start-up would otherwise idle for the shortest of the
// members' jittered timeouts. Such a node campaigns in term 1, which no
// live group's term is below, so it can never out-term (and therefore
// never depose) an existing leader, and its empty log never wins the
// up-to-date check against a node that holds entries; if the election
// is lost the timer path takes over unchanged. It returns once the
// vote requests are on their way; the candidacy's own flush runs beside
// them (see startElectionLocked).
func (n *Node) Campaign() {
	n.mu.Lock()
	if !n.started || n.stopped || n.role != Follower || n.term != 0 || len(n.log) != 0 {
		n.mu.Unlock()
		return
	}
	n.startElectionLocked() // unlocks
}

// Stop halts the node (simulating a crash when followed by discarding
// the instance; use WALImage to recover).
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	close(n.stopCh)
	n.cond.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
	n.wal.Close()
}

// WALImage returns the crash-surviving log image (stable prefix only).
func (n *Node) WALImage() []byte { return n.wal.CrashImage(0) }

// Stopped reports whether Stop has begun. Crash drills use it to
// sequence a blocked-fsync release after the node can no longer
// acknowledge the pending batch.
func (n *Node) Stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// Role returns the node's current role and term.
func (n *Node) Role() (Role, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.term
}

// Announced returns a channel that is closed the next time this node
// wins an election and its first append round has come back from every
// peer, answered or failed. Such a round costs no fsync, and every peer
// that answered it knows the new term. Take the channel before the
// election it should see, or before looking at Role.
func (n *Node) Announced() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.announced
}

// LeaderHint returns the last known leader id (-1 if unknown).
func (n *Node) LeaderHint() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == Leader {
		return n.cfg.ID
	}
	return n.leaderHint
}

// CommitIndex returns the highest committed index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// LogLength returns the local log length.
func (n *Node) LogLength() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return uint64(len(n.log))
}

// Entries returns a copy of the local log entries with indexes in
// (after, upTo], clamped to the log: nil when that range is empty. The
// entries' Data slices are shared, and nobody writes to them.
func (n *Node) Entries(after, upTo uint64) []Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	upTo = min(upTo, uint64(len(n.log)))
	if after >= upTo {
		return nil
	}
	return append([]Entry(nil), n.log[after:upTo]...)
}

// ErrLogChanged reports a ProposeBatchAt whose expected log length no
// longer matches (the caller's view of the log is stale and must be
// rebuilt).
var ErrLogChanged = errors.New("paxos: log changed since snapshot")

// SnapshotLog returns the current term, role and a copy of the whole
// local log. A leader's log is the authoritative basis for
// certification state; the certifier rebuilds its engine from this
// snapshot when it gains leadership.
func (n *Node) SnapshotLog() (term uint64, role Role, entries []Entry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Entry, len(n.log))
	copy(out, n.log)
	return n.term, n.role, out
}

// Propose appends data as the next log entry. It returns the reserved
// index and term immediately after the local (volatile) append; the
// caller completes the proposal with WaitCommitted. Only the leader
// may propose.
func (n *Node) Propose(data []byte) (index, term uint64, err error) {
	return n.proposeBatch([][]byte{data}, false, 0)
}

// ProposeBatchAt reserves len(datas) consecutive log indices under one
// lock acquisition and replicates them as a single round: the leader
// persists all of them through one batched WAL insertion (one fsync)
// and followers receive them in one append RPC, persisting via the
// same batched path. It returns the index of the first entry; the whole
// batch occupies [first, first+len(datas)-1] at the returned term, so
// one WaitCommitted on the last index is a durability barrier for the
// entire batch. It carries an optimistic-concurrency guard: it fails
// with ErrLogChanged unless the log still has exactly expectLen
// entries, so the caller's derived state (the certification engine)
// matches the indices being assigned. Each data slice becomes an
// Entry.Data as it is; the caller must not write to it afterwards.
func (n *Node) ProposeBatchAt(expectLen uint64, datas [][]byte) (first, term uint64, err error) {
	if len(datas) == 0 {
		return 0, 0, errors.New("paxos: empty batch proposal")
	}
	return n.proposeBatch(datas, true, expectLen)
}

func (n *Node) proposeBatch(datas [][]byte, guarded bool, expectLen uint64) (uint64, uint64, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, 0, ErrStopped
	}
	if n.role != Leader {
		hint := n.leaderHint
		n.mu.Unlock()
		return 0, 0, fmt.Errorf("%w (leader hint %d)", ErrNotLeader, hint)
	}
	if guarded && uint64(len(n.log)) != expectLen {
		n.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: have %d entries, expected %d", ErrLogChanged, len(n.log), expectLen)
	}
	first := uint64(len(n.log)) + 1
	term := n.term
	entries := make([]Entry, len(datas))
	for i, data := range datas {
		entries[i] = Entry{Index: first + uint64(i), Term: term, Data: data}
	}
	// The memory append and the WAL insertion happen in ONE critical
	// section — the same discipline handleAppend follows — so the WAL
	// image order always equals the memory log order, no matter how
	// proposals, depositions, and follower rounds interleave. The
	// records carry index and term, which are only known here; laying
	// them out is one buffer and a copy of each payload. The fsync wait
	// happens in the background; followers ack after their own fsync
	// and our own fsync advances stableIndex.
	n.log = append(n.log, entries...)
	wait, err := n.wal.AppendBatchAsync(entryRecords(entries))
	n.mu.Unlock()
	if err != nil {
		// WAL closed. Unreachable while Stop orders stopped=true before
		// wal.Close (we checked stopped under this same lock hold), but
		// if that ever changes the entries were neither persisted nor
		// broadcast — report it, don't fake a reservation.
		return 0, 0, ErrStopped
	}
	go n.finishPersist(entries[len(entries)-1], wait)
	go n.broadcastAppend()
	return first, term, nil
}

// finishPersist waits for a proposal's WAL batch to become durable and
// advances stableIndex. The term check skips the advance if the batch
// was truncated away while its fsync was pending (deposition): the
// replacing round vouches for its own records.
func (n *Node) finishPersist(last Entry, wait func() error) {
	if err := wait(); err != nil {
		return
	}
	n.mu.Lock()
	if last.Index > n.stableIndex && uint64(len(n.log)) >= last.Index &&
		n.log[last.Index-1].Term == last.Term {
		n.stableIndex = last.Index
		n.maybeAdvanceCommitLocked()
	}
	n.mu.Unlock()
}

// WaitCommitted blocks until the entry proposed at (index, term) is
// committed, or returns ErrDeposed if leadership changed and the entry
// was (or may have been) replaced.
func (n *Node) WaitCommitted(index, term uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if n.stopped {
			return ErrStopped
		}
		if uint64(len(n.log)) < index || n.log[index-1].Term != term {
			return ErrDeposed
		}
		if n.commitIndex >= index {
			return nil
		}
		if n.role != Leader {
			return ErrDeposed
		}
		n.cond.Wait()
	}
}

// ErrWaitTimeout reports that WaitCommittedIndex's bound elapsed
// before the committed prefix reached the requested index.
var ErrWaitTimeout = errors.New("paxos: commit wait timed out")

// WaitCommittedIndex blocks until the committed prefix covers index,
// the timeout elapses (ErrWaitTimeout), or the node stops. Unlike
// WaitCommitted it does not pin a term: it serves idempotent retries
// whose entry is identified by content, not by (index, term), and so
// survives leadership changes. Commit advances broadcast n.cond, so
// this is a real wait, not a poll.
func (n *Node) WaitCommittedIndex(index uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// sync.Cond has no timed wait: arm a broadcast to wake the loop at
	// the deadline so it can observe the timeout.
	timer := time.AfterFunc(timeout, func() {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if n.stopped {
			return ErrStopped
		}
		if n.commitIndex >= index {
			return nil
		}
		if !time.Now().Before(deadline) {
			return ErrWaitTimeout
		}
		n.cond.Wait()
	}
}

// maybeAdvanceCommitLocked applies the majority-ack commit rule: the
// leader commits the highest index that (a) a majority of nodes —
// counting itself via stableIndex — hold durably, and (b) belongs to
// the current term (entries from earlier terms commit transitively
// once a current-term entry above them commits, the standard safety
// refinement).
func (n *Node) maybeAdvanceCommitLocked() {
	if n.role != Leader {
		return
	}
	best := n.commitIndex
	for idx := n.commitIndex + 1; idx <= uint64(len(n.log)); idx++ {
		votes := boolToInt(n.stableIndex >= idx)
		for _, m := range n.matchIndex {
			if m >= idx {
				votes++
			}
		}
		if votes < n.majority() {
			break
		}
		if n.log[idx-1].Term == n.term {
			best = idx
		}
	}
	if best > n.commitIndex {
		n.commitIndex = best
	}
	n.cond.Broadcast()
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// majority returns the quorum size for the group (peers + self).
func (n *Node) majority() int { return (len(n.cfg.Peers)+1)/2 + 1 }

// quorumLostLocked reports whether a majority of peers have stopped
// answering appends for several election timeouts. The window is wide
// enough that ordinary heartbeat cadence (ElectionTimeout/3) refreshes
// every live peer many times over, so it only fires on real loss.
// Single-node groups have no peers and never step down.
func (n *Node) quorumLostLocked() bool {
	if len(n.cfg.Peers) == 0 {
		return false
	}
	window := 3 * n.cfg.ElectionTimeout
	live := 1 // self
	for id := range n.cfg.Peers {
		if time.Since(n.lastAck[id]) <= window {
			live++
		}
	}
	return live < n.majority()
}

// timerLoop drives elections (followers/candidates) and heartbeats
// (leaders).
func (n *Node) timerLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		role := n.role
		timeout := n.cfg.ElectionTimeout + time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
		lastHeard := n.lastHeard
		n.mu.Unlock()

		var wait time.Duration
		if role == Leader {
			wait = n.cfg.heartbeat
		} else {
			wait = time.Until(lastHeard.Add(timeout))
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
		}
		select {
		case <-n.stopCh:
			return
		case <-n.elected:
			continue // now leader: wait a heartbeat interval instead
		case <-time.After(wait):
		}

		n.mu.Lock()
		switch n.role {
		case Leader:
			if n.quorumLostLocked() {
				// Check-quorum: a leader that cannot reach a majority
				// will never commit again; stepping down releases every
				// proposal blocked in WaitCommitted with ErrDeposed so
				// callers fail over (or degrade) instead of hanging.
				n.role = Follower
				n.leaderHint = -1
				n.cond.Broadcast()
				n.mu.Unlock()
				continue
			}
			n.mu.Unlock()
			go n.broadcastAppend()
		case Follower, Candidate:
			if time.Since(n.lastHeard) >= timeout {
				n.startElectionLocked() // unlocks
			} else {
				n.mu.Unlock()
			}
		default:
			n.mu.Unlock()
		}
	}
}
