package paxos

import (
	"fmt"
	"sync"
	"time"

	"tashkent/internal/transport"
)

// RPC argument/reply types (wire forms in codec.go).

type voteArgs struct {
	Term      uint64
	Candidate int
	LastIndex uint64
	LastTerm  uint64
}

type voteReply struct {
	Term    uint64
	Granted bool
}

type appendArgs struct {
	Term      uint64
	LeaderID  int
	PrevIndex uint64
	PrevTerm  uint64
	Entries   []Entry
	Commit    uint64
}

type appendReply struct {
	Term  uint64
	OK    bool
	Match uint64 // on success: last replicated index; on failure: a backup hint
}

type fetchArgs struct {
	From uint64
}

type fetchReply struct {
	Entries []Entry
	Commit  uint64
}

// Method names on the transport.
const (
	MethodVote   = "paxos.vote"
	MethodAppend = "paxos.append"
	MethodFetch  = "paxos.fetch"
)

// HandleRPC dispatches a transport request to the protocol. The owner
// (the certifier server) routes all "paxos.*" methods here.
func (n *Node) HandleRPC(method string, req []byte) ([]byte, error) {
	// A stopped node simulates a crashed process: it must not answer.
	// Answering would let a quorum-less leader keep counting this peer
	// as live (check-quorum) or even ack entries the "crash" discarded.
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if stopped {
		return nil, ErrStopped
	}
	switch method {
	case MethodVote:
		var args voteArgs
		if err := transport.DecodeMessage(req, &args); err != nil {
			return nil, err
		}
		reply := n.handleVote(args)
		return transport.EncodeMessage(&reply)
	case MethodAppend:
		var args appendArgs
		if err := transport.DecodeMessage(req, &args); err != nil {
			return nil, err
		}
		reply := n.handleAppend(args)
		return transport.EncodeMessage(&reply)
	case MethodFetch:
		var args fetchArgs
		if err := transport.DecodeMessage(req, &args); err != nil {
			return nil, err
		}
		reply := n.handleFetch(args)
		return transport.EncodeMessage(&reply)
	default:
		return nil, fmt.Errorf("paxos: unknown method %q", method)
	}
}

// callPeer sends one RPC to a peer, consulting the pluggable call hook
// first: a hook error suppresses the send, which every caller already
// treats as an unreachable peer (chaos link cuts, targeted isolation).
func (n *Node) callPeer(peer int, client transport.Client, method string, req []byte) ([]byte, error) {
	if h := n.cfg.CallHook; h != nil {
		if err := h(peer, method); err != nil {
			return nil, err
		}
	}
	return client.Call(method, req)
}

// persistMetaLocked writes term/vote durably. Called with n.mu held;
// temporarily releases it around the disk write.
func (n *Node) persistMetaLocked() {
	rec := metaRecord(n.term, n.votedFor)
	n.mu.Unlock()
	// The only error is a closed WAL, on a node that is stopping.
	_ = n.wal.Append(rec)
	n.mu.Lock()
}

func (n *Node) handleVote(args voteArgs) voteReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if args.Term < n.term {
		return voteReply{Term: n.term, Granted: false}
	}
	// Decide first, persist once: a higher term and the vote cast in it
	// are one meta record and one fsync, still before the reply leaves.
	// The vote is taken under this lock hold, so a second candidate of
	// the same term that arrives during the disk write is refused.
	newTerm := args.Term > n.term
	if newTerm {
		n.term = args.Term
		n.votedFor = -1
		n.role = Follower
	}
	lastIdx := uint64(len(n.log))
	var lastTerm uint64
	if lastIdx > 0 {
		lastTerm = n.log[lastIdx-1].Term
	}
	upToDate := args.LastTerm > lastTerm ||
		(args.LastTerm == lastTerm && args.LastIndex >= lastIdx)
	granted := (n.votedFor == -1 || n.votedFor == args.Candidate) && upToDate
	if granted {
		n.votedFor = args.Candidate
		n.lastHeard = nowFunc()
	}
	reply := voteReply{Term: n.term, Granted: granted}
	// A repeated grant writes its record again: the WAL is sequential, so
	// the reply then also waits out the first grant's pending fsync.
	if newTerm || granted {
		n.persistMetaLocked()
	}
	return reply
}

func (n *Node) handleAppend(args appendArgs) appendReply {
	// Pre-encode every entry before taking the lock: encoding is pure
	// CPU work, and a catch-up round can carry thousands of entries —
	// serializing that with elections and heartbeats under n.mu would
	// stall the whole node. Entries that turn out to be duplicates cost
	// a wasted encode, which only happens on rare overlap.
	encoded := entryRecords(args.Entries)

	n.mu.Lock()
	if args.Term < n.term {
		defer n.mu.Unlock()
		return appendReply{Term: n.term, OK: false, Match: 0}
	}
	if args.Term > n.term || n.role != Follower {
		n.term = args.Term
		n.votedFor = args.LeaderID
		n.role = Follower
		n.persistMetaLocked()
	}
	n.leaderHint = args.LeaderID
	n.lastHeard = nowFunc()

	// Consistency check at PrevIndex.
	if args.PrevIndex > uint64(len(n.log)) {
		hint := n.commitIndex
		n.mu.Unlock()
		return appendReply{Term: args.Term, OK: false, Match: hint}
	}
	if args.PrevIndex > 0 && n.log[args.PrevIndex-1].Term != args.PrevTerm {
		hint := n.commitIndex
		n.mu.Unlock()
		return appendReply{Term: args.Term, OK: false, Match: hint}
	}
	// Append entries, truncating any conflicting suffix.
	var payloads [][]byte
	for i, e := range args.Entries {
		idx := args.PrevIndex + uint64(i) + 1
		if idx <= uint64(len(n.log)) {
			if n.log[idx-1].Term == e.Term {
				continue // already have it
			}
			n.log = n.log[:idx-1]
			if n.stableIndex > idx-1 {
				n.stableIndex = idx - 1
			}
		}
		n.log = append(n.log, e)
		payloads = append(payloads, encoded[i])
	}
	match := args.PrevIndex + uint64(len(args.Entries))

	// Enqueue the round's WAL insertion while still holding n.mu so the
	// image order matches the memory log's truncate/append order — a
	// concurrent round (or a deposed leader's in-flight proposal) must
	// not slip its records in between. The fsync wait happens outside
	// the lock; the reply is sent only after our disk write, as the
	// paper requires ("All certifiers write the new state to disk and
	// reply").
	var waitDurable func() error
	var err error
	if len(payloads) > 0 {
		waitDurable, err = n.wal.AppendBatchAsync(payloads)
	} else if match > n.stableIndex {
		// Duplicate round or heartbeat covering entries we hold only in
		// memory: their WAL records were enqueued when they were first
		// appended (memory and WAL order are locked together), but the
		// fsync may still be in flight — and the reply below vouches
		// durability, so wait for the barrier rather than ack early.
		waitDurable, err = n.wal.Barrier()
	}
	if err != nil {
		n.mu.Unlock()
		return appendReply{Term: args.Term, OK: false}
	}
	n.mu.Unlock()

	if waitDurable != nil {
		if err := waitDurable(); err != nil {
			return appendReply{Term: args.Term, OK: false}
		}
	}

	n.mu.Lock()
	// Advance stableIndex only if the log still holds what this round
	// delivered: while we waited for the fsync, a newer leader's round
	// may have truncated and swapped in entries whose own flush is
	// still pending — vouching for those would ack durability we do
	// not have. Same-term entries at the same index are identical
	// (one leader per term), so the term check is sufficient.
	intact := match <= uint64(len(n.log))
	if intact && match > 0 {
		if len(args.Entries) > 0 {
			intact = n.log[match-1].Term == args.Entries[len(args.Entries)-1].Term
		} else {
			// Zero-entry round (heartbeat): the entry at match must
			// still be the one the consistency check saw, or a
			// truncation during the barrier wait swapped in records
			// whose own fsync is pending.
			intact = n.log[match-1].Term == args.PrevTerm
		}
	}
	if intact && match > n.stableIndex {
		n.stableIndex = match
	}
	if args.Commit > n.commitIndex {
		c := args.Commit
		if l := uint64(len(n.log)); c > l {
			c = l
		}
		n.commitIndex = c
	}
	n.cond.Broadcast()
	term := n.term
	n.mu.Unlock()
	return appendReply{Term: term, OK: true, Match: match}
}

func (n *Node) handleFetch(args fetchArgs) fetchReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if args.From == 0 {
		args.From = 1
	}
	var out []Entry
	if args.From <= n.commitIndex {
		out = make([]Entry, n.commitIndex-args.From+1)
		copy(out, n.log[args.From-1:n.commitIndex])
	}
	return fetchReply{Entries: out, Commit: n.commitIndex}
}

// Fetch pulls committed entries [from, commit] from a peer — the
// recovering certifier's state transfer (paper §9.6: "essentially a
// file transfer").
func Fetch(peer interface {
	Call(method string, req []byte) ([]byte, error)
}, from uint64) ([]Entry, uint64, error) {
	req, err := transport.EncodeMessage(&fetchArgs{From: from})
	if err != nil {
		return nil, 0, err
	}
	respB, err := peer.Call(MethodFetch, req)
	if err != nil {
		return nil, 0, err
	}
	var resp fetchReply
	if err := transport.DecodeMessage(respB, &resp); err != nil {
		return nil, 0, err
	}
	return resp.Entries, resp.Commit, nil
}

// startElectionLocked transitions to candidate and solicits votes.
// Called with n.mu held; it unlocks.
func (n *Node) startElectionLocked() {
	n.role = Candidate
	n.term++
	n.votedFor = n.cfg.ID
	n.lastHeard = nowFunc()
	term := n.term
	lastIdx := uint64(len(n.log))
	var lastTerm uint64
	if lastIdx > 0 {
		lastTerm = n.log[lastIdx-1].Term
	}
	n.persistMetaLocked()
	peers := n.cfg.Peers
	n.mu.Unlock()

	args := voteArgs{Term: term, Candidate: n.cfg.ID, LastIndex: lastIdx, LastTerm: lastTerm}
	req, err := transport.EncodeMessage(&args)
	if err != nil {
		return
	}
	var mu sync.Mutex
	votes := 1 // self
	decided := false
	var wg sync.WaitGroup
	for id, client := range peers {
		id, client := id, client
		wg.Add(1)
		go func() {
			defer wg.Done()
			respB, err := n.callPeer(id, client, MethodVote, req)
			if err != nil {
				return
			}
			var resp voteReply
			if err := transport.DecodeMessage(respB, &resp); err != nil {
				return
			}
			n.mu.Lock()
			if resp.Term > n.term {
				n.term = resp.Term
				n.role = Follower
				n.votedFor = -1
				n.persistMetaLocked()
				n.mu.Unlock()
				return
			}
			n.mu.Unlock()
			if !resp.Granted {
				return
			}
			mu.Lock()
			votes++
			win := votes >= n.majority() && !decided
			if win {
				decided = true
			}
			mu.Unlock()
			_ = id
			if win {
				n.becomeLeader(term)
			}
		}()
	}
	// Single-node group: immediate win.
	if len(peers) == 0 {
		n.becomeLeader(term)
	}
	go wg.Wait()
}

// becomeLeader installs leader state if still a candidate for term.
func (n *Node) becomeLeader(term uint64) {
	n.mu.Lock()
	if n.stopped || n.role != Candidate || n.term != term {
		n.mu.Unlock()
		return
	}
	n.role = Leader
	n.leaderHint = n.cfg.ID
	n.matchIndex = make(map[int]uint64)
	if n.nextIndex == nil {
		n.nextIndex = make(map[int]uint64)
	}
	n.lastAck = make(map[int]time.Time)
	now := time.Now()
	for id := range n.cfg.Peers {
		n.nextIndex[id] = uint64(len(n.log)) + 1
		n.matchIndex[id] = 0
		n.lastAck[id] = now // fresh grant: give every peer a full check-quorum window
	}
	// Our whole local log is stable (it was recovered from / written
	// through the WAL) except volatile leader appends, which track via
	// finishPersist. Conservative: keep current stableIndex.
	n.mu.Unlock()
	select {
	case n.elected <- struct{}{}:
	default:
	}
	n.broadcastAppend()
}

// broadcastAppend pushes outstanding entries (or a heartbeat) to every
// peer. Per-peer sends are serialized by an inflight flag so a slow
// follower gets one batched catch-up rather than a pile of overlapping
// RPCs.
func (n *Node) broadcastAppend() {
	n.mu.Lock()
	if n.role != Leader || n.stopped {
		n.mu.Unlock()
		return
	}
	peers := make([]int, 0, len(n.cfg.Peers))
	for id := range n.cfg.Peers {
		peers = append(peers, id)
	}
	n.mu.Unlock()
	for _, id := range peers {
		go n.replicateTo(id)
	}
}

// replicateTo sends one append round to a peer, retrying backwards on
// log mismatch until it lands or leadership is lost. A round whose last
// call got an answer goes again while the peer is behind; one that got
// none leaves the peer to the next heartbeat or proposal, so a cut link
// is not retried in a loop.
func (n *Node) replicateTo(peer int) {
	n.mu.Lock()
	if n.inflight == nil {
		n.inflight = make(map[int]bool)
	}
	if n.inflight[peer] || n.role != Leader || n.stopped {
		n.mu.Unlock()
		return
	}
	n.inflight[peer] = true
	n.mu.Unlock()
	answered := false
	defer func() {
		n.mu.Lock()
		n.inflight[peer] = false
		more := answered && n.role == Leader && !n.stopped && n.nextIndex[peer] <= uint64(len(n.log))
		n.mu.Unlock()
		if more {
			go n.replicateTo(peer)
		}
	}()

	for attempt := 0; attempt < 64; attempt++ {
		n.mu.Lock()
		if n.role != Leader || n.stopped {
			n.mu.Unlock()
			return
		}
		next := n.nextIndex[peer]
		if next == 0 {
			next = 1
		}
		prevIdx := next - 1
		var prevTerm uint64
		if prevIdx > 0 && prevIdx <= uint64(len(n.log)) {
			prevTerm = n.log[prevIdx-1].Term
		}
		entries := make([]Entry, uint64(len(n.log))-prevIdx)
		copy(entries, n.log[prevIdx:])
		args := appendArgs{
			Term: n.term, LeaderID: n.cfg.ID,
			PrevIndex: prevIdx, PrevTerm: prevTerm,
			Entries: entries, Commit: n.commitIndex,
		}
		client := n.cfg.Peers[peer]
		n.mu.Unlock()

		req, err := transport.EncodeMessage(&args)
		if err != nil {
			return
		}
		answered = false
		respB, err := n.callPeer(peer, client, MethodAppend, req)
		if err != nil {
			return // peer down; heartbeat will retry
		}
		var resp appendReply
		if err := transport.DecodeMessage(respB, &resp); err != nil {
			return
		}
		answered = true

		n.mu.Lock()
		if n.lastAck != nil {
			n.lastAck[peer] = time.Now() // any answer counts for check-quorum
		}
		if resp.Term > n.term {
			n.term = resp.Term
			n.role = Follower
			n.votedFor = -1
			n.persistMetaLocked()
			n.cond.Broadcast()
			n.mu.Unlock()
			return
		}
		if n.role != Leader || n.term != args.Term {
			n.mu.Unlock()
			return
		}
		if resp.OK {
			if resp.Match > n.matchIndex[peer] {
				n.matchIndex[peer] = resp.Match
			}
			n.nextIndex[peer] = resp.Match + 1
			n.maybeAdvanceCommitLocked()
			n.mu.Unlock()
			return
		}
		// Mismatch: back up using the follower's hint and retry.
		backup := resp.Match + 1
		if backup >= next && next > 1 {
			backup = next - 1
		}
		if backup < 1 {
			backup = 1
		}
		n.nextIndex[peer] = backup
		n.mu.Unlock()
	}
}
