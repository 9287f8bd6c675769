package paxos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tashkent/internal/chaos"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
	"tashkent/internal/wal"
)

// quietTimeout is an election timeout no test here lives long enough to
// see fire: whatever gets elected, Campaign elected it.
const quietTimeout = 5 * time.Second

// quietConfig is member id of an n-node group on fabric whose election
// timers stay silent; the leader still heartbeats every 5 ms so a
// joining node is caught up promptly.
func quietConfig(fabric *transport.LocalFabric, id, n int) Config {
	peers := make(map[int]transport.Client)
	for j := 0; j < n; j++ {
		if j != id {
			peers[j] = fabric.Dial(fmt.Sprintf("cert%d", j))
		}
	}
	return Config{
		ID:              id,
		Peers:           peers,
		Disk:            simdisk.New(simdisk.Instant(), int64(id)),
		ElectionTimeout: quietTimeout,
		Seed:            int64(id) + 1,
		heartbeat:       5 * time.Millisecond,
	}
}

// newQuietGroup serves and starts n brand-new nodes; nobody campaigns.
func newQuietGroup(t *testing.T, n int) *group {
	t.Helper()
	g := &group{fabric: transport.NewLocalFabric(0)}
	for i := 0; i < n; i++ {
		node := NewNode(quietConfig(g.fabric, i, n))
		g.nodes = append(g.nodes, node)
		g.servers = append(g.servers, g.fabric.Serve(fmt.Sprintf("cert%d", i), node.HandleRPC))
	}
	for _, node := range g.nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range g.nodes {
			node.Stop()
		}
	})
	return g
}

// waitFor fails the test unless cond holds within a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !chaos.WaitUntil(time.Second, cond) {
		t.Fatalf("not within 1s: %s", what)
	}
}

func isLeader(n *Node) bool {
	r, _ := n.Role()
	return r == Leader
}

func TestCampaignLeadsFreshGroupWithoutTimeout(t *testing.T) {
	g := newQuietGroup(t, 3)
	g.nodes[0].Campaign()
	waitFor(t, "node 0 leads", func() bool { return isLeader(g.nodes[0]) })
	// A leader that can commit a barrier, not just one that calls itself
	// leader.
	if idx := proposeAndWait(t, g.nodes[0], "barrier"); idx != 1 {
		t.Errorf("first entry at index %d, want 1", idx)
	}
	waitFor(t, "followers hold the entry", func() bool {
		return g.nodes[1].LogLength() == 1 && g.nodes[2].LogLength() == 1
	})
	for i, n := range g.nodes {
		if _, term := n.Role(); term != 1 {
			t.Errorf("node %d at term %d, want 1: one election round, no timer", i, term)
		}
	}
}

// metaImage is a WAL image holding one meta record.
func metaImage(term uint64, votedFor int) []byte {
	w := wal.New(simdisk.New(simdisk.Instant(), 1), wal.SyncCommits)
	defer w.Close()
	w.Append(metaRecord(term, votedFor))
	return w.CrashImage(0)
}

func TestCampaignIsNoOpUnlessVirginRunningFollower(t *testing.T) {
	// A group member with a history: its log and term survive in its image.
	g := newQuietGroup(t, 3)
	g.nodes[0].Campaign()
	waitFor(t, "node 0 leads", func() bool { return isLeader(g.nodes[0]) })
	proposeAndWait(t, g.nodes[0], "e1")
	waitFor(t, "node 1 holds e1 durably", func() bool {
		recs, err := wal.Scan(g.nodes[1].WALImage())
		return err == nil && len(recs) >= 2 // vote + entry
	})

	cases := []struct {
		name  string
		image []byte // nil = brand new
		start bool
		stop  bool
	}{
		{name: "restored non-empty log", image: g.nodes[1].WALImage(), start: true},
		{name: "restored non-zero term", image: metaImage(3, -1), start: true},
		{name: "not started", start: false},
		{name: "stopped", start: true, stop: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Peers nobody serves: an election, if one started, would leave
			// the node a candidate with a raised term and a meta fsync.
			cfg := quietConfig(transport.NewLocalFabric(0), 0, 3)
			n := NewNode(cfg)
			defer n.Stop()
			if tc.image != nil {
				if err := n.RestoreFromImage(tc.image); err != nil {
					t.Fatal(err)
				}
			}
			if tc.start {
				n.Start()
			}
			if tc.stop {
				n.Stop()
			}
			_, term := n.Role()
			n.Campaign()
			if role, after := n.Role(); role != Follower || after != term {
				t.Errorf("after Campaign: %v at term %d, want follower at term %d", role, after, term)
			}
			if fs := cfg.Disk.Stats().Fsyncs; fs != 0 {
				t.Errorf("Campaign cost %d fsyncs, want 0", fs)
			}
		})
	}

	t.Run("candidate and leader", func(t *testing.T) {
		// The leader campaigns again: nothing moves.
		g.nodes[0].Campaign()
		if role, term := g.nodes[0].Role(); role != Leader || term != 1 {
			t.Errorf("leader after Campaign: %v at term %d, want leader at term 1", role, term)
		}
		// A candidate nobody answers stays in the term it is asking for.
		n := NewNode(quietConfig(transport.NewLocalFabric(0), 0, 3))
		defer n.Stop()
		n.Start()
		n.Campaign()
		n.Campaign()
		if role, term := n.Role(); role != Candidate || term != 1 {
			t.Errorf("candidate after a second Campaign: %v at term %d, want candidate at term 1", role, term)
		}
	})
}

// A node that lost its disk rejoins a live group under its old id and
// campaigns. Term 1 is not above the group's term and its empty log
// loses the up-to-date check, so the group never notices; the leader's
// next heartbeat makes it a follower and ships it the log. (That
// heartbeat also shows a leader elected from outside its timer loop
// starts its cadence at once: the election timers here never fire.)
func TestVirginJoinerCampaignLeavesLeaderAlone(t *testing.T) {
	for _, victim := range []int{1, 0} {
		t.Run(fmt.Sprintf("replaces node %d", victim), func(t *testing.T) {
			g := newQuietGroup(t, 3)
			// Node 2 leads so that victim 0 is a follower too: replacing
			// the leader is a failover, which is the timeout path's job.
			g.nodes[2].Campaign()
			waitFor(t, "node 2 leads", func() bool { return isLeader(g.nodes[2]) })
			for i := 0; i < 3; i++ {
				proposeAndWait(t, g.nodes[2], fmt.Sprintf("e%d", i))
			}
			g.nodes[victim].Stop()
			g.servers[victim].Close()

			joiner := NewNode(quietConfig(g.fabric, victim, 3))
			g.fabric.Serve(fmt.Sprintf("cert%d", victim), joiner.HandleRPC)
			joiner.Start()
			defer joiner.Stop()
			joiner.Campaign()

			waitFor(t, "joiner follows and holds the log", func() bool {
				role, _ := joiner.Role()
				return role == Follower && joiner.LogLength() == 3 && joiner.LeaderHint() == 2
			})
			if role, term := g.nodes[2].Role(); role != Leader || term != 1 {
				t.Errorf("old leader is now %v at term %d, want leader at term 1", role, term)
			}
			if _, term := joiner.Role(); term != 1 {
				t.Errorf("joiner at term %d, want the group's term 1", term)
			}
			// The group still commits through the same leader.
			if idx := proposeAndWait(t, g.nodes[2], "after"); idx != 4 {
				t.Errorf("next entry at index %d, want 4", idx)
			}
		})
	}
}

// voterWithEntry is a lone, never-started node holding one entry of
// term 1, as if restored after a crash: it answers vote requests and
// does nothing of its own accord.
func voterWithEntry(t *testing.T, disk *simdisk.Disk) *Node {
	t.Helper()
	w := wal.New(simdisk.New(simdisk.Instant(), 1), wal.SyncCommits)
	defer w.Close()
	wait, err := w.AppendBatchAsync(entryRecords([]Entry{{Index: 1, Term: 1, Data: []byte("e")}}))
	if err != nil {
		t.Fatal(err)
	}
	wait()
	n := NewNode(Config{ID: 0, Disk: disk})
	if err := n.RestoreFromImage(w.CrashImage(0)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

func TestVoteCostsOneFsync(t *testing.T) {
	disk := simdisk.New(simdisk.Instant(), 7)
	voter := voterWithEntry(t, disk)

	// Higher term, log at least as good: the term bump and the vote are
	// one record.
	if r := voter.handleVote(voteArgs{Term: 5, Candidate: 1, LastIndex: 1, LastTerm: 1}); !r.Granted || r.Term != 5 {
		t.Fatalf("vote in term 5: %+v, want granted", r)
	}
	if fs := disk.Stats().Fsyncs; fs != 1 {
		t.Errorf("granted higher-term vote cost %d fsyncs, want 1", fs)
	}
	// Higher term, stale log: refused, and the term alone is persisted.
	if r := voter.handleVote(voteArgs{Term: 6, Candidate: 2}); r.Granted || r.Term != 6 {
		t.Fatalf("vote for an empty log in term 6: %+v, want refused at term 6", r)
	}
	if fs := disk.Stats().Fsyncs; fs != 2 {
		t.Errorf("refused higher-term vote brought fsyncs to %d, want 2", fs)
	}
	// Lower term: refused without touching the disk.
	if r := voter.handleVote(voteArgs{Term: 4, Candidate: 2, LastIndex: 9, LastTerm: 4}); r.Granted {
		t.Fatalf("vote in a past term granted: %+v", r)
	}
	if fs := disk.Stats().Fsyncs; fs != 2 {
		t.Errorf("stale vote request brought fsyncs to %d, want 2", fs)
	}
}

// The one record must hold both halves: a voter that crashes right after
// its reply comes back knowing the term and whom it voted for in it.
func TestVoteSurvivesVoterCrash(t *testing.T) {
	voter := voterWithEntry(t, simdisk.New(simdisk.Instant(), 7))
	ask := func(n *Node, candidate int) voteReply {
		return n.handleVote(voteArgs{Term: 5, Candidate: candidate, LastIndex: 1, LastTerm: 1})
	}
	if r := ask(voter, 1); !r.Granted {
		t.Fatalf("first vote: %+v, want granted", r)
	}
	image := voter.WALImage() // the stable prefix: what a crash now leaves
	voter.Stop()

	restored := NewNode(Config{ID: 0})
	defer restored.Stop()
	if err := restored.RestoreFromImage(image); err != nil {
		t.Fatal(err)
	}
	if _, term := restored.Role(); term != 5 {
		t.Fatalf("restored voter at term %d, want 5", term)
	}
	if r := ask(restored, 2); r.Granted {
		t.Errorf("restored voter granted a second candidate in the same term: %+v", r)
	}
	if r := ask(restored, 1); !r.Granted {
		t.Errorf("restored voter refused the candidate it had voted for: %+v", r)
	}
}

// holdFsyncs makes every fsync on disk wait until the returned release
// is called (release is idempotent and also runs at cleanup, before the
// group stops: Stop drains the WAL and would otherwise wait on the hook).
// held is closed when the first fsync is being held.
func holdFsyncs(t *testing.T, disk *simdisk.Disk) (held <-chan struct{}, release func()) {
	t.Helper()
	heldCh, gate := make(chan struct{}), make(chan struct{})
	var heldOnce, releaseOnce sync.Once
	disk.SetHook(func(op simdisk.Op, _, _ int) {
		if op != simdisk.OpFsync {
			return
		}
		heldOnce.Do(func() { close(heldCh) })
		<-gate
	})
	release = func() { releaseOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return heldCh, release
}

// durableVote reads the term and vote a crash of n would leave.
func durableVote(t *testing.T, n *Node) (term uint64, votedFor int) {
	t.Helper()
	restored := NewNode(Config{ID: n.cfg.ID})
	defer restored.Stop()
	if err := restored.RestoreFromImage(n.WALImage()); err != nil {
		t.Fatal(err)
	}
	return restored.term, restored.votedFor
}

// campaignHeld campaigns node 0 of g with its meta fsync held and waits
// until both peers hold a durable vote for it in term 1. Campaign must
// return without waiting for its own flush.
func campaignHeld(t *testing.T, g *group) (release func()) {
	t.Helper()
	held, release := holdFsyncs(t, g.nodes[0].cfg.Disk)
	returned := make(chan struct{})
	go func() {
		g.nodes[0].Campaign()
		close(returned)
	}()
	select {
	case <-held:
	case <-time.After(time.Second):
		t.Fatal("the candidate's meta fsync never started")
	}
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("Campaign waited for the candidate's own flush")
	}
	for _, peer := range g.nodes[1:] {
		waitFor(t, fmt.Sprintf("node %d grants node 0 durably while its flush is held", peer.cfg.ID), func() bool {
			term, vote := durableVote(t, peer)
			return term == 1 && vote == 0
		})
	}
	return release
}

func TestCampaignAsksBeforeOwnVoteIsDurable(t *testing.T) {
	g := newQuietGroup(t, 3)
	release := campaignHeld(t, g)
	// Both grants are in (or on their way): a majority without the
	// candidate's own vote, which is not durable yet, so no leader.
	for i := 0; i < 20; i++ {
		if isLeader(g.nodes[0]) {
			t.Fatal("candidate leads before its own vote is durable")
		}
		time.Sleep(time.Millisecond)
	}
	if term, _ := durableVote(t, g.nodes[0]); term != 0 {
		t.Fatalf("candidate's durable term %d while its flush is held, want 0", term)
	}
	release()
	waitFor(t, "node 0 leads once its vote is durable", func() bool { return isLeader(g.nodes[0]) })
	if term, vote := durableVote(t, g.nodes[0]); term != 1 || vote != 0 {
		t.Errorf("leader's durable meta: term %d vote %d, want term 1 vote 0", term, vote)
	}
	if idx := proposeAndWait(t, g.nodes[0], "barrier"); idx != 1 {
		t.Errorf("first entry at index %d, want 1", idx)
	}
}

// A candidate that crashes while its own vote is still in flight comes
// back below the term it asked for and never led in it; the votes it
// collected stay durable at the voters, and the group goes on electing
// one leader per term.
func TestCampaignCrashBeforeOwnVoteIsDurable(t *testing.T) {
	g := newQuietGroup(t, 3)

	// Every role every node reports, sampled until the test ends.
	var mu sync.Mutex
	leaders := map[uint64]map[int]bool{} // term -> ids seen leading it
	done := make(chan struct{})
	sampled := make(chan struct{})
	nodes := func() []*Node { mu.Lock(); defer mu.Unlock(); return append([]*Node(nil), g.nodes...) }
	// The last pass comes after done: a sampler starved of CPU for the
	// whole test still sees the group as the test leaves it.
	go func() {
		defer close(sampled)
		for finished := false; !finished; {
			select {
			case <-done:
				finished = true
			case <-time.After(50 * time.Microsecond):
			}
			for id, n := range nodes() {
				if role, term := n.Role(); role == Leader {
					mu.Lock()
					if leaders[term] == nil {
						leaders[term] = map[int]bool{}
					}
					leaders[term][id] = true
					mu.Unlock()
				}
			}
		}
	}()

	release := campaignHeld(t, g)
	image := g.nodes[0].WALImage() // what a crash before the flush leaves
	crashed := make(chan struct{})
	go func() {
		g.nodes[0].Stop()
		close(crashed)
	}()
	waitFor(t, "node 0 stops", g.nodes[0].Stopped)
	release()
	<-crashed
	g.servers[0].Close()

	restored := NewNode(quietConfig(g.fabric, 0, 3))
	if err := restored.RestoreFromImage(image); err != nil {
		t.Fatal(err)
	}
	if role, term := restored.Role(); role != Follower || term != 0 {
		t.Fatalf("restored candidate is %v at term %d, want a follower below term 1", role, term)
	}
	mu.Lock()
	g.nodes[0] = restored
	mu.Unlock()
	g.servers[0] = g.fabric.Serve("cert0", restored.HandleRPC)
	restored.Start()

	// Node 1 times out: term 2, and the group elects it.
	g.nodes[1].mu.Lock()
	g.nodes[1].startElectionLocked()
	waitFor(t, "node 1 leads", func() bool { return isLeader(g.nodes[1]) })
	if idx := proposeAndWait(t, g.nodes[1], "after"); idx != 1 {
		t.Errorf("first entry at index %d, want 1", idx)
	}
	waitFor(t, "every node follows term 2", func() bool {
		for _, n := range nodes() {
			if _, term := n.Role(); term != 2 {
				return false
			}
		}
		return true
	})

	close(done)
	<-sampled
	mu.Lock()
	defer mu.Unlock()
	if len(leaders[1]) != 0 {
		t.Errorf("term 1 had leaders %v; its candidate crashed before its vote was durable", leaders[1])
	}
	for term, ids := range leaders {
		if len(ids) > 1 {
			t.Errorf("term %d had %d leaders: %v", term, len(ids), ids)
		}
	}
	if !leaders[2][1] {
		t.Errorf("node 1 never seen leading term 2: %v", leaders)
	}
}
