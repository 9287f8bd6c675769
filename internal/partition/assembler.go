package partition

import (
	"fmt"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
)

// Topology is what a partitioned replica needs to reach the certifier
// tier: the partition map and one failover client per group.
type Topology struct {
	Map    Map
	Groups []*certifier.Client
}

// Action is one step of the merged apply order. MV is the merged
// version the step announces; exactly one Action exists per committed
// entry of every group, so merged versions are dense across the
// cluster and identical on every replica.
//
// WS is nil for steps that install nothing (fill/barrier no-ops,
// prepares and markers other than the one at the union's position): the
// replica just announces MV. For a data entry WS is its writeset; at a
// cross-partition transaction's union position WS is the union of all
// its prepared parts, applied atomically at that merged version.
//
// The union position P of a transaction every involved group voted yes
// for is the earlier of (a) the merge position of its last involved
// group's prepare and (b) the position of its first commit marker. A
// group's vote is the first record its log holds for the gid — a
// prepare is yes, an abort marker no — and no group accepts a second
// vote, so once every involved group's prepare is merged the outcome is
// fixed: the union applies there, one round after the client began to
// commit, and the commit markers that follow only announce. A union with
// a no vote never reaches (a), its groups carry no commit marker, and
// its parts are dropped at its first abort marker.
//
// (b) stays because a group's certifier publishes a committed union's
// items at its marker, not at its prepare: a snapshot that does not see
// the union must stand below every group's marker in that group's
// version space, or a later writer of those items could certify against
// it without a conflict. P ≤ the first marker guarantees that. (b) comes
// first only when the groups' index spaces are skewed — one group's
// marker merging before another group's prepare.
type Action struct {
	MV     uint64
	Group  int
	Index  uint64
	Origin int
	// GID is nonzero when this action commits a cross-partition
	// transaction (the union position).
	GID uint64
	WS  *core.Writeset
}

// gidState accumulates a cross-partition transaction's parts until its
// union applies, and then stays as a tombstone until every involved
// group's commit marker has passed. An abort marker drops it.
type gidState struct {
	parts    map[int]*core.Writeset
	origin   int
	involved []int
	applied  uint64 // merged version the union applied at (0: not yet)
	votes    int    // involved groups whose prepare is merged
	markers  int    // commit markers merged
}

// Assembler rebuilds the single merged apply order from N per-group
// committed streams. The merge rule is pure bookkeeping: the next
// entry is the one with the smallest (next index, group id) pair, so
// any two replicas that have the same per-group prefixes emit the
// same merged order. Not safe for concurrent use; callers serialize.
type Assembler struct {
	n        int
	next     []uint64                     // per-group next index to emit
	frontier []uint64                     // per-group highest contiguous index received
	buf      []map[uint64]certifier.Entry // received, unemitted entries
	gids     map[uint64]*gidState
	merged   uint64 // merged versions emitted so far

	blockGroup int // group Next is stalled on (-1 = none)
	blockIndex uint64
}

// NewAssembler returns an empty assembler over n groups.
func NewAssembler(n int) *Assembler {
	a := &Assembler{
		n:          n,
		next:       make([]uint64, n),
		frontier:   make([]uint64, n),
		buf:        make([]map[uint64]certifier.Entry, n),
		gids:       make(map[uint64]*gidState),
		blockGroup: -1,
	}
	for g := range a.next {
		a.next[g] = 1
		a.buf[g] = make(map[uint64]certifier.Entry)
	}
	return a
}

// Offer feeds one committed entry of group g at the given log index.
// Duplicates and already-emitted indexes are ignored. Prepare parts
// register immediately on receipt (not on emission): a commit marker
// in a fast group may reach its merge position long before the slow
// group's prepare entry does, and the union must not wait for the
// prepare's own — much later — merge position (rule (b) at Action).
func (a *Assembler) Offer(g int, index uint64, raw []byte) error {
	if g < 0 || g >= a.n {
		return fmt.Errorf("partition: offer to group %d of %d", g, a.n)
	}
	if index < a.next[g] {
		return nil // already emitted
	}
	if _, dup := a.buf[g][index]; dup {
		return nil
	}
	e, err := certifier.DecodeLogEntry(raw)
	if err != nil {
		return fmt.Errorf("partition: group %d index %d: %w", g, index, err)
	}
	a.buf[g][index] = e
	for {
		if _, ok := a.buf[g][a.frontier[g]+1]; !ok {
			break
		}
		a.frontier[g]++
	}
	if e.Kind == core.KindPrepare {
		a.registerPart(g, e)
	}
	return nil
}

func (a *Assembler) registerPart(g int, e certifier.Entry) {
	st := a.gids[e.GID]
	if st == nil {
		st = &gidState{parts: make(map[int]*core.Writeset)}
		a.gids[e.GID] = st
	}
	if st.applied != 0 {
		return // the union is applied; a late part is irrelevant
	}
	if st.parts[g] == nil {
		st.parts[g] = e.WS
	}
	st.origin = e.Origin
	if len(st.involved) == 0 {
		st.involved = e.Involved
	}
}

// Pending reports whether any received entry is still waiting to be
// emitted — i.e. whether running the merge forward could make
// progress that matters to this replica.
func (a *Assembler) Pending() bool {
	for g := range a.buf {
		if len(a.buf[g]) > 0 {
			return true
		}
	}
	return false
}

// Frontier returns the highest contiguous log index received from
// group g — the ReplicaVersion a pull for more of g's stream should
// carry.
func (a *Assembler) Frontier(g int) uint64 { return a.frontier[g] }

// Applied returns the merged version at which the union of the
// cross-partition transaction gid applied, if it has and its commit
// markers have not all merged since. A coordinator that registers its
// client's waiter only once it holds every vote asks it whether a pull
// raced the answers: until the coordinator sends its commit markers, a
// union it finds applied is still here.
func (a *Assembler) Applied(gid uint64) (mv uint64, ok bool) {
	if st := a.gids[gid]; st != nil && st.applied != 0 {
		return st.applied, true
	}
	return 0, false
}

// MergedVersion returns how many merged versions have been emitted.
func (a *Assembler) MergedVersion() uint64 { return a.merged }

// Vector returns the per-group emitted counts (the replica's position
// in each group's version space). The returned slice is a copy.
func (a *Assembler) Vector() []uint64 {
	v := make([]uint64, a.n)
	for g := range v {
		v[g] = a.next[g] - 1
	}
	return v
}

// Blocking reports what the last failed Next is waiting for: a group
// and the log index the replica must receive from it. Valid only
// after Next returned ok == false.
func (a *Assembler) Blocking() (group int, index uint64) {
	return a.blockGroup, a.blockIndex
}

// Next emits the next action of the merged order, or ok == false if
// the required entry (or a required cross-partition part) has not
// been received yet — Blocking then says what to pull.
func (a *Assembler) Next() (Action, bool) {
	// The next entry globally is the smallest (next index, group id).
	g := 0
	for i := 1; i < a.n; i++ {
		if a.next[i] < a.next[g] {
			g = i
		}
	}
	idx := a.next[g]
	e, ok := a.buf[g][idx]
	if !ok {
		a.blockGroup, a.blockIndex = g, idx
		return Action{}, false
	}

	act := Action{MV: a.merged + 1, Group: g, Index: idx, Origin: e.Origin}
	switch e.Kind {
	case core.KindData:
		if !e.WS.Empty() {
			act.WS = e.WS
		}
	case core.KindPrepare:
		// Registered at Offer time. The last involved group's prepare is
		// rule (a): every vote is yes and all parts are in hand.
		if st := a.gids[e.GID]; st != nil {
			st.votes++
			if st.applied == 0 && st.votes == len(st.involved) {
				a.applyUnion(&act, e.GID, st)
			}
		}
	case core.KindCommitMarker:
		st := a.gids[e.GID]
		if st == nil {
			// A commit marker implies this group prepared the gid, and the
			// same-group prepare (lower index) has been merged and
			// registered. Reaching here means the streams are corrupt; fail
			// safe by treating it as a no-op rather than diverging.
			break
		}
		if st.applied == 0 {
			// Rule (b): the first commit marker, before the last prepare.
			for _, pid := range st.involved {
				if st.parts[pid] == nil {
					// The missing part is committed in group pid's log (every
					// vote was cast before any marker was proposed), just not
					// received — pull that group forward.
					a.blockGroup, a.blockIndex = pid, a.frontier[pid]+1
					return Action{}, false
				}
			}
			a.applyUnion(&act, e.GID, st)
		}
		st.markers++
		if st.markers >= len(st.involved) {
			delete(a.gids, e.GID)
		}
	case core.KindAbortMarker:
		// Some vote is no: the union never applies. A part received later
		// registers again, and its group's own abort marker drops it.
		delete(a.gids, e.GID)
	}

	delete(a.buf[g], idx)
	a.next[g] = idx + 1
	a.merged++
	a.blockGroup, a.blockIndex = -1, 0
	return act, true
}

// applyUnion makes act the union position of gid: it carries the union
// of the parts, in ascending partition id, and the transaction's origin.
func (a *Assembler) applyUnion(act *Action, gid uint64, st *gidState) {
	union := &core.Writeset{}
	for _, pid := range st.involved {
		union.Merge(st.parts[pid])
	}
	act.WS = union
	act.GID = gid
	act.Origin = st.origin
	st.applied = act.MV
	st.parts = nil
}
