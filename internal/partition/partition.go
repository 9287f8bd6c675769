// Package partition implements partitioned certification: the
// keyspace is sharded across N independent certifier groups by a
// consistent hash of the item id, so certification throughput scales
// with the number of groups instead of being bounded by one paxos
// log and one conflict-check loop.
//
// A transaction whose writeset falls entirely in one partition
// certifies against that group alone (the fast path — one round, one
// group fsync). A cross-partition transaction asks every involved group
// at once for its vote: a durable *prepare* entry (this group's slice of
// the writeset, conflict-checked and locked) is yes, an abort marker no.
// Once every group has voted yes the transaction is committed — the
// replicas apply its union where the last prepare merges (see Action) —
// and the *decision markers* that follow in each group only release its
// locks. Replicas rebuild one total apply order by deterministically
// interleaving the per-group logs (see Assembler), so every replica
// announces the same merged version for the same entry without any
// cross-group coordination.
package partition

import (
	"hash/fnv"

	"tashkent/internal/core"
)

// Map assigns items to partitions by FNV-1a hash. The zero value (N
// <= 1) maps everything to partition 0.
type Map struct {
	// N is the partition (certifier group) count.
	N int
}

// Of returns the partition owning the item.
func (m Map) Of(id core.ItemID) int {
	if m.N <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(id.Table))
	h.Write([]byte{0})
	h.Write([]byte(id.Key))
	return int(h.Sum32() % uint32(m.N))
}

// groups is the group count the merge runs over (the zero Map is one
// group).
func (m Map) groups() uint64 { return uint64(max(m.N, 1)) }

// MergedVersion returns the merged version of group g's log entry at
// index idx. The Assembler's merge rule — smallest (index, group) next —
// is strict round-robin over the groups, so the position is arithmetic:
// row idx of the merge holds one entry per group, in group order.
func (m Map) MergedVersion(g int, idx uint64) uint64 {
	return (idx-1)*m.groups() + uint64(g) + 1
}

// GroupVersion is the inverse view: how many of group g's entries lie at
// or below merged version mv — a replica at mv is at that version in
// g's own version space.
func (m Map) GroupVersion(g int, mv uint64) uint64 {
	if mv <= uint64(g) {
		return 0
	}
	return (mv-uint64(g)-1)/m.groups() + 1
}

// Part is one partition's slice of a writeset.
type Part struct {
	PID int
	WS  *core.Writeset
}

// Split slices a writeset by partition, returned in ascending
// partition order.
func (m Map) Split(ws *core.Writeset) []Part {
	if m.N <= 1 {
		return []Part{{PID: 0, WS: ws}}
	}
	byPID := make(map[int]*core.Writeset)
	for i := range ws.Ops {
		op := ws.Ops[i]
		pid := m.Of(op.Item())
		p := byPID[pid]
		if p == nil {
			p = &core.Writeset{}
			byPID[pid] = p
		}
		p.Ops = append(p.Ops, op)
	}
	parts := make([]Part, 0, len(byPID))
	for pid := 0; pid < m.N; pid++ {
		if p, ok := byPID[pid]; ok {
			parts = append(parts, Part{PID: pid, WS: p})
		}
	}
	return parts
}
