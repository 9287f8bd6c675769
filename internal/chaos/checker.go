// The invariant checker: records every client-visible outcome during
// a chaos run and verifies, against the certifier's committed log as
// ground truth, the safety properties the paper claims survive
// crashes, partitions and reordering.
package chaos

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"tashkent/internal/core"
)

// Ack is one client-visible committed update: the client was told the
// transaction committed at Version after writing Value under
// (Table, Key, Col).
type Ack struct {
	Worker  int
	Origin  int // proxy origin id (replica index + 1); -1 skips the check
	Version uint64
	Table   string
	Key     string
	Col     string
	Value   string
}

// Read is one client-visible snapshot read. Snapshot is the snapshot's
// version label, which names exactly the committed prefix the snapshot
// shows.
type Read struct {
	Worker          int
	Snapshot        uint64
	Table, Key, Col string
	Value           string
	Found           bool
}

// LogEntry is one committed certifier log entry — the ground truth.
type LogEntry struct {
	Version uint64
	Origin  int
	WS      *core.Writeset
}

// Checker accumulates events from concurrent client workers. All record
// methods are safe for concurrent use.
type Checker struct {
	mu   sync.Mutex
	acks []Ack
	rds  []Read
}

// NewChecker returns an empty checker.
func NewChecker() *Checker { return &Checker{} }

// RecordAck records a client-visible commit acknowledgement.
func (c *Checker) RecordAck(a Ack) {
	c.mu.Lock()
	c.acks = append(c.acks, a)
	c.mu.Unlock()
}

// RecordRead records a snapshot read and its version label.
func (c *Checker) RecordRead(r Read) {
	c.mu.Lock()
	c.rds = append(c.rds, r)
	c.mu.Unlock()
}

// Acks returns the number of recorded commit acks.
func (c *Checker) Acks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.acks)
}

// Reads returns the number of recorded snapshot reads.
func (c *Checker) Reads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rds)
}

// VerifyInput is everything Verify needs after the run has healed and
// converged.
type VerifyInput struct {
	// Log is the certifier's committed log in version order (ground
	// truth for what the system decided).
	Log []LogEntry
	// Fingerprints are the converged replicas' state fingerprints.
	Fingerprints []uint32
	// ReplayFingerprint, if nonzero, is the fingerprint of a fresh
	// store that replayed Log from scratch — a never-crashed witness
	// the converged replicas must match.
	ReplayFingerprint uint32
}

// colWrite is one committed write of a tracked column.
type colWrite struct {
	version uint64
	origin  int
	value   string
	deleted bool
}

// Verify checks every recorded invariant and returns the violations
// (empty = pass):
//
//  1. Durability — every acked commit is present in the committed log
//     at its acked version, with the acked write in that entry's
//     writeset (no acked commit is ever lost, across any number of
//     crashes and recoveries).
//  2. Session order — each worker's acked commit versions strictly
//     increase (the worker commits sequentially).
//  3. Snapshot isolation — every read equals the committed prefix
//     state at exactly the snapshot's version label: never an aborted,
//     torn or future write, and never a state the label does not
//     name. A failure prints the column's committed writes around the
//     label.
//  4. Convergence — all replica fingerprints agree, and match the
//     never-crashed replay witness when provided.
//
// That a replica applies each committed entry once is the assembler's
// property (partition.Assembler ignores duplicate and already-emitted
// offers); convergence and the replay witness check its outcome.
func (c *Checker) Verify(in VerifyInput) []error {
	c.mu.Lock()
	acks := append([]Ack{}, c.acks...)
	rds := append([]Read{}, c.rds...)
	c.mu.Unlock()

	var violations []error
	fail := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Errorf(format, args...))
	}

	byVersion := make(map[uint64]LogEntry, len(in.Log))
	for _, e := range in.Log {
		byVersion[e.Version] = e
	}

	// (1) Durability of acked commits.
	for _, a := range acks {
		e, ok := byVersion[a.Version]
		if !ok {
			fail("durability: acked commit v%d (worker %d, %s/%s=%q) missing from committed log",
				a.Version, a.Worker, a.Table, a.Key, a.Value)
			continue
		}
		if a.Origin >= 0 && e.Origin != a.Origin {
			fail("durability: acked commit v%d has origin %d in the log, client committed via origin %d",
				a.Version, e.Origin, a.Origin)
		}
		if !writesetHasValue(e.WS, a.Table, a.Key, a.Col, a.Value) {
			fail("durability: log entry v%d does not contain the acked write %s/%s.%s=%q",
				a.Version, a.Table, a.Key, a.Col, a.Value)
		}
	}

	// (2) Per-worker monotonic commit versions.
	lastByWorker := make(map[int]uint64)
	for _, a := range acks {
		if prev, ok := lastByWorker[a.Worker]; ok && a.Version <= prev {
			fail("session order: worker %d acked v%d after v%d", a.Worker, a.Version, prev)
		}
		lastByWorker[a.Worker] = a.Version
	}

	// (3) Snapshot-isolation read mapping.
	hist := columnHistories(in.Log)
	for _, r := range rds {
		writes := hist[r.Table+"\x00"+r.Key+"\x00"+r.Col]
		if !readExplainable(writes, r) {
			fail("snapshot isolation: read %s/%s.%s=%q (found=%v) in snapshot %d is not the committed state there; history %s",
				r.Table, r.Key, r.Col, r.Value, r.Found, r.Snapshot, historyAround(writes, r.Snapshot))
		}
	}

	// (4) Convergence.
	for i := 1; i < len(in.Fingerprints); i++ {
		if in.Fingerprints[i] != in.Fingerprints[0] {
			fail("convergence: replica %d fingerprint %08x != replica 0 fingerprint %08x",
				i, in.Fingerprints[i], in.Fingerprints[0])
		}
	}
	if in.ReplayFingerprint != 0 && len(in.Fingerprints) > 0 && in.Fingerprints[0] != in.ReplayFingerprint {
		fail("convergence: replica fingerprints %08x != never-crashed log replay %08x",
			in.Fingerprints[0], in.ReplayFingerprint)
	}

	return violations
}

// writesetHasValue reports whether ws writes value into (table, key,
// col).
func writesetHasValue(ws *core.Writeset, table, key, col, value string) bool {
	if ws == nil {
		return false
	}
	for i := range ws.Ops {
		op := &ws.Ops[i]
		if op.Table != table || op.Key != key {
			continue
		}
		for _, cu := range op.Cols {
			if cu.Col == col && bytes.Equal(cu.Value, []byte(value)) {
				return true
			}
		}
	}
	return false
}

// columnHistories builds, per (table, key, col), the version-ordered
// committed write history from the log.
func columnHistories(log []LogEntry) map[string][]colWrite {
	hist := make(map[string][]colWrite)
	for _, e := range log {
		if e.WS == nil {
			continue
		}
		for i := range e.WS.Ops {
			op := &e.WS.Ops[i]
			if op.Kind == core.OpDelete {
				// A delete ends every column of the row.
				prefix := op.Table + "\x00" + op.Key + "\x00"
				for k := range hist {
					if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
						hist[k] = append(hist[k], colWrite{version: e.Version, origin: e.Origin, deleted: true})
					}
				}
				continue
			}
			for _, cu := range op.Cols {
				k := op.Table + "\x00" + op.Key + "\x00" + cu.Col
				hist[k] = append(hist[k], colWrite{version: e.Version, origin: e.Origin, value: string(cu.Value)})
			}
		}
	}
	for k := range hist {
		sort.SliceStable(hist[k], func(i, j int) bool { return hist[k][i].version < hist[k][j].version })
	}
	return hist
}

// readExplainable reports whether the read's outcome equals the
// column state at version r.Snapshot: the latest committed write at or
// below it, absent if there is none. writes is the column's history.
func readExplainable(writes []colWrite, r Read) bool {
	i := sort.Search(len(writes), func(i int) bool { return writes[i].version > r.Snapshot })
	if i == 0 || writes[i-1].deleted {
		return !r.Found
	}
	return r.Found && writes[i-1].value == r.Value
}

// historyAround renders the column's committed writes just below and
// just above version snap — version, value and origin — the evidence
// that names a snapshot-isolation defect.
func historyAround(writes []colWrite, snap uint64) string {
	const each = 2
	i := sort.Search(len(writes), func(i int) bool { return writes[i].version > snap })
	var b strings.Builder
	for j := max(i-each, 0); j < min(i+each, len(writes)); j++ {
		if j == i {
			fmt.Fprintf(&b, "| snapshot %d | ", snap)
		}
		w := &writes[j]
		if w.deleted {
			fmt.Fprintf(&b, "v%d deleted (origin %d) ", w.version, w.origin)
		} else {
			fmt.Fprintf(&b, "v%d %q (origin %d) ", w.version, w.value, w.origin)
		}
	}
	if i == len(writes) {
		fmt.Fprintf(&b, "| snapshot %d |", snap)
	}
	return "[" + strings.TrimSpace(b.String()) + "]"
}
