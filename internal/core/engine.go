package core

import "fmt"

// EntryKind distinguishes the entry types a partitioned certifier
// group appends to its log. Single-group deployments only ever use
// KindData.
type EntryKind uint8

const (
	// KindData is a normally certified writeset (or a leader-barrier /
	// fill no-op when Origin == BarrierOrigin and the writeset is empty).
	KindData EntryKind = iota
	// KindPrepare is phase 1 of a cross-partition transaction: this
	// group's slice of the writeset, conflict-checked and locked but not
	// yet visible to certification of later transactions via writers.
	KindPrepare
	// KindCommitMarker is the commit decision for a prepared
	// cross-partition transaction: it releases the locks and publishes
	// the prepared items into the writer index at the marker's version.
	KindCommitMarker
	// KindAbortMarker is the abort decision: locks release, nothing is
	// published.
	KindAbortMarker
)

// String names the kind.
func (k EntryKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindPrepare:
		return "prepare"
	case KindCommitMarker:
		return "commit-marker"
	case KindAbortMarker:
		return "abort-marker"
	default:
		return fmt.Sprintf("EntryKind(%d)", uint8(k))
	}
}

// LogEntry is one committed update transaction in the certifier's
// global order: the writeset together with the version its commit
// created.
type LogEntry struct {
	Version Version
	WS      *Writeset
	// Origin identifies the replica whose transaction produced this
	// writeset. The certifier uses it to exclude a replica's own
	// writesets when shipping "remote" writesets back to it.
	Origin int
	// Start is the transaction's snapshot version: certification found
	// no writeset committed in (Start, Version) that WS intersects.
	Start Version
	// Kind tells a partitioned certifier group how to interpret the
	// entry (data, 2PC prepare, or 2PC decision marker).
	Kind EntryKind
	// GID is the cluster-wide transaction id of a cross-partition
	// transaction; zero for KindData.
	GID uint64
	// Involved lists the partition ids participating in a
	// cross-partition transaction (prepare and marker entries), so
	// replicas know which groups' parts form the full writeset.
	Involved []int
	// Payload is the entry as the certifier encoded it once for its
	// replicated log (layout in certifier/messages.go): the bytes the
	// certifier proposes. The engine never reads or keeps it. Nobody may
	// write to it.
	Payload []byte
}

// Decision is the outcome of a certification request.
type Decision uint8

const (
	// Commit means the writeset had no write-write conflict and was
	// appended to the global order.
	Commit Decision = iota + 1
	// Abort means a conflict was found (or the certifier injected an
	// abort, see the Fig 14 experiment).
	Abort
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// Engine is the pure certification index over the certifier's log: it
// keeps, per item, the version of its last writer, the items locked by
// unresolved cross-partition prepares, the 2PC votes and decisions, and
// the global system version. The log itself lives in the paxos node;
// the engine reads each entry once, as it is appended. It is not safe
// for concurrent use; the certifier server serializes access.
type Engine struct {
	// system is the global system version: the version of the most
	// recently committed update transaction.
	system Version
	// writers maps an item to the version of its last writer. Every
	// certification test asks whether an item was written in
	// (start, system], which is whether its last writer is newer than
	// start.
	writers map[ItemID]Version
	// locks maps an item to the gid of the cross-partition transaction
	// that holds it prepared-but-unresolved. Any certification or
	// prepare touching a locked item conflicts, whatever its snapshot:
	// the lock's outcome is undecided, so admitting the competitor
	// could miss a write-write conflict.
	locks map[ItemID]uint64
	// prepared tracks unresolved prepares: gid → the prepare entry's
	// version and its locked items.
	prepared map[uint64]preparedTx
	// resolved memoizes 2PC decisions: gid → the first decision
	// marker's version and outcome, and the prepare it resolved. It makes
	// Resolve idempotent and keeps each gid's vote (see Vote) after its
	// prepare is resolved.
	resolved map[uint64]resolution
}

type preparedTx struct {
	version Version
	items   []ItemID
}

type resolution struct {
	version Version
	commit  bool
	prepare Version // the resolved prepare's version (0: the marker came first)
}

// NewEngine returns an empty engine at system version 0.
func NewEngine() *Engine {
	return &Engine{
		writers:  make(map[ItemID]Version),
		locks:    make(map[ItemID]uint64),
		prepared: make(map[uint64]preparedTx),
		resolved: make(map[uint64]resolution),
	}
}

// SystemVersion returns the version of the latest committed update
// transaction.
func (e *Engine) SystemVersion() Version { return e.system }

// Certify performs the paper's certification test for a transaction
// that started at version start with writeset ws: ws is intersected
// against every writeset committed at a version greater than start. On
// success the writeset is indexed at a fresh version and
// (newVersion, Commit) is returned; on conflict (0, Abort).
//
// An empty writeset always commits but consumes no version; callers
// short-circuit read-only transactions before reaching the certifier,
// so Certify treats it as a programming error.
func (e *Engine) Certify(start Version, ws *Writeset, origin int) (Version, Decision) {
	if ws.Empty() {
		panic("core: Certify called with empty writeset (read-only transactions commit locally)")
	}
	if e.Conflicts(start, ws) {
		return 0, Abort
	}
	e.system++
	v := e.system
	e.append(LogEntry{Version: v, WS: ws, Start: start, Origin: origin})
	return v, Commit
}

// Conflicts reports (without mutating the engine) whether ws
// intersects any writeset committed after start — the certification
// test alone. Callers that must interleave the test with an external
// commit point (the certifier proposes the entry to its replicated log
// between testing and appending) use Conflicts + Append instead of
// Certify.
func (e *Engine) Conflicts(start Version, ws *Writeset) bool {
	return e.conflicts(ws, start) || e.lockConflict(ws)
}

// lockConflict reports whether ws touches an item held by an
// unresolved cross-partition prepare.
func (e *Engine) lockConflict(ws *Writeset) bool {
	if len(e.locks) == 0 {
		return false
	}
	for i := range ws.Ops {
		if _, held := e.locks[ws.Ops[i].Item()]; held {
			return true
		}
	}
	return false
}

// PreparedAt returns the version of gid's unresolved prepare entry in
// this group, if one exists. The certifier uses it to make Prepare
// idempotent across leader retries.
func (e *Engine) PreparedAt(gid uint64) (Version, bool) {
	p, ok := e.prepared[gid]
	return p.version, ok
}

// Resolution returns the first decision marker recorded for gid: its
// version and whether it committed.
func (e *Engine) Resolution(gid uint64) (v Version, commit, ok bool) {
	r, found := e.resolved[gid]
	return r.version, r.commit, found
}

// Vote returns the first record this log holds for gid: a prepare is a
// yes vote, an abort marker (a refused prepare or a veto) a no. ok is
// false while the log holds neither. The first record never changes, so
// the vote is irrevocable.
func (e *Engine) Vote(gid uint64) (v Version, yes, ok bool) {
	if p, found := e.prepared[gid]; found {
		return p.version, true, true
	}
	r, found := e.resolved[gid]
	switch {
	case !found:
		return 0, false, false
	case r.prepare != 0:
		return r.prepare, true, true
	default:
		return r.version, r.commit, true
	}
}

// OldestPrepared returns the lowest version among unresolved prepare
// entries, or 0 if none are pending: the oldest lock still waiting for
// its decision marker.
func (e *Engine) OldestPrepared() Version {
	var oldest Version
	for _, p := range e.prepared {
		if oldest == 0 || p.version < oldest {
			oldest = p.version
		}
	}
	return oldest
}

// BarrierOrigin is the origin id of leader-barrier no-op entries
// (certifier.Server.Barrier). Real replicas have positive origin ids.
const BarrierOrigin = 0

// Append installs an already-certified entry at the next version. The
// entry's version must be exactly SystemVersion()+1. An empty writeset
// is permitted only for barrier entries (Origin == BarrierOrigin) and
// 2PC decision markers: a leader barrier commits a no-op to finalize a
// previous term's tail, consuming a version that conflicts with
// nothing. For any real origin an empty data writeset still indicates
// corruption or a misencoded certification and is rejected loudly.
func (e *Engine) Append(entry LogEntry) error {
	if entry.Version != e.system+1 {
		return fmt.Errorf("core: append version %d, want %d", entry.Version, e.system+1)
	}
	switch entry.Kind {
	case KindData:
		if entry.WS.Empty() && entry.Origin != BarrierOrigin {
			return fmt.Errorf("core: append of empty writeset at version %d (origin %d)", entry.Version, entry.Origin)
		}
	case KindPrepare:
		if entry.WS.Empty() {
			return fmt.Errorf("core: prepare with empty writeset at version %d (gid %d)", entry.Version, entry.GID)
		}
		if _, dup := e.prepared[entry.GID]; dup {
			return fmt.Errorf("core: duplicate prepare for gid %d at version %d", entry.GID, entry.Version)
		}
	case KindCommitMarker, KindAbortMarker:
		// Always legal: a marker for an unknown gid (prepare refused
		// here, or a duplicate decision from a coordinator retry)
		// consumes a version and publishes nothing.
	default:
		return fmt.Errorf("core: append of unknown entry kind %d at version %d", entry.Kind, entry.Version)
	}
	e.system = entry.Version
	e.append(entry)
	return nil
}

// conflicts reports whether ws writes an item whose last writer is
// newer than start.
func (e *Engine) conflicts(ws *Writeset, start Version) bool {
	for i := range ws.Ops {
		if e.writers[ws.Ops[i].Item()] > start {
			return true
		}
	}
	return false
}

func (e *Engine) append(entry LogEntry) {
	switch entry.Kind {
	case KindPrepare:
		// The part stays out of the writer index: it conflicts with later
		// transactions through the lock map until its decision marker
		// resolves it.
		items := entry.WS.Items()
		for _, id := range items {
			e.locks[id] = entry.GID
		}
		e.prepared[entry.GID] = preparedTx{version: entry.Version, items: items}
	case KindCommitMarker, KindAbortMarker:
		commit := entry.Kind == KindCommitMarker
		p, ok := e.prepared[entry.GID]
		if ok {
			for _, id := range p.items {
				if commit {
					// Publish the prepared items at the marker's own
					// version: a transaction whose snapshot predates the
					// marker now conflicts with the cross-partition commit,
					// even though its snapshot may postdate the prepare.
					e.writers[id] = entry.Version
				}
				if e.locks[id] == entry.GID {
					delete(e.locks, id)
				}
			}
			delete(e.prepared, entry.GID)
		}
		if _, seen := e.resolved[entry.GID]; !seen {
			e.resolved[entry.GID] = resolution{version: entry.Version, commit: commit, prepare: p.version}
		}
	default:
		if entry.WS != nil {
			for i := range entry.WS.Ops {
				e.writers[entry.WS.Ops[i].Item()] = entry.Version
			}
		}
	}
}
