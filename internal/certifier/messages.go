// Package certifier implements the certification service of the
// replicated system (paper §4.2 and §6.1): it receives writesets from
// replica proxies, performs writeset intersection against the recent
// global log, assigns the global commit order, records committed
// writesets in a persistent replicated log, and ships back the remote
// writesets each replica has not seen yet.
//
// The certifier state is replicated over internal/paxos (leader + N-1
// backups, paper §7.3); the paxos log index *is* the global version,
// and the leader's log disk is where Tashkent-MW's durability lives —
// its single writer groups every outstanding writeset into one fsync
// ("the certifier ... is very efficient at batching all outstanding
// writesets to disk via a single fsync call").
package certifier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/transport"
)

// Method names on the transport.
const (
	MethodCertify = "cert.certify"
	MethodPull    = "cert.pull"
	// Partitioned-certification methods (one certifier group per
	// keyspace partition; see internal/partition).
	MethodPrepare = "cert.prepare"
	MethodResolve = "cert.resolve"
	MethodFill    = "cert.fill"
)

// Request is one certification request: the writeset and start version
// of a committing update transaction (paper §6.1), plus the replica's
// current version so the certifier knows which remote writesets to
// ship back, and the Tashkent-API flag asking for conflict-free-back
// ("safe back") information on those remote writesets (§5.2.1).
type Request struct {
	Origin         int
	StartVersion   uint64
	ReplicaVersion uint64
	WSBytes        []byte
	NeedSafeBack   bool
	// Deadline is the caller's context deadline in UnixNano (0 = none).
	// The certifier drops the request before conflict-checking and
	// proposing if the deadline has passed — a dead client's work must
	// not occupy batch slots or paxos log entries.
	Deadline int64
}

// RemoteWS is one remote writeset shipped to a replica.
type RemoteWS struct {
	Version uint64
	WSBytes []byte
	// SafeBack is the version down to which this writeset is known to
	// be conflict-free; if SafeBack <= the replica's version the proxy
	// may apply it concurrently with its predecessors, otherwise an
	// artificial conflict forces serialization (§5.2.1). Populated
	// only when the request set NeedSafeBack.
	SafeBack uint64
}

// Response carries the certification outputs of paper §6.1: the remote
// writesets, the decision, and the commit version.
type Response struct {
	Committed     bool
	CommitVersion uint64
	Remote        []RemoteWS
	SystemVersion uint64 // committed system version at response time
	// ReplicaSeq is a dense per-replica sequence number assigned in
	// certifier processing order. The proxy applies responses in
	// ReplicaSeq order, which guarantees it observes the global commit
	// order even when transport reorders concurrent responses.
	ReplicaSeq uint64
	// SeqEpoch identifies the leadership term whose counter assigned
	// ReplicaSeq. A new leader restarts the per-replica counters, so
	// the proxy re-anchors its sequencer whenever the epoch advances
	// and discards responses from deposed leaders.
	SeqEpoch uint64
}

// PullRequest proactively fetches remote writesets (the staleness
// bound of §6.2: an idle replica asks for updates).
type PullRequest struct {
	Origin         int
	ReplicaVersion uint64
	NeedSafeBack   bool
	// IncludeOwn disables the own-writeset filter. A recovering
	// replica needs its own transactions back too — it lost them in
	// the crash and the certifier log is their durable home (§7.2).
	IncludeOwn bool
}

// PullResponse returns the requested remote writesets.
type PullResponse struct {
	Remote        []RemoteWS
	SystemVersion uint64
	// Busy reports whether the group had admitted-but-unresolved
	// certifications (or prepares/resolves) when the pull was served:
	// more log entries are imminent. A partitioned replica's merger
	// uses it to fill only genuinely idle groups.
	Busy bool
	// ReplicaSeq orders pull responses into the same per-replica
	// application sequence as certification responses.
	ReplicaSeq uint64
	// SeqEpoch is the leadership term that assigned ReplicaSeq (see
	// Response.SeqEpoch).
	SeqEpoch uint64
}

// PrepareRequest is phase 1 of a cross-partition commit: certify and
// lock this group's slice of the writeset under a cluster-wide
// transaction id. The prepare is durable (its own paxos commit) before
// the response returns.
type PrepareRequest struct {
	GID          uint64
	Origin       int
	StartVersion uint64 // the transaction's snapshot, in this group's version space
	Involved     []int  // partition ids participating in the transaction
	WSBytes      []byte // this group's slice of the writeset
	// ReplicaVersion is neither set by the proxy nor read by the server:
	// piggy-backing the committed suffix on 2PC responses was measured
	// and left out (CHANGES.md, PR 17). The field stays only because
	// bench/probes.go names it; it goes with the next benchmark change.
	ReplicaVersion uint64
}

// PrepareResponse reports the phase-1 outcome.
type PrepareResponse struct {
	Prepared      bool
	Index         uint64 // the prepare entry's log index when Prepared
	SystemVersion uint64
}

// ResolveRequest is phase 2: append the commit or abort decision
// marker for a previously prepared transaction. Resolve is idempotent
// — a retry returns the first marker's index.
type ResolveRequest struct {
	GID    uint64
	Commit bool
}

// ResolveResponse reports the decision marker's log index.
type ResolveResponse struct {
	Index         uint64
	SystemVersion uint64
}

// FillRequest asks the group leader to pad its log with no-op fill
// entries up to Target entries, releasing replicas blocked on this
// group's stream in the deterministic merge (an idle partition would
// otherwise stall every cross-stream reader).
type FillRequest struct {
	Target uint64
}

// FillResponse reports the committed head after the fill.
type FillResponse struct {
	Head uint64
}

// notLeaderPrefix marks redirect errors so clients fail over.
const notLeaderPrefix = "NOTLEADER"

// notLeaderError formats a redirect carrying the leader hint.
func notLeaderError(hint int) error {
	return fmt.Errorf("%s %d", notLeaderPrefix, hint)
}

// parseNotLeader extracts a leader hint from an error string, with ok
// reporting whether the error is a redirect at all.
func parseNotLeader(msg string) (hint int, ok bool) {
	if !strings.Contains(msg, notLeaderPrefix) {
		return -1, false
	}
	idx := strings.Index(msg, notLeaderPrefix)
	rest := strings.TrimSpace(msg[idx+len(notLeaderPrefix):])
	var h int
	if _, err := fmt.Sscanf(rest, "%d", &h); err != nil {
		return -1, true
	}
	return h, true
}

// overloadedPrefix marks load-shed responses. Unlike NOTLEADER it is
// not a failover signal: only the leader certifies, so rotating on it
// would just trade an overload error for NOTLEADER churn. Clients
// surface it immediately with the retry-after hint.
const overloadedPrefix = "OVERLOADED"

// ErrOverloaded is the sentinel for admission-control load shedding:
// the certifier's queue wait exceeded its budget (or the queue is
// full) and the request was rejected before consuming a batch slot.
// Retryable — errors carrying it also carry a retry-after hint, see
// RetryAfter.
var ErrOverloaded = errors.New("certifier: overloaded")

// OverloadedError is the typed form of a shed response.
type OverloadedError struct {
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("certifier: overloaded (retry after %v)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// RetryAfter extracts the backoff hint from an overload error chain.
func RetryAfter(err error) (time.Duration, bool) {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// overloadedError formats the wire form of a shed response.
func overloadedError(retryAfter time.Duration) error {
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return fmt.Errorf("%s %d", overloadedPrefix, ms)
}

// parseOverloaded recognizes the wire form and recovers the hint.
func parseOverloaded(msg string) (retryAfter time.Duration, ok bool) {
	idx := strings.Index(msg, overloadedPrefix)
	if idx < 0 {
		return 0, false
	}
	rest := strings.TrimSpace(msg[idx+len(overloadedPrefix):])
	var ms int64
	if _, err := fmt.Sscanf(rest, "%d", &ms); err != nil || ms < 1 {
		ms = 1
	}
	return time.Duration(ms) * time.Millisecond, true
}

// Log-entry payload: the data stored in each paxos log entry.
//
//	uint8 kind | uint32 origin | uint64 startVersion
//	[ uint64 gid | uint16 nInvolved | uint16 pid ... ]   (2PC kinds only)
//	writeset
//
// startVersion is retained so an engine rebuilt from the log keeps the
// certified-back memos. Decision markers encode an empty writeset —
// the published items are recovered from the gid's prepare entry.

// Entry is one decoded paxos log entry payload.
type Entry struct {
	Kind     core.EntryKind
	Origin   int
	Start    uint64
	GID      uint64
	Involved []int
	WS       *core.Writeset
}

func encodeEntry(kind core.EntryKind, origin int, start, gid uint64, involved []int, ws *core.Writeset) []byte {
	buf := make([]byte, 0, 25+2*len(involved)+ws.Size())
	buf = append(buf, byte(kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(origin))
	buf = binary.BigEndian.AppendUint64(buf, start)
	if kind != core.KindData {
		buf = binary.BigEndian.AppendUint64(buf, gid)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(involved)))
		for _, pid := range involved {
			buf = binary.BigEndian.AppendUint16(buf, uint16(pid))
		}
	}
	return ws.Encode(buf)
}

func encodeEntryData(origin int, start uint64, ws *core.Writeset) []byte {
	return encodeEntry(core.KindData, origin, start, 0, nil, ws)
}

// EncodeEntry builds a raw log-entry payload — the exported
// counterpart of DecodeLogEntry, used by partition-merge tests and
// tools that synthesize per-group streams.
func EncodeEntry(e Entry) []byte {
	ws := e.WS
	if ws == nil {
		ws = &core.Writeset{}
	}
	return encodeEntry(e.Kind, e.Origin, e.Start, e.GID, e.Involved, ws)
}

// encodeEngineEntry re-encodes a retained engine log entry into the
// wire payload format, for shipping raw entries to partitioned
// replicas. Decision markers are encoded with an empty writeset even
// though the engine memoizes the published items on them.
func encodeEngineEntry(e core.LogEntry) []byte {
	ws := e.WS
	if e.Kind == core.KindCommitMarker || e.Kind == core.KindAbortMarker {
		ws = &core.Writeset{}
	}
	return encodeEntry(e.Kind, e.Origin, uint64(e.CertifiedBack), e.GID, e.Involved, ws)
}

// DecodeLogEntry decodes one paxos log entry's payload. The chaos
// invariant checker and the partitioned replicas use it to turn
// committed log entries back into typed records.
func DecodeLogEntry(data []byte) (Entry, error) {
	return decodeEntryData(data)
}

func decodeEntryData(data []byte) (Entry, error) {
	var e Entry
	if len(data) < 13 {
		return e, fmt.Errorf("certifier: short log entry (%d bytes)", len(data))
	}
	e.Kind = core.EntryKind(data[0])
	e.Origin = int(binary.BigEndian.Uint32(data[1:5]))
	e.Start = binary.BigEndian.Uint64(data[5:13])
	rest := data[13:]
	if e.Kind != core.KindData {
		if len(rest) < 10 {
			return e, fmt.Errorf("certifier: short 2pc log entry (%d bytes)", len(data))
		}
		e.GID = binary.BigEndian.Uint64(rest[0:8])
		n := int(binary.BigEndian.Uint16(rest[8:10]))
		rest = rest[10:]
		if len(rest) < 2*n {
			return e, fmt.Errorf("certifier: truncated involved list (%d of %d pids)", len(rest)/2, n)
		}
		e.Involved = make([]int, n)
		for i := 0; i < n; i++ {
			e.Involved[i] = int(binary.BigEndian.Uint16(rest[2*i:]))
		}
		rest = rest[2*n:]
	}
	ws, _, err := core.DecodeWriteset(rest)
	e.WS = ws
	return e, err
}

// encodeMsg/decodeMsg are the wire codec: every message of this package
// takes the binary fast path (see codec.go).
func encodeMsg(v interface{}) ([]byte, error) { return transport.EncodeMessage(v) }

func decodeMsg(b []byte, v interface{}) error { return transport.DecodeMessage(b, v) }
