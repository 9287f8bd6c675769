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
//
// A commit asks with one message, Request, whatever the number of
// groups it involves (see internal/partition): one group's answer is the
// decision, and each of several groups' answers is its vote in a
// cross-partition commit, which Resolve then decides.
//
// This file holds the messages of the certification API and the one
// definition of a log entry's bytes (see "Log-entry payload" below):
// the leader encodes an entry once, from the request's own writeset
// bytes, and the paxos log, the WAL record, the engine and every
// response share that slice.
package certifier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"tashkent/internal/core"
)

// Method names on the transport.
const (
	MethodCertify = "cert.certify"
	MethodPull    = "cert.pull"
	// Partitioned-certification methods (one certifier group per
	// keyspace partition; see internal/partition).
	MethodResolve = "cert.resolve"
	MethodFill    = "cert.fill"
)

// Request is the one commit request (paper §6.1): the writeset and
// start version of a committing update transaction, plus the replica's
// current version so the certifier knows which remote writesets to ship
// back. It asks one group for its part of a transaction that involves
// the groups in Involved.
//
// With fewer than two groups involved the group alone decides: a commit
// is a data entry in its log, and a refusal logs nothing. With two or
// more the request is phase 1 of a cross-partition commit, under the
// cluster-wide transaction id GID: the group certifies and locks its
// slice of the writeset, and its answer is its vote, durable before the
// response returns — the prepare entry (yes) or, for a refusal, an abort
// marker (no). A gid that already has a record gets the vote that record
// holds, so a retry is safe.
type Request struct {
	GID          uint64 // cross-partition only
	Origin       int
	StartVersion uint64 // the transaction's snapshot, in this group's version space
	Involved     []int  // partition ids participating in the transaction
	WSBytes      []byte // this group's slice of the writeset
	// ReplicaVersion is the replica's frontier in this group: the
	// highest contiguous index its merge has received. A yes answer
	// ships the entries after it (see Response.Remote).
	ReplicaVersion uint64
	// FillTo is, for a cross-partition request, the coordinator's highest
	// frontier over all groups. A shorter log is padded with fill no-ops
	// up to it before the yes, in the same batch, so the transaction's
	// prepares land at about the same index in every group and the merge
	// reaches the union with the entries the round itself produced.
	FillTo uint64
	// Deadline is the caller's context deadline in UnixNano (0 = none).
	// The certifier drops the request before conflict-checking and
	// proposing if the deadline has passed — a dead client's work must
	// not occupy batch slots or paxos log entries.
	Deadline int64
}

// PrepareRequest is Request under its cross-partition name, which the
// benchmark's codec probe uses.
type PrepareRequest = Request

// RemoteWS is one remote writeset shipped to a replica.
type RemoteWS struct {
	Version uint64
	// WSBytes is the log entry at Version as the log holds it — header
	// and writeset, read with DecodeLogEntry — in the classic and the
	// partitioned deployment alike. The server shares the slice with its
	// log; receivers get their own copy off the wire.
	WSBytes []byte
}

// Response is the group's answer to a Request (paper §6.1's outputs):
// the decision, the log index it stands on, and the remote writesets.
type Response struct {
	// Yes is the decision: for one group a commit, for several the
	// group's vote (a prepare).
	Yes bool
	// Index is the log index of the record that holds the answer: the
	// committed entry, the prepare, or a no vote's abort marker. 0 for a
	// refused one-group commit, which logs nothing.
	Index         uint64
	SystemVersion uint64 // committed system version at response time
	// Remote is the group's entries after ReplicaVersion, so that the
	// replica's merge has what it waits for without a pull. A one-group
	// commit ships through its own entry, and a refusal everything
	// committed. A yes vote ships through the prepare and the rest of the
	// batch that logged it. A record appended by an earlier batch or term
	// ships only the committed part of (ReplicaVersion, Index]. Empty for
	// a no vote.
	Remote []RemoteWS
}

// PullRequest proactively fetches the writesets above ReplicaVersion
// (the staleness bound of §6.2: an idle replica asks for updates). It
// ships the replica's own writesets too: a recovering replica lost them
// in the crash and the certifier log is their durable home (§7.2), and
// the merged stream holds every version.
type PullRequest struct {
	ReplicaVersion uint64
}

// PullResponse returns the requested remote writesets.
type PullResponse struct {
	Remote        []RemoteWS
	SystemVersion uint64
	// Busy reports whether the group had admitted-but-unresolved
	// commit requests or resolves when the pull was served: more log
	// entries are imminent. A partitioned replica's merger uses it to
	// fill only genuinely idle groups.
	Busy bool
}

// ResolveRequest appends a decision marker for gid, or asks for the
// group's vote. Resolve is idempotent — a retry returns the first
// marker's index.
type ResolveRequest struct {
	GID uint64
	// Commit asks for a commit marker: the coordinator holds a yes from
	// every involved group.
	Commit bool
	// Veto asks for the group's vote, and casts a no if it has none yet:
	// on a gid without a record the abort marker is appended, and on a
	// prepared gid nothing is (the answer is the prepare's yes). A
	// coordinator that lacks a group's answer vetoes it to learn the vote.
	// Neither Commit nor Veto: a plain abort marker, which a coordinator
	// sends only while it holds a no from some group.
	Veto bool
	// ReplicaVersion is the coordinator's frontier in this group: the
	// highest contiguous index its merge has received. A commit's, or a
	// veto's yes, response ships the entries after it.
	ReplicaVersion uint64
}

// ResolveResponse reports the decision marker's log index, or for a
// veto the record that holds the group's vote.
type ResolveResponse struct {
	Index         uint64
	SystemVersion uint64
	// Prepared is, for a veto, the group's vote: yes if its first record
	// for the gid is a prepare (at Index).
	Prepared bool
	// Remote is, for a commit, the group's entries in (ReplicaVersion,
	// Index], the marker included: everything the coordinator's merge
	// needs from this group to reach the marker without a pull. A veto
	// that finds a yes ships the same through the prepare. A record
	// appended by an earlier batch or term ships only its committed part.
	// Empty for an abort or a no.
	Remote []RemoteWS
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

// Log-entry payload: the one encoding of a certifier log entry.
//
//	uint8 kind | uint32 origin | uint64 startVersion
//	[ uint64 gid | uint16 nInvolved | uint16 pid ... ]   (2PC kinds only)
//	writeset (core.Writeset's encoding, to the last byte of the payload)
//
// The leader makes it once per entry (newLogEntry) and every holder
// shares that slice by reference: it is the paxos Entry.Data, the body
// of the node's WAL record, the Payload the engine keeps, and the
// WSBytes of every RemoteWS shipped to a replica in either deployment.
// Nobody writes to it, and it never aliases a transport frame — the
// log outlives every frame. encodePayload is the only function that
// writes the layout and DecodeLogEntry the only one that reads it.
//
// startVersion is the snapshot the writeset was certified against
// (core.LogEntry.Start). Decision markers carry an empty writeset — the
// published items are recovered from the gid's prepare entry.

// Entry is one decoded log entry payload.
type Entry struct {
	Kind     core.EntryKind
	Origin   int
	Start    uint64
	GID      uint64
	Involved []int
	WS       *core.Writeset
}

// entryHeaderLen is the fixed part before the 2PC section.
const entryHeaderLen = 13

// emptyWSBytes is the encoding of a writeset without operations, the
// body of barrier, fill and decision-marker entries.
var emptyWSBytes = []byte{0, 0, 0, 0}

// encodePayload lays out one payload around an already encoded
// writeset, in a fresh slice of exactly the payload's size.
func encodePayload(kind core.EntryKind, origin int, start, gid uint64, involved []int, wsBytes []byte) []byte {
	n := entryHeaderLen + len(wsBytes)
	if kind != core.KindData {
		n += 10 + 2*len(involved)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, byte(kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(origin))
	buf = binary.BigEndian.AppendUint64(buf, start)
	if kind != core.KindData {
		buf = appendInvolved(binary.BigEndian.AppendUint64(buf, gid), involved)
	}
	return append(buf, wsBytes...)
}

// appendInvolved lays out a list of partition ids, as a log entry and a
// commit request carry it: uint16 n | uint16 pid ...
func appendInvolved(buf []byte, involved []int) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(involved)))
	for _, pid := range involved {
		buf = binary.BigEndian.AppendUint16(buf, uint16(pid))
	}
	return buf
}

// takeInvolved reads what appendInvolved wrote at the start of data, an
// empty list as nil, and returns the bytes after it.
func takeInvolved(data []byte) ([]int, []byte, error) {
	if len(data) < 2 {
		return nil, nil, errShortMessage
	}
	n := int(binary.BigEndian.Uint16(data))
	data = data[2:]
	if len(data) < 2*n {
		return nil, nil, fmt.Errorf("certifier: truncated involved list (%d of %d pids)", len(data)/2, n)
	}
	var involved []int
	if n > 0 {
		involved = make([]int, n)
		for i := range involved {
			involved[i] = int(binary.BigEndian.Uint16(data[2*i:]))
		}
	}
	return involved, data[2*n:], nil
}

// newLogEntry turns a request into the log entry it proposes: the
// decoded form the engine certifies against, with the payload attached.
// wsBytes are the request's own writeset bytes, copied as they are and
// validated by the one parser — a request carrying anything but a
// well-formed writeset, bytes after it included, is refused and nothing
// of it enters the log. The caller assigns Version when the entry takes
// its place.
func newLogEntry(kind core.EntryKind, origin int, start, gid uint64, involved []int, wsBytes []byte) (core.LogEntry, error) {
	return logEntryAt(0, encodePayload(kind, origin, start, gid, involved, wsBytes))
}

// emptyEntry is an entry without a writeset, from BarrierOrigin: with
// KindData the barrier and fill no-op, which consumes one version and
// conflicts with nothing; with a marker kind the decision for gid.
func emptyEntry(kind core.EntryKind, gid uint64) core.LogEntry {
	e, err := newLogEntry(kind, core.BarrierOrigin, 0, gid, nil, emptyWSBytes)
	if err != nil {
		panic(err) // constant input
	}
	return e
}

// EncodeEntry builds a payload from a decoded entry — the counterpart
// of DecodeLogEntry for tests and tools that synthesize log streams.
// No request path calls it: requests arrive with their writeset
// already encoded.
func EncodeEntry(e Entry) []byte {
	return encodePayload(e.Kind, e.Origin, e.Start, e.GID, e.Involved, e.WS.Encode(nil))
}

// DecodeLogEntry parses one payload. The certifier rebuilds its engine
// with it, replicas read shipped entries with it, and the chaos checker
// reads committed logs with it. Every length is checked, and bytes left
// over after the writeset are an error.
func DecodeLogEntry(data []byte) (Entry, error) {
	var e Entry
	if len(data) < entryHeaderLen {
		return e, fmt.Errorf("certifier: short log entry (%d bytes)", len(data))
	}
	e.Kind = core.EntryKind(data[0])
	if e.Kind > core.KindAbortMarker {
		return e, fmt.Errorf("certifier: unknown log entry kind %d", data[0])
	}
	e.Origin = int(binary.BigEndian.Uint32(data[1:5]))
	e.Start = binary.BigEndian.Uint64(data[5:13])
	rest := data[entryHeaderLen:]
	if e.Kind != core.KindData {
		if len(rest) < 10 {
			return e, fmt.Errorf("certifier: short 2pc log entry (%d bytes)", len(data))
		}
		e.GID = binary.BigEndian.Uint64(rest)
		var err error
		if e.Involved, rest, err = takeInvolved(rest[8:]); err != nil {
			return e, err
		}
	}
	ws, n, err := core.DecodeWriteset(rest)
	if err != nil {
		return e, err
	}
	if n != len(rest) {
		return e, fmt.Errorf("certifier: %d bytes after the log entry's writeset", len(rest)-n)
	}
	e.WS = ws
	return e, nil
}

// logEntryAt is the core.LogEntry a payload stands for at the given
// version — the engine's view of a committed entry on the rebuild path.
// It keeps data by reference.
func logEntryAt(version uint64, data []byte) (core.LogEntry, error) {
	dec, err := DecodeLogEntry(data)
	if err != nil {
		return core.LogEntry{}, err
	}
	return core.LogEntry{
		Version: core.Version(version), WS: dec.WS, Origin: dec.Origin,
		Start: core.Version(dec.Start),
		Kind:  dec.Kind, GID: dec.GID, Involved: dec.Involved,
		Payload: data,
	}, nil
}
