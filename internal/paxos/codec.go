package paxos

// Every byte layout of this package: the wire form of the vote, append
// and fetch messages (transport.BinaryMessage) and the two WAL records.
// All integers are big-endian fixed width.
//
// A log entry has one encoding, appendEntry/takeEntry:
//
//	u64 index | u64 term | u32 dataLen | data
//
// It is an element of the append and fetch messages and, behind its
// kind byte, the node's durable entry record. The WAL records are
//
//	'E' | entry                    (recEntry)
//	'M' | u64 term | i64 votedFor  (recMeta; votedFor -1 = no vote)
//
// written by entryRecords/metaRecord and parsed by parseEntryRecord/
// parseMetaRecord — nothing else in the tree knows them. Parsing checks
// every length against the bytes at hand and refuses a record with
// anything left over. Entry.Data is opaque here; the certifier defines
// it (certifier/messages.go).

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tashkent/internal/transport"
)

var (
	_ transport.BinaryMessage = (*voteArgs)(nil)
	_ transport.BinaryMessage = (*voteReply)(nil)
	_ transport.BinaryMessage = (*appendArgs)(nil)
	_ transport.BinaryMessage = (*appendReply)(nil)
	_ transport.BinaryMessage = (*fetchArgs)(nil)
	_ transport.BinaryMessage = (*fetchReply)(nil)
)

var errShortMessage = errors.New("paxos: short binary message")

// entryOverhead is the encoded size of an entry without its data.
const entryOverhead = 20

func appendEntry(buf []byte, e *Entry) []byte {
	buf = binary.BigEndian.AppendUint64(buf, e.Index)
	buf = binary.BigEndian.AppendUint64(buf, e.Term)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Data)))
	return append(buf, e.Data...)
}

// takeEntry parses one entry off the front of data and returns the
// rest. Data is copied into a slice of its own size: entries live in
// the node's log indefinitely and must not pin the transport frame or
// WAL image they were read from.
func takeEntry(data []byte) (Entry, []byte, error) {
	if len(data) < entryOverhead {
		return Entry{}, nil, errShortMessage
	}
	e := Entry{Index: binary.BigEndian.Uint64(data), Term: binary.BigEndian.Uint64(data[8:])}
	dlen := int(binary.BigEndian.Uint32(data[16:]))
	data = data[entryOverhead:]
	if len(data) < dlen {
		return Entry{}, nil, errShortMessage
	}
	e.Data = append([]byte(nil), data[:dlen]...)
	return e, data[dlen:], nil
}

// WAL record kinds.
const (
	recEntry byte = 'E'
	recMeta  byte = 'M'
)

// entryRecords encodes the durable records of entries, in order. The
// records are slices of one buffer, which the WAL copies from and then
// lets go.
func entryRecords(entries []Entry) [][]byte {
	size := 0
	for i := range entries {
		size += 1 + entryOverhead + len(entries[i].Data)
	}
	buf := make([]byte, 0, size)
	recs := make([][]byte, len(entries))
	for i := range entries {
		start := len(buf)
		buf = appendEntry(append(buf, recEntry), &entries[i])
		recs[i] = buf[start:len(buf):len(buf)]
	}
	return recs
}

// parseEntryRecord parses the body of a recEntry record (the kind byte
// already taken off).
func parseEntryRecord(body []byte) (Entry, error) {
	e, rest, err := takeEntry(body)
	if err != nil {
		return Entry{}, err
	}
	if len(rest) != 0 {
		return Entry{}, fmt.Errorf("paxos: %d trailing bytes after entry record", len(rest))
	}
	return e, nil
}

// metaRecord encodes the durable election state (term and vote), which
// keeps a recovering node from voting twice in one term.
func metaRecord(term uint64, votedFor int) []byte {
	buf := make([]byte, 0, 17)
	buf = append(buf, recMeta)
	buf = binary.BigEndian.AppendUint64(buf, term)
	return binary.BigEndian.AppendUint64(buf, uint64(int64(votedFor)))
}

// parseMetaRecord parses the body of a recMeta record.
func parseMetaRecord(body []byte) (term uint64, votedFor int, err error) {
	if len(body) != 16 {
		return 0, 0, fmt.Errorf("paxos: meta record body of %d bytes, want 16", len(body))
	}
	return binary.BigEndian.Uint64(body), int(int64(binary.BigEndian.Uint64(body[8:]))), nil
}

// appendEntries: u32 count | entries
func appendEntries(buf []byte, entries []Entry) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for i := range entries {
		buf = appendEntry(buf, &entries[i])
	}
	return buf
}

func takeEntries(data []byte) ([]Entry, []byte, error) {
	if len(data) < 4 {
		return nil, nil, errShortMessage
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n == 0 {
		return nil, data, nil
	}
	if n > len(data)/entryOverhead {
		return nil, nil, fmt.Errorf("paxos: entry count %d exceeds payload", n)
	}
	out := make([]Entry, n)
	for i := range out {
		var err error
		if out[i], data, err = takeEntry(data); err != nil {
			return nil, nil, err
		}
	}
	return out, data, nil
}

// voteArgs: u64 term | u32 candidate | u64 lastIndex | u64 lastTerm
func (a *voteArgs) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, a.Term)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.Candidate))
	buf = binary.BigEndian.AppendUint64(buf, a.LastIndex)
	return binary.BigEndian.AppendUint64(buf, a.LastTerm)
}

func (a *voteArgs) DecodeBinary(data []byte) error {
	if len(data) != 28 {
		return errShortMessage
	}
	a.Term = binary.BigEndian.Uint64(data)
	a.Candidate = int(binary.BigEndian.Uint32(data[8:]))
	a.LastIndex = binary.BigEndian.Uint64(data[12:])
	a.LastTerm = binary.BigEndian.Uint64(data[20:])
	return nil
}

// voteReply: u64 term | u8 granted
func (r *voteReply) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.Term)
	var granted byte
	if r.Granted {
		granted = 1
	}
	return append(buf, granted)
}

func (r *voteReply) DecodeBinary(data []byte) error {
	if len(data) != 9 {
		return errShortMessage
	}
	r.Term = binary.BigEndian.Uint64(data)
	r.Granted = data[8]&1 != 0
	return nil
}

// appendArgs: u64 term | u32 leaderID | u64 prevIndex | u64 prevTerm |
// u64 commit | entries
func (a *appendArgs) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, a.Term)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.LeaderID))
	buf = binary.BigEndian.AppendUint64(buf, a.PrevIndex)
	buf = binary.BigEndian.AppendUint64(buf, a.PrevTerm)
	buf = binary.BigEndian.AppendUint64(buf, a.Commit)
	return appendEntries(buf, a.Entries)
}

func (a *appendArgs) DecodeBinary(data []byte) error {
	if len(data) < 36 {
		return errShortMessage
	}
	a.Term = binary.BigEndian.Uint64(data)
	a.LeaderID = int(binary.BigEndian.Uint32(data[8:]))
	a.PrevIndex = binary.BigEndian.Uint64(data[12:])
	a.PrevTerm = binary.BigEndian.Uint64(data[20:])
	a.Commit = binary.BigEndian.Uint64(data[28:])
	entries, rest, err := takeEntries(data[36:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("paxos: %d trailing bytes after appendArgs", len(rest))
	}
	a.Entries = entries
	return nil
}

// appendReply: u64 term | u8 ok | u64 match
func (r *appendReply) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.Term)
	var ok byte
	if r.OK {
		ok = 1
	}
	buf = append(buf, ok)
	return binary.BigEndian.AppendUint64(buf, r.Match)
}

func (r *appendReply) DecodeBinary(data []byte) error {
	if len(data) != 17 {
		return errShortMessage
	}
	r.Term = binary.BigEndian.Uint64(data)
	r.OK = data[8]&1 != 0
	r.Match = binary.BigEndian.Uint64(data[9:])
	return nil
}

// fetchArgs: u64 from
func (a *fetchArgs) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, a.From)
}

func (a *fetchArgs) DecodeBinary(data []byte) error {
	if len(data) != 8 {
		return errShortMessage
	}
	a.From = binary.BigEndian.Uint64(data)
	return nil
}

// fetchReply: u64 commit | entries
func (r *fetchReply) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.Commit)
	return appendEntries(buf, r.Entries)
}

func (r *fetchReply) DecodeBinary(data []byte) error {
	if len(data) < 12 {
		return errShortMessage
	}
	r.Commit = binary.BigEndian.Uint64(data)
	entries, rest, err := takeEntries(data[8:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("paxos: %d trailing bytes after fetchReply", len(rest))
	}
	r.Entries = entries
	return nil
}
