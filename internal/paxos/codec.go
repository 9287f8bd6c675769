package paxos

// Every byte layout of this package: the wire form of the vote and
// append messages (transport.BinaryMessage) and the two WAL records,
// read with a wire.Reader. All integers are big-endian fixed width.
//
// A log entry has one encoding, appendEntry/readEntry:
//
//	u64 index | u64 term | u32 dataLen | data
//
// It is an element of the append message and, behind its kind byte,
// the node's durable entry record. The WAL records are
//
//	'E' | entry                    (recEntry)
//	'M' | u64 term | i64 votedFor  (recMeta; votedFor -1 = no vote)
//
// written by entryRecords/metaRecord and parsed by parseEntryRecord/
// parseMetaRecord — nothing else in the tree knows them. A record or
// message with bytes left over is refused. Entry.Data is opaque here;
// the certifier defines it (certifier/messages.go).

import (
	"encoding/binary"
	"errors"

	"tashkent/internal/transport"
	"tashkent/internal/wire"
)

var (
	_ transport.BinaryMessage = (*voteArgs)(nil)
	_ transport.BinaryMessage = (*voteReply)(nil)
	_ transport.BinaryMessage = (*appendArgs)(nil)
	_ transport.BinaryMessage = (*appendReply)(nil)
)

// entryOverhead is the encoded size of an entry without its data.
const entryOverhead = 20

func appendEntry(buf []byte, e *Entry) []byte {
	buf = binary.BigEndian.AppendUint64(buf, e.Index)
	buf = binary.BigEndian.AppendUint64(buf, e.Term)
	return wire.AppendBytes32(buf, e.Data)
}

// readEntry reads one entry. Data is copied into a slice of its own
// size: entries live in the node's log indefinitely and must not pin
// the transport frame or WAL image they were read from.
func readEntry(r *wire.Reader) Entry {
	return Entry{Index: r.U64(), Term: r.U64(), Data: r.Bytes32Copy()}
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
	r := wire.NewReader(body)
	e := readEntry(&r)
	return e, r.Done()
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
	r := wire.NewReader(body)
	term, votedFor = r.U64(), int(r.I64())
	return term, votedFor, r.Done()
}

// voteArgs: u64 term | u32 candidate | u64 lastIndex | u64 lastTerm
func (a *voteArgs) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, a.Term)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.Candidate))
	buf = binary.BigEndian.AppendUint64(buf, a.LastIndex)
	return binary.BigEndian.AppendUint64(buf, a.LastTerm)
}

func (a *voteArgs) DecodeBinary(data []byte) error {
	r := wire.NewReader(data)
	a.Term, a.Candidate, a.LastIndex, a.LastTerm = r.U64(), int(r.U32()), r.U64(), r.U64()
	return r.Done()
}

// voteReply: u64 term | u8 granted
func (r *voteReply) AppendBinary(buf []byte) []byte {
	return append(binary.BigEndian.AppendUint64(buf, r.Term), boolByte(r.Granted))
}

func (r *voteReply) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.Term, r.Granted = rd.U64(), readBool(&rd)
	return rd.Done()
}

// appendArgs: u64 term | u32 leaderID | u64 prevIndex | u64 prevTerm |
// u64 commit | u32 count | entries
func (a *appendArgs) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, a.Term)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.LeaderID))
	buf = binary.BigEndian.AppendUint64(buf, a.PrevIndex)
	buf = binary.BigEndian.AppendUint64(buf, a.PrevTerm)
	buf = binary.BigEndian.AppendUint64(buf, a.Commit)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Entries)))
	for i := range a.Entries {
		buf = appendEntry(buf, &a.Entries[i])
	}
	return buf
}

func (a *appendArgs) DecodeBinary(data []byte) error {
	r := wire.NewReader(data)
	a.Term, a.LeaderID, a.PrevIndex, a.PrevTerm, a.Commit = r.U64(), int(r.U32()), r.U64(), r.U64(), r.U64()
	a.Entries = nil
	if n := r.Count(entryOverhead); n > 0 {
		a.Entries = make([]Entry, n)
		for i := range a.Entries {
			a.Entries[i] = readEntry(&r)
		}
	}
	return r.Done()
}

// appendReply: u64 term | u8 ok | u64 match
func (r *appendReply) AppendBinary(buf []byte) []byte {
	buf = append(binary.BigEndian.AppendUint64(buf, r.Term), boolByte(r.OK))
	return binary.BigEndian.AppendUint64(buf, r.Match)
}

func (r *appendReply) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.Term, r.OK, r.Match = rd.U64(), readBool(&rd), rd.U64()
	return rd.Done()
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// readBool reads what boolByte wrote and refuses any other byte, so a
// decoded message re-encodes to the bytes it came from.
func readBool(r *wire.Reader) bool {
	b := r.U8()
	if b > 1 {
		r.Fail(errBadBool)
	}
	return b == 1
}

var errBadBool = errors.New("paxos: a bool byte other than 0 or 1")
