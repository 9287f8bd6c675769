package certifier

// Binary wire codecs for every replica↔certifier message: the commit
// request on every update commit, one-group and cross-partition alike,
// pull on every staleness pull, resolve on every cross-partition commit,
// fill whenever a merge waits on an idle group. Each has a hand-written
// fixed layout (transport.BinaryMessage), the only wire form the
// transport takes, read with a wire.Reader; a message with bytes left
// over, or a flag bit no encoder sets, is refused.
//
// All integers are big-endian fixed width. Writesets ride as opaque
// length-prefixed byte strings, which the decoded message aliases (a
// transport frame is a per-message allocation): a request's is already
// core.Writeset's compact binary encoding, a RemoteWS's is the log
// entry's payload as the leader encoded it once (messages.go).

import (
	"encoding/binary"
	"errors"

	"tashkent/internal/transport"
	"tashkent/internal/wire"
)

// Interface checks: a message without these methods cannot be sent.
var (
	_ transport.BinaryMessage = (*Request)(nil)
	_ transport.BinaryMessage = (*Response)(nil)
	_ transport.BinaryMessage = (*PullRequest)(nil)
	_ transport.BinaryMessage = (*PullResponse)(nil)
	_ transport.BinaryMessage = (*ResolveRequest)(nil)
	_ transport.BinaryMessage = (*ResolveResponse)(nil)
	_ transport.BinaryMessage = (*FillRequest)(nil)
	_ transport.BinaryMessage = (*FillResponse)(nil)
)

// readFlags reads a flags byte and refuses a bit outside known: every
// decoded message then re-encodes to the bytes it came from.
func readFlags(r *wire.Reader, known byte) byte {
	flags := r.U8()
	if flags&^known != 0 {
		r.Fail(errUnknownFlags)
	}
	return flags
}

var errUnknownFlags = errors.New("certifier: unknown flag bits")

// Request: u64 gid | u32 origin | u64 start | u64 replicaVersion
// | u64 fillTo | i64 deadline | u8 flags (none defined) | u16 nInvolved
// | u16 pid ... | u32 wsLen | ws. Partition ids are 16-bit here as in
// the log-entry payload.
func (r *Request) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.GID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Origin))
	buf = binary.BigEndian.AppendUint64(buf, r.StartVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.FillTo)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Deadline))
	buf = append(buf, 0)
	return wire.AppendBytes32(appendInvolved(buf, r.Involved), r.WSBytes)
}

func (r *Request) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.GID, r.Origin, r.StartVersion = rd.U64(), int(rd.U32()), rd.U64()
	r.ReplicaVersion, r.FillTo, r.Deadline = rd.U64(), rd.U64(), rd.I64()
	readFlags(&rd, 0)
	r.Involved = readInvolved(&rd)
	r.WSBytes = rd.Bytes32()
	return rd.Done()
}

// appendRemotes: u32 count | per entry u64 version | u32 wsLen | ws
func appendRemotes(buf []byte, remote []RemoteWS) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(remote)))
	for i := range remote {
		buf = binary.BigEndian.AppendUint64(buf, remote[i].Version)
		buf = wire.AppendBytes32(buf, remote[i].WSBytes)
	}
	return buf
}

// readRemotes reads what appendRemotes wrote, an empty list as nil.
func readRemotes(r *wire.Reader) []RemoteWS {
	n := r.Count(12) // each entry is at least 12 bytes
	if n == 0 {
		return nil
	}
	out := make([]RemoteWS, n)
	for i := range out {
		out[i] = RemoteWS{Version: r.U64(), WSBytes: r.Bytes32()}
	}
	return out
}

// Response: u8 flags(yes) | u64 index | u64 systemVersion | remotes
func (r *Response) AppendBinary(buf []byte) []byte {
	buf = append(buf, boolByte(r.Yes))
	buf = binary.BigEndian.AppendUint64(buf, r.Index)
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *Response) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.Yes = readFlags(&rd, 1) == 1
	r.Index, r.SystemVersion, r.Remote = rd.U64(), rd.U64(), readRemotes(&rd)
	return rd.Done()
}

// PullRequest: u64 replicaVersion
func (r *PullRequest) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
}

func (r *PullRequest) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.ReplicaVersion = rd.U64()
	return rd.Done()
}

// PullResponse: u8 flags(busy) | u64 systemVersion | remotes
func (r *PullResponse) AppendBinary(buf []byte) []byte {
	buf = append(buf, boolByte(r.Busy))
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *PullResponse) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.Busy = readFlags(&rd, 1) == 1
	r.SystemVersion, r.Remote = rd.U64(), readRemotes(&rd)
	return rd.Done()
}

// ResolveRequest: u64 gid | u8 flags(bit0 commit, bit1 veto; never
// both) | u64 replicaVersion
func (r *ResolveRequest) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.GID)
	buf = append(buf, boolByte(r.Commit)|boolByte(r.Veto)<<1)
	return binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
}

func (r *ResolveRequest) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.GID = rd.U64()
	flags := readFlags(&rd, 3)
	r.Commit, r.Veto, r.ReplicaVersion = flags&1 != 0, flags&2 != 0, rd.U64()
	if flags == 3 {
		rd.Fail(errors.New("certifier: resolve both commits and vetoes"))
	}
	return rd.Done()
}

// ResolveResponse: u8 flags(prepared) | u64 index | u64 systemVersion
// | remotes
func (r *ResolveResponse) AppendBinary(buf []byte) []byte {
	buf = append(buf, boolByte(r.Prepared))
	buf = binary.BigEndian.AppendUint64(buf, r.Index)
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *ResolveResponse) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.Prepared = readFlags(&rd, 1) == 1
	r.Index, r.SystemVersion, r.Remote = rd.U64(), rd.U64(), readRemotes(&rd)
	return rd.Done()
}

// FillRequest: u64 target
func (r *FillRequest) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, r.Target)
}

func (r *FillRequest) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.Target = rd.U64()
	return rd.Done()
}

// FillResponse: u64 head
func (r *FillResponse) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, r.Head)
}

func (r *FillResponse) DecodeBinary(data []byte) error {
	rd := wire.NewReader(data)
	r.Head = rd.U64()
	return rd.Done()
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
