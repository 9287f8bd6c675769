package certifier

// Binary wire codecs for every replica↔certifier message: certify and
// pull on every update commit and staleness pull, prepare/resolve on
// every cross-partition commit, fill whenever a merge waits on an idle
// group. Each has a hand-written fixed-layout encoding
// (transport.BinaryMessage), the only wire form the transport takes.
//
// All integers are big-endian fixed width. Writesets ride as opaque
// length-prefixed byte strings: a request's is already core.Writeset's
// compact binary encoding, a RemoteWS's is the log entry's payload as
// the leader encoded it once (messages.go).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"tashkent/internal/transport"
)

// Interface checks: a message without these methods cannot be sent.
var (
	_ transport.BinaryMessage = (*Request)(nil)
	_ transport.BinaryMessage = (*Response)(nil)
	_ transport.BinaryMessage = (*PullRequest)(nil)
	_ transport.BinaryMessage = (*PullResponse)(nil)
	_ transport.BinaryMessage = (*PrepareRequest)(nil)
	_ transport.BinaryMessage = (*PrepareResponse)(nil)
	_ transport.BinaryMessage = (*ResolveRequest)(nil)
	_ transport.BinaryMessage = (*ResolveResponse)(nil)
	_ transport.BinaryMessage = (*FillRequest)(nil)
	_ transport.BinaryMessage = (*FillResponse)(nil)
)

var errShortMessage = errors.New("certifier: short binary message")

// checkFlags refuses a flags byte with a bit outside known: every
// decoded message then re-encodes to the bytes it came from.
func checkFlags(flags, known byte) error {
	if flags&^known != 0 {
		return fmt.Errorf("certifier: unknown flag bits %#x", flags&^known)
	}
	return nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// takeBytes slices a length-prefixed byte string out of data without
// copying (the decoded message may retain it; transport frames are
// per-message allocations, so aliasing is safe).
func takeBytes(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, errShortMessage
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if len(data) < n {
		return nil, nil, errShortMessage
	}
	return data[:n], data[n:], nil
}

// Request: u32 origin | u64 start | u64 replicaVersion | i64 deadline
// | u8 flags (none defined) | u32 wsLen | ws
func (r *Request) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Origin))
	buf = binary.BigEndian.AppendUint64(buf, r.StartVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Deadline))
	buf = append(buf, 0)
	return appendBytes(buf, r.WSBytes)
}

func (r *Request) DecodeBinary(data []byte) error {
	if len(data) < 29 {
		return errShortMessage
	}
	if err := checkFlags(data[28], 0); err != nil {
		return err
	}
	r.Origin = int(binary.BigEndian.Uint32(data))
	r.StartVersion = binary.BigEndian.Uint64(data[4:])
	r.ReplicaVersion = binary.BigEndian.Uint64(data[12:])
	r.Deadline = int64(binary.BigEndian.Uint64(data[20:]))
	ws, rest, err := takeBytes(data[29:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after Request", len(rest))
	}
	r.WSBytes = ws
	return nil
}

// appendRemotes: u32 count | per entry u64 version | u32 wsLen | ws
func appendRemotes(buf []byte, remote []RemoteWS) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(remote)))
	for i := range remote {
		buf = binary.BigEndian.AppendUint64(buf, remote[i].Version)
		buf = appendBytes(buf, remote[i].WSBytes)
	}
	return buf
}

func takeRemotes(data []byte) ([]RemoteWS, []byte, error) {
	if len(data) < 4 {
		return nil, nil, errShortMessage
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n == 0 {
		return nil, data, nil
	}
	if n > len(data)/12 { // each entry is at least 12 bytes; cheap sanity bound
		return nil, nil, fmt.Errorf("certifier: remote count %d exceeds payload", n)
	}
	out := make([]RemoteWS, n)
	for i := 0; i < n; i++ {
		if len(data) < 8 {
			return nil, nil, errShortMessage
		}
		out[i].Version = binary.BigEndian.Uint64(data)
		var err error
		out[i].WSBytes, data, err = takeBytes(data[8:])
		if err != nil {
			return nil, nil, err
		}
	}
	return out, data, nil
}

// Response: u8 flags(committed) | u64 commitVersion | u64
// systemVersion | remotes
func (r *Response) AppendBinary(buf []byte) []byte {
	var flags byte
	if r.Committed {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, r.CommitVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *Response) DecodeBinary(data []byte) error {
	if len(data) < 17 {
		return errShortMessage
	}
	if err := checkFlags(data[0], 1); err != nil {
		return err
	}
	r.Committed = data[0]&1 != 0
	r.CommitVersion = binary.BigEndian.Uint64(data[1:])
	r.SystemVersion = binary.BigEndian.Uint64(data[9:])
	remote, rest, err := takeRemotes(data[17:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after Response", len(rest))
	}
	r.Remote = remote
	return nil
}

// PullRequest: u32 origin | u64 replicaVersion | u8 flags
// (bit1 includeOwn)
func (r *PullRequest) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Origin))
	buf = binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
	var flags byte
	if r.IncludeOwn {
		flags |= 2
	}
	return append(buf, flags)
}

func (r *PullRequest) DecodeBinary(data []byte) error {
	if len(data) != 13 {
		return errShortMessage
	}
	if err := checkFlags(data[12], 2); err != nil {
		return err
	}
	r.Origin = int(binary.BigEndian.Uint32(data))
	r.ReplicaVersion = binary.BigEndian.Uint64(data[4:])
	r.IncludeOwn = data[12]&2 != 0
	return nil
}

// PullResponse: u8 flags(busy) | u64 systemVersion | remotes
func (r *PullResponse) AppendBinary(buf []byte) []byte {
	var flags byte
	if r.Busy {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *PullResponse) DecodeBinary(data []byte) error {
	if len(data) < 9 {
		return errShortMessage
	}
	if err := checkFlags(data[0], 1); err != nil {
		return err
	}
	r.Busy = data[0]&1 != 0
	r.SystemVersion = binary.BigEndian.Uint64(data[1:])
	remote, rest, err := takeRemotes(data[9:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after PullResponse", len(rest))
	}
	r.Remote = remote
	return nil
}

// PrepareRequest: u64 gid | u32 origin | u64 start | u64 replicaVersion
// | u64 fillTo | u16 nInvolved | u16 pid ... | u32 wsLen | ws. Partition
// ids are 16-bit here as in the log-entry payload.
func (r *PrepareRequest) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.GID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Origin))
	buf = binary.BigEndian.AppendUint64(buf, r.StartVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.FillTo)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Involved)))
	for _, pid := range r.Involved {
		buf = binary.BigEndian.AppendUint16(buf, uint16(pid))
	}
	return appendBytes(buf, r.WSBytes)
}

func (r *PrepareRequest) DecodeBinary(data []byte) error {
	if len(data) < 38 {
		return errShortMessage
	}
	r.GID = binary.BigEndian.Uint64(data)
	r.Origin = int(binary.BigEndian.Uint32(data[8:]))
	r.StartVersion = binary.BigEndian.Uint64(data[12:])
	r.ReplicaVersion = binary.BigEndian.Uint64(data[20:])
	r.FillTo = binary.BigEndian.Uint64(data[28:])
	n := int(binary.BigEndian.Uint16(data[36:]))
	data = data[38:]
	if len(data) < 2*n {
		return errShortMessage
	}
	r.Involved = nil
	if n > 0 {
		r.Involved = make([]int, n)
		for i := range r.Involved {
			r.Involved[i] = int(binary.BigEndian.Uint16(data[2*i:]))
		}
	}
	ws, rest, err := takeBytes(data[2*n:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after PrepareRequest", len(rest))
	}
	r.WSBytes = ws
	return nil
}

// PrepareResponse: u8 flags(prepared) | u64 index | u64 systemVersion
// | remotes
func (r *PrepareResponse) AppendBinary(buf []byte) []byte {
	var flags byte
	if r.Prepared {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, r.Index)
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *PrepareResponse) DecodeBinary(data []byte) error {
	if len(data) < 17 {
		return errShortMessage
	}
	if err := checkFlags(data[0], 1); err != nil {
		return err
	}
	r.Prepared = data[0]&1 != 0
	r.Index = binary.BigEndian.Uint64(data[1:])
	r.SystemVersion = binary.BigEndian.Uint64(data[9:])
	remote, rest, err := takeRemotes(data[17:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after PrepareResponse", len(rest))
	}
	r.Remote = remote
	return nil
}

// ResolveRequest: u64 gid | u8 flags(bit0 commit, bit1 veto; never
// both) | u64 replicaVersion
func (r *ResolveRequest) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.GID)
	var flags byte
	if r.Commit {
		flags |= 1
	}
	if r.Veto {
		flags |= 2
	}
	buf = append(buf, flags)
	return binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
}

func (r *ResolveRequest) DecodeBinary(data []byte) error {
	if len(data) != 17 {
		return errShortMessage
	}
	if err := checkFlags(data[8], 3); err != nil {
		return err
	}
	if data[8] == 3 {
		return errors.New("certifier: resolve both commits and vetoes")
	}
	r.GID = binary.BigEndian.Uint64(data)
	r.Commit = data[8]&1 != 0
	r.Veto = data[8]&2 != 0
	r.ReplicaVersion = binary.BigEndian.Uint64(data[9:])
	return nil
}

// ResolveResponse: u8 flags(prepared) | u64 index | u64 systemVersion
// | remotes
func (r *ResolveResponse) AppendBinary(buf []byte) []byte {
	var flags byte
	if r.Prepared {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, r.Index)
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *ResolveResponse) DecodeBinary(data []byte) error {
	if len(data) < 17 {
		return errShortMessage
	}
	if err := checkFlags(data[0], 1); err != nil {
		return err
	}
	r.Prepared = data[0]&1 != 0
	r.Index = binary.BigEndian.Uint64(data[1:])
	r.SystemVersion = binary.BigEndian.Uint64(data[9:])
	remote, rest, err := takeRemotes(data[17:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after ResolveResponse", len(rest))
	}
	r.Remote = remote
	return nil
}

// FillRequest: u64 target
func (r *FillRequest) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, r.Target)
}

func (r *FillRequest) DecodeBinary(data []byte) error {
	if len(data) != 8 {
		return errShortMessage
	}
	r.Target = binary.BigEndian.Uint64(data)
	return nil
}

// FillResponse: u64 head
func (r *FillResponse) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, r.Head)
}

func (r *FillResponse) DecodeBinary(data []byte) error {
	if len(data) != 8 {
		return errShortMessage
	}
	r.Head = binary.BigEndian.Uint64(data)
	return nil
}
