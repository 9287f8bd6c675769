package transport

import (
	"errors"
	"fmt"
	"sync"
)

// Message codec: every RPC payload is a one-byte codec tag followed by
// the message's hand-written fixed-layout binary form. Every message of
// the system — replica↔certifier and the paxos group's own traffic —
// implements BinaryMessage; there is no reflective fallback, so a value
// that does not implement it cannot be sent and a payload with another
// tag is refused. (The tag stays so a future format can be told apart
// from this one.)

// codecBinary tags a BinaryMessage payload. 0x00 was the gob fallback,
// now refused like any unknown tag.
const codecBinary byte = 0x01

// BinaryMessage is implemented by message types with a hand-written
// binary wire form. AppendBinary appends the encoding to buf (which
// may be pooled scratch — implementations must only append).
// DecodeBinary parses data; it may retain subslices of data, so
// callers must not reuse the buffer afterwards.
type BinaryMessage interface {
	AppendBinary(buf []byte) []byte
	DecodeBinary(data []byte) error
}

// binBufPool recycles binary-encode scratch. Encoded messages are
// copied out exactly sized before release: the result escapes into the
// fabric, where a handler may retain it past the call.
var binBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

// EncodeMessage encodes v, which must implement BinaryMessage, for the
// wire. The result is a fresh allocation, safe to retain.
func EncodeMessage(v interface{}) ([]byte, error) {
	bm, ok := v.(BinaryMessage)
	if !ok {
		return nil, fmt.Errorf("transport: %T has no binary wire form", v)
	}
	bp := binBufPool.Get().(*[]byte)
	scratch := append((*bp)[:0], codecBinary)
	scratch = bm.AppendBinary(scratch)
	out := make([]byte, len(scratch))
	copy(out, scratch)
	if cap(scratch) <= 1<<20 { // don't let one huge message pin pool memory
		*bp = scratch[:0]
		binBufPool.Put(bp)
	}
	return out, nil
}

// DecodeMessage decodes an EncodeMessage payload into v, which may
// retain subslices of b.
func DecodeMessage(b []byte, v interface{}) error {
	if len(b) == 0 {
		return errors.New("transport: empty message")
	}
	if b[0] != codecBinary {
		return fmt.Errorf("transport: unknown codec tag 0x%02x", b[0])
	}
	bm, ok := v.(BinaryMessage)
	if !ok {
		return fmt.Errorf("transport: %T has no binary wire form", v)
	}
	return bm.DecodeBinary(b[1:])
}
