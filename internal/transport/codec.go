package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// Message codec: every RPC payload starts with a one-byte codec tag.
// Hot message types (every replica↔certifier message, paxos
// append/fetch) implement BinaryMessage and take a hand-written
// length-prefixed binary fast path; everything else (paxos votes)
// falls back to gob. Gob starts
// every message with a full type descriptor — tens of bytes of field
// names per message — which the wire sweep showed dominating
// bytes/writeset on the certify path.

// Codec tags.
const (
	codecGob    byte = 0x00
	codecBinary byte = 0x01
)

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

// EncodeMessage encodes v for the wire: the binary fast path when v
// implements BinaryMessage, tagged gob otherwise. The result is a
// fresh allocation, safe to retain.
func EncodeMessage(v interface{}) ([]byte, error) {
	if bm, ok := v.(BinaryMessage); ok {
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
	buf := gobBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteByte(codecGob)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		gobBufPool.Put(buf)
		return nil, err
	}
	out := append([]byte(nil), buf.Bytes()...)
	gobBufPool.Put(buf)
	return out, nil
}

// DecodeMessage decodes an EncodeMessage payload into v. The binary
// path may retain subslices of b.
func DecodeMessage(b []byte, v interface{}) error {
	if len(b) == 0 {
		return errors.New("transport: empty message")
	}
	switch b[0] {
	case codecBinary:
		bm, ok := v.(BinaryMessage)
		if !ok {
			return fmt.Errorf("transport: binary payload for non-binary type %T", v)
		}
		return bm.DecodeBinary(b[1:])
	case codecGob:
		return GobDecode(b[1:], v)
	default:
		return fmt.Errorf("transport: unknown codec tag 0x%02x", b[0])
	}
}
