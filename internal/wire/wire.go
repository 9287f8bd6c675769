// Package wire reads and writes the big-endian byte layouts of the
// tree's hand-written formats: the paxos messages and WAL records, the
// certifier messages and log-entry payloads, writesets, the replica's
// commit records and its dump file. Each format's layout stays with the
// package that owns it; this package holds only the rules they share.
//
// A Reader walks a byte slice field by field. The first read that runs
// past the end, or a Fail, records an error; every later read then
// returns a zero value, so a decoder reads all its fields and checks
// Err or Done once. Lengths and counts are checked against the bytes
// at hand before anything is sliced or allocated.
//
// Fixed-width integers are written with binary.BigEndian.AppendUintNN;
// the two length-prefixed forms have AppendStr16 and AppendBytes32,
// which refuse a length their prefix cannot state.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShort reports a read past the end of the bytes at hand.
var ErrShort = errors.New("wire: short buffer")

// Reader decodes fields off the front of a byte slice. Its zero value
// reads nothing; NewReader starts one over a slice.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the first error the reader met, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.buf) }

// Fail records err, unless an error is recorded already, and stops the
// reader: a decoder reports a field it refuses through it.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Done returns the reader's error, or one if any bytes are left: every
// format here ends where its last field does.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf))
	}
	return r.err
}

// Bytes returns the next n bytes, aliasing the reader's slice (nil when
// they are not there).
func (r *Reader) Bytes(n int) []byte {
	if uint(n) > uint(len(r.buf)) {
		r.Fail(ErrShort)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if len(r.buf) < 1 {
		r.Fail(ErrShort)
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.buf) < 2 {
		r.Fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.buf) < 4 {
		r.Fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.buf) < 8 {
		r.Fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// I64 reads a big-endian int64 in two's complement.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Str16 reads what AppendStr16 wrote. It and Bytes32 are open-coded so
// that they inline into the decoders.
func (r *Reader) Str16() string {
	if len(r.buf) >= 2 {
		n := int(binary.BigEndian.Uint16(r.buf))
		if rest := r.buf[2:]; n <= len(rest) {
			r.buf = rest[n:]
			return string(rest[:n])
		}
	}
	r.Fail(ErrShort)
	return ""
}

// Bytes32 reads what AppendBytes32 wrote, aliasing the reader's slice:
// for a caller whose value lives no longer than the bytes it decodes.
func (r *Reader) Bytes32() []byte {
	if len(r.buf) >= 4 {
		n := uint64(binary.BigEndian.Uint32(r.buf))
		if rest := r.buf[4:]; n <= uint64(len(rest)) {
			r.buf = rest[n:]
			return rest[:n:n]
		}
	}
	r.Fail(ErrShort)
	return nil
}

// Bytes32Copy is Bytes32 into a slice of its own (nil when empty): for
// a value that outlives the buffer it was read from.
func (r *Reader) Bytes32Copy() []byte { return append([]byte(nil), r.Bytes32()...) }

// Count reads a uint32 element count and refuses one the bytes left
// cannot hold at minElemSize bytes an element, so the caller may
// allocate for it.
func (r *Reader) Count(minElemSize int) int {
	n := int(r.U32())
	if n > len(r.buf)/minElemSize {
		r.Fail(fmt.Errorf("wire: count %d exceeds the %d bytes left", n, len(r.buf)))
		return 0
	}
	return n
}

// AppendStr16 appends s behind its uint16 length. It panics on a string
// longer than 65 535 bytes: formats check what they take from outside
// before encoding it.
func AppendStr16(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		panic("wire: string longer than a 16-bit length states")
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// AppendBytes32 appends b behind its uint32 length, and panics on a
// slice longer than that can state.
func AppendBytes32(buf, b []byte) []byte {
	if uint64(len(b)) > math.MaxUint32 {
		panic("wire: byte string longer than a 32-bit length states")
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}
