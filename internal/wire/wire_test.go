package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// TestReaderStickyError: the first read past the end records ErrShort,
// every later read returns a zero value, and Done reports that error
// rather than the bytes left.
func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0, 5, 'a', 'b'})
	if s := r.Str16(); s != "" || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("Str16 over 3 missing bytes = %q, %v", s, r.Err())
	}
	if v := r.U64(); v != 0 || r.Len() != 0 {
		t.Fatalf("a read after the error = %d with %d bytes left", v, r.Len())
	}
	r.Fail(errors.New("later"))
	if err := r.Done(); !errors.Is(err, ErrShort) {
		t.Fatalf("Done = %v, want the first error", err)
	}
}

// TestReaderDoneRefusesLeftovers: a reader with bytes left is not done,
// and one read to the end is.
func TestReaderDoneRefusesLeftovers(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.U16(); r.Done() == nil {
		t.Fatal("Done with a byte left returned nil")
	}
	if r.U8(); r.Done() != nil {
		t.Fatalf("Done at the end: %v", r.Done())
	}
}

// TestCountBoundsAllocation: a count the bytes left cannot hold at the
// element size is refused before the caller allocates for it.
func TestCountBoundsAllocation(t *testing.T) {
	buf := binary.BigEndian.AppendUint32(nil, 3)
	buf = append(buf, make([]byte, 11)...)
	if r := NewReader(buf); r.Count(4) != 0 || r.Err() == nil {
		t.Error("3 elements of 4 bytes accepted from 11 bytes")
	}
	if r := NewReader(buf); r.Count(3) != 3 || r.Err() != nil {
		t.Errorf("3 elements of 3 bytes refused from 11 bytes: %v", r.Err())
	}
}

// TestBytes32AliasesAndCopies pins the two forms: Bytes32 shares the
// reader's bytes, capped at its own length; Bytes32Copy does not.
func TestBytes32AliasesAndCopies(t *testing.T) {
	buf := AppendBytes32(AppendBytes32(nil, []byte("ab")), []byte("cd"))
	r := NewReader(buf)
	alias, cp := r.Bytes32(), r.Bytes32Copy()
	if r.Done() != nil || string(alias) != "ab" || string(cp) != "cd" || cap(alias) != 2 {
		t.Fatalf("read %q (cap %d) and %q: %v", alias, cap(alias), cp, r.Done())
	}
	buf[4], buf[10] = 'X', 'Y'
	if string(alias) != "Xb" || string(cp) != "cd" {
		t.Errorf("after the buffer changed: alias %q, copy %q", alias, cp)
	}
	if r := NewReader(AppendBytes32(nil, nil)); r.Bytes32Copy() != nil {
		t.Error("an empty Bytes32Copy is not nil")
	}
}

// TestAppendStr16RefusesOversize: a string its 16-bit length cannot
// state panics instead of being written with a truncated length. (The
// 32-bit form's limit, 4 GiB, is not allocated here.)
func TestAppendStr16RefusesOversize(t *testing.T) {
	max := strings.Repeat("x", 1<<16-1)
	r := NewReader(AppendStr16(nil, max))
	if s := r.Str16(); s != max || r.Done() != nil {
		t.Fatalf("a %d-byte string did not round-trip", len(max))
	}
	defer func() {
		if recover() == nil {
			t.Error("a 65 536-byte string was written")
		}
	}()
	AppendStr16(nil, max+"x")
}

// FuzzReader drives a Reader with an arbitrary sequence of reads over
// arbitrary bytes: nothing panics, a failed reader holds nothing more,
// and whatever reads without error re-encodes to the bytes it consumed.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, AppendStr16(AppendBytes32([]byte{9, 0, 1, 0, 0, 0, 2}, []byte("xy")), "s"))
	f.Add([]byte{5, 6, 7}, []byte{0, 3, 'a', 'b', 'c', 0, 0, 0, 1, 'z', 0, 0, 0, 0})
	f.Add([]byte{8, 8}, []byte{0, 0, 0, 2, 1, 2, 3, 4, 0, 0, 0, 0})
	f.Add([]byte{6}, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		var out []byte
		for _, op := range ops {
			switch op % 9 {
			case 0:
				out = append(out, r.U8())
			case 1:
				out = binary.BigEndian.AppendUint16(out, r.U16())
			case 2:
				out = binary.BigEndian.AppendUint32(out, r.U32())
			case 3:
				out = binary.BigEndian.AppendUint64(out, r.U64())
			case 4:
				out = binary.BigEndian.AppendUint64(out, uint64(r.I64()))
			case 5:
				out = AppendStr16(out, r.Str16())
			case 6:
				b := r.Bytes32()
				if cap(b) != len(b) {
					t.Fatalf("Bytes32 of %d bytes has capacity %d", len(b), cap(b))
				}
				out = AppendBytes32(out, b)
			case 7:
				out = AppendBytes32(out, r.Bytes32Copy())
			case 8:
				size := 1 + int(op/9)%8
				left := r.Len()
				n := r.Count(size)
				if r.Err() == nil && n*size > left-4 {
					t.Fatalf("count %d of %d-byte elements from %d bytes", n, size, left-4)
				}
				out = binary.BigEndian.AppendUint32(out, uint32(n))
			}
		}
		if r.Err() != nil {
			if r.Len() != 0 || r.Done() != r.Err() {
				t.Fatalf("failed reader: %d bytes left, Done %v, Err %v", r.Len(), r.Done(), r.Err())
			}
			return
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out, consumed) {
			t.Fatalf("re-encoded\n%x\nconsumed\n%x", out, consumed)
		}
		if (r.Done() == nil) != (r.Len() == 0) {
			t.Fatalf("Done = %v with %d bytes left", r.Done(), r.Len())
		}
	})
}
