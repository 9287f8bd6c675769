package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// testMsg is a BinaryMessage of this test's own: u64 id | u32 len | body.
type testMsg struct {
	ID   uint64
	Body []byte
}

func (m *testMsg) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, m.ID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Body)))
	return append(buf, m.Body...)
}

func (m *testMsg) DecodeBinary(data []byte) error {
	if len(data) < 12 {
		return errors.New("short testMsg")
	}
	m.ID = binary.BigEndian.Uint64(data)
	n := int(binary.BigEndian.Uint32(data[8:]))
	if len(data)-12 != n {
		return errors.New("testMsg body length mismatch")
	}
	m.Body = data[12:]
	return nil
}

var codecSeeds = []testMsg{
	{},
	{ID: 7, Body: []byte("abc")},
	{ID: 1<<64 - 1, Body: bytes.Repeat([]byte{0xEE}, 5000)}, // beyond the pooled scratch
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, want := range codecSeeds {
		b, err := EncodeMessage(&want)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != codecBinary {
			t.Fatalf("tag 0x%02x", b[0])
		}
		var got testMsg
		if err := DecodeMessage(b, &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("round trip: %+v != %+v", got, want)
		}
	}
}

// TestMessageCodecRefusals: there is no fallback codec — a value
// without a binary form is an error on either side, and so is every tag
// but codecBinary, the former gob tag 0x00 included.
func TestMessageCodecRefusals(t *testing.T) {
	type plain struct{ A int }
	if _, err := EncodeMessage(&plain{A: 1}); err == nil {
		t.Error("encoded a value that is not a BinaryMessage")
	}
	good, err := EncodeMessage(&codecSeeds[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeMessage(good, &plain{}); err == nil {
		t.Error("decoded into a value that is not a BinaryMessage")
	}
	if err := DecodeMessage(nil, &testMsg{}); err == nil {
		t.Error("decoded an empty payload")
	}
	for _, tag := range []byte{0x00, 0x02, 0x7F, 0xFF} {
		bad := append([]byte{tag}, good[1:]...)
		if err := DecodeMessage(bad, &testMsg{}); err == nil {
			t.Errorf("decoded a payload tagged 0x%02x", tag)
		}
	}
}

// FuzzDecodeMessage: DecodeMessage never panics on arbitrary frames,
// and whatever decodes survives encode → decode unchanged.
func FuzzDecodeMessage(f *testing.F) {
	for i := range codecSeeds {
		b, err := EncodeMessage(&codecSeeds[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{0x00, 1, 2, 3})
	f.Fuzz(func(t *testing.T, frame []byte) {
		var m testMsg
		if err := DecodeMessage(frame, &m); err != nil {
			return
		}
		b, err := EncodeMessage(&m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, frame) {
			t.Fatalf("re-encoded frame differs:\n%x\n%x", b, frame)
		}
		var again testMsg
		if err := DecodeMessage(b, &again); err != nil || again.ID != m.ID || !bytes.Equal(again.Body, m.Body) {
			t.Fatalf("second decode: %+v, %v; first %+v", again, err, m)
		}
	})
}
