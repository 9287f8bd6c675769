package certifier

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"tashkent/internal/core"
	"tashkent/internal/transport"
)

func randBytes(rng *rand.Rand, max int) []byte {
	b := make([]byte, rng.Intn(max))
	rng.Read(b)
	return b
}

func randRemotes(rng *rand.Rand) []RemoteWS {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]RemoteWS, n)
	for i := range out {
		out[i] = RemoteWS{
			Version: rng.Uint64(),
			WSBytes: randBytes(rng, 64),
		}
	}
	return out
}

func randInvolved(rng *rand.Rand) []int {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(1 << 16)
	}
	return out
}

// roundTrip encodes v with the message codec and decodes into a fresh
// value of the same type, returning it for comparison.
func roundTrip(t *testing.T, v interface{}) interface{} {
	t.Helper()
	b, err := transport.EncodeMessage(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if err := transport.DecodeMessage(b, out); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return out
}

// normWS maps empty and nil slices together for comparison: the
// decoder returns an empty subslice of the frame where nil was sent.
func normWS(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

func normRemotes(r []RemoteWS) []RemoteWS {
	if len(r) == 0 {
		return nil
	}
	out := make([]RemoteWS, len(r))
	for i := range r {
		out[i] = r[i]
		out[i].WSBytes = normWS(r[i].WSBytes)
	}
	return out
}

// TestCodecRoundTripFuzz drives randomized values of every hot message
// type through the binary fast path and checks exact equality, seeded
// for reproducibility.
func TestCodecRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		req := &Request{
			GID:            rng.Uint64(),
			Origin:         rng.Intn(1 << 16),
			StartVersion:   rng.Uint64(),
			Involved:       randInvolved(rng),
			WSBytes:        randBytes(rng, 256),
			ReplicaVersion: rng.Uint64(),
			FillTo:         rng.Uint64(),
			Deadline:       rng.Int63() - rng.Int63(),
		}
		got := roundTrip(t, req).(*Request)
		req.WSBytes, got.WSBytes = normWS(req.WSBytes), normWS(got.WSBytes)
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("Request round trip: %+v != %+v", got, req)
		}

		resp := &Response{
			Yes:           rng.Intn(2) == 0,
			Index:         rng.Uint64(),
			SystemVersion: rng.Uint64(),
			Remote:        randRemotes(rng),
		}
		gotR := roundTrip(t, resp).(*Response)
		resp.Remote, gotR.Remote = normRemotes(resp.Remote), normRemotes(gotR.Remote)
		if !reflect.DeepEqual(resp, gotR) {
			t.Fatalf("Response round trip: %+v != %+v", gotR, resp)
		}

		pr := &PullRequest{ReplicaVersion: rng.Uint64()}
		if got := roundTrip(t, pr).(*PullRequest); !reflect.DeepEqual(pr, got) {
			t.Fatalf("PullRequest round trip: %+v != %+v", got, pr)
		}

		presp := &PullResponse{
			Remote:        randRemotes(rng),
			SystemVersion: rng.Uint64(),
			Busy:          rng.Intn(2) == 0,
		}
		gotP := roundTrip(t, presp).(*PullResponse)
		presp.Remote, gotP.Remote = normRemotes(presp.Remote), normRemotes(gotP.Remote)
		if !reflect.DeepEqual(presp, gotP) {
			t.Fatalf("PullResponse round trip: %+v != %+v", gotP, presp)
		}

		// Commit, veto or a plain abort: never both flags.
		kind := rng.Intn(3)
		res := &ResolveRequest{GID: rng.Uint64(), Commit: kind == 1, Veto: kind == 2, ReplicaVersion: rng.Uint64()}
		if got := roundTrip(t, res).(*ResolveRequest); !reflect.DeepEqual(res, got) {
			t.Fatalf("ResolveRequest round trip: %+v != %+v", got, res)
		}

		resResp := &ResolveResponse{Index: rng.Uint64(), SystemVersion: rng.Uint64(), Prepared: rng.Intn(2) == 0, Remote: randRemotes(rng)}
		gotRes := roundTrip(t, resResp).(*ResolveResponse)
		resResp.Remote, gotRes.Remote = normRemotes(resResp.Remote), normRemotes(gotRes.Remote)
		if !reflect.DeepEqual(resResp, gotRes) {
			t.Fatalf("ResolveResponse round trip: %+v != %+v", gotRes, resResp)
		}

		fill := &FillRequest{Target: rng.Uint64()}
		if got := roundTrip(t, fill).(*FillRequest); !reflect.DeepEqual(fill, got) {
			t.Fatalf("FillRequest round trip: %+v != %+v", got, fill)
		}
		fillResp := &FillResponse{Head: rng.Uint64()}
		if got := roundTrip(t, fillResp).(*FillResponse); !reflect.DeepEqual(fillResp, got) {
			t.Fatalf("FillResponse round trip: %+v != %+v", got, fillResp)
		}
	}
}

func gobBytes(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecBinarySmallerThanGob pins the point of the fast path: a
// representative certify request, a pull response and a commit
// marker's response carrying the suffix must encode smaller than their
// gob form.
func TestCodecBinarySmallerThanGob(t *testing.T) {
	ws := bytes.Repeat([]byte{0xAB}, 120) // typical small writeset
	req := &Request{Origin: 3, StartVersion: 1000, ReplicaVersion: 990, WSBytes: ws}
	binB, err := transport.EncodeMessage(req)
	if err != nil {
		t.Fatal(err)
	}
	gobB := gobBytes(t, req)
	if len(binB) >= len(gobB) {
		t.Errorf("binary Request %dB not smaller than gob %dB", len(binB), len(gobB))
	}
	t.Logf("Request: binary %dB vs gob %dB", len(binB), len(gobB))

	resp := &PullResponse{SystemVersion: 1000, Remote: []RemoteWS{
		{Version: 998, WSBytes: ws},
		{Version: 999, WSBytes: ws},
	}}
	binB, err = transport.EncodeMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	gobB = gobBytes(t, resp)
	if len(binB) >= len(gobB) {
		t.Errorf("binary PullResponse %dB not smaller than gob %dB", len(binB), len(gobB))
	}
	t.Logf("PullResponse: binary %dB vs gob %dB", len(binB), len(gobB))

	res := &ResolveResponse{Index: 1000, SystemVersion: 1000, Remote: resp.Remote}
	binB, err = transport.EncodeMessage(res)
	if err != nil {
		t.Fatal(err)
	}
	gobB = gobBytes(t, res)
	if len(binB) >= len(gobB) {
		t.Errorf("binary ResolveResponse %dB not smaller than gob %dB", len(binB), len(gobB))
	}
	t.Logf("ResolveResponse: binary %dB vs gob %dB", len(binB), len(gobB))
}

// TestCodecTruncation feeds truncated binary payloads to every decoder
// and requires an error, never a panic or silent success.
func TestCodecTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	full, err := transport.EncodeMessage(&Response{
		Yes: true, Index: 9, Remote: randRemotes(rng),
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		var r Response
		if err := transport.DecodeMessage(full[:cut], &r); err == nil && cut < len(full) {
			// Some prefixes of a message with empty tail sections can be
			// self-consistent; only flag clearly impossible successes.
			if cut < 18 {
				t.Fatalf("truncated Response (%d of %d bytes) decoded without error", cut, len(full))
			}
		}
	}
	// The requests, the answers with a fixed tail, and the 2PC and fill
	// messages: every strict prefix must fail, wherever the cut falls
	// (header, involved list, writeset).
	for _, msg := range []interface{}{
		&Request{Origin: 1, StartVersion: 5, Involved: []int{2}, WSBytes: randBytes(rng, 40), ReplicaVersion: 4, Deadline: 3},
		&Request{GID: 7, Origin: 1, StartVersion: 5, Involved: []int{0, 3}, WSBytes: randBytes(rng, 40), ReplicaVersion: 4, FillTo: 6, Deadline: 3},
		&Response{Yes: true, Index: 9, SystemVersion: 9},
		&Response{Yes: true, Index: 9, SystemVersion: 9, Remote: []RemoteWS{{Version: 8}, {Version: 9, WSBytes: randBytes(rng, 40)}}},
		&PullRequest{ReplicaVersion: 4},
		&ResolveRequest{GID: 7, Commit: true, ReplicaVersion: 4},
		&ResolveRequest{GID: 7, Veto: true, ReplicaVersion: 4},
		&ResolveResponse{Index: 9, SystemVersion: 9},
		&ResolveResponse{Index: 9, SystemVersion: 9, Prepared: true},
		&ResolveResponse{Index: 9, SystemVersion: 9, Remote: []RemoteWS{{Version: 5}, {Version: 9, WSBytes: randBytes(rng, 40)}}},
		&FillRequest{Target: 12},
		&FillResponse{Head: 12},
	} {
		full, err := transport.EncodeMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(full); cut++ {
			out := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
			if err := transport.DecodeMessage(full[:cut], out); err == nil {
				t.Fatalf("truncated %T (%d of %d bytes) decoded without error", msg, cut, len(full))
			}
		}
	}
	// A flag bit no encoder sets is refused, so that whatever decodes
	// re-encodes to the same bytes.
	for _, msg := range []interface{}{
		&Request{WSBytes: []byte{1}},
		&Response{Yes: true},
		&PullResponse{Busy: true},
		&ResolveRequest{Commit: true},
		&ResolveRequest{Veto: true},
		&ResolveResponse{Prepared: true},
	} {
		full, err := transport.EncodeMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range full[1:] {
			if full[1+i] == 0 {
				continue
			}
			bad := append([]byte(nil), full...)
			bad[1+i] |= 0x80
			out := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
			if err := transport.DecodeMessage(bad, out); err == nil {
				if again, _ := transport.EncodeMessage(out); !bytes.Equal(again, bad) {
					t.Errorf("%T with byte %d set to %#x decoded to %+v, which re-encodes differently", msg, i, bad[1+i], out)
				}
			}
		}
	}
	// A request has no flag bit: any bit is unknown.
	var req Request
	full, err = transport.EncodeMessage(&Request{WSBytes: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	full[1+44] = 1
	if err := transport.DecodeMessage(full, &req); err == nil {
		t.Error("Request with flag bit 0 set decoded without error")
	}
	// A resolve is a commit, a veto or a plain abort, never two of them.
	var res ResolveRequest
	both := (&ResolveRequest{Commit: true}).AppendBinary(nil)
	both[8] |= 2
	if err := res.DecodeBinary(both); err == nil {
		t.Errorf("ResolveRequest with both commit and veto decoded to %+v", res)
	}
	var pull PullRequest
	if err := pull.DecodeBinary(append((&PullRequest{ReplicaVersion: 4}).AppendBinary(nil), 0)); err == nil {
		t.Error("PullRequest with a trailing byte decoded without error")
	}
	if err := transport.DecodeMessage([]byte{0x01, 0x00}, &req); err == nil {
		t.Error("2-byte Request decoded without error")
	}
	if err := transport.DecodeMessage(nil, &req); err == nil {
		t.Error("empty payload decoded without error")
	}
	if err := transport.DecodeMessage([]byte{0x7F, 0x00}, &req); err == nil {
		t.Error("unknown codec tag decoded without error")
	}
	// The gob fallback is gone: what used to be a valid gob-tagged
	// Request is refused like any other unknown tag.
	if err := transport.DecodeMessage(append([]byte{0x00}, gobBytes(t, &Request{Origin: 1})...), &req); err == nil {
		t.Error("gob-tagged Request decoded without error")
	}
}

// entrySeeds is the round-trip table of the log-entry payload: every
// kind, with and without an involved list, the barrier no-op and a
// several-operation writeset. FuzzDecodeLogEntry starts from it.
func entrySeeds() []Entry {
	one := &core.Writeset{Ops: []core.WriteOp{{Kind: core.OpInsert, Table: "a", Key: "b",
		Cols: []core.ColUpdate{{Col: "c", Value: []byte("d")}}}}}
	three := &core.Writeset{}
	for _, k := range []string{"x", "y", "z"} {
		three.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: k,
			Cols: []core.ColUpdate{{Col: "v", Value: []byte(k + k)}, {Col: "w"}}})
	}
	three.Add(core.WriteOp{Kind: core.OpDelete, Table: "t", Key: "gone"})
	return []Entry{
		{Kind: core.KindData, Origin: 7, Start: 42, WS: one},
		{Kind: core.KindData, Origin: 1 << 20, Start: 1<<64 - 1, WS: three},
		{Kind: core.KindData, Origin: core.BarrierOrigin, WS: &core.Writeset{}},
		{Kind: core.KindPrepare, Origin: 3, Start: 9, GID: 77, Involved: []int{0, 2}, WS: three},
		{Kind: core.KindPrepare, Origin: 3, Start: 9, GID: 78, WS: one},
		{Kind: core.KindCommitMarker, GID: 77, WS: &core.Writeset{}},
		{Kind: core.KindAbortMarker, GID: 1<<64 - 1, WS: &core.Writeset{}},
	}
}

// sameEntry compares decoded entries, writesets by their encoding (an
// empty one decodes to a non-nil empty operation list).
func sameEntry(a, b Entry) bool {
	sameWS := bytes.Equal(a.WS.Encode(nil), b.WS.Encode(nil))
	a.WS, b.WS = nil, nil
	return sameWS && reflect.DeepEqual(a, b)
}

// TestLogEntryOneEncoding: for every kind, the payload the constructor
// builds from request bytes is, byte for byte, what EncodeEntry makes
// of its decoded form; the LogEntry beside it carries the same fields;
// and the payload does not alias the request's bytes.
func TestLogEntryOneEncoding(t *testing.T) {
	for _, want := range entrySeeds() {
		reqBytes := want.WS.Encode(nil)
		le, err := newLogEntry(want.Kind, want.Origin, want.Start, want.GID, want.Involved, reqBytes)
		if err != nil {
			t.Fatalf("%v: %v", want.Kind, err)
		}
		dec, err := DecodeLogEntry(le.Payload)
		if err != nil {
			t.Fatalf("%v: %v", want.Kind, err)
		}
		if again := EncodeEntry(dec); !bytes.Equal(again, le.Payload) {
			t.Errorf("%v: EncodeEntry(DecodeLogEntry(payload)) differs:\n%x\n%x", want.Kind, again, le.Payload)
		}
		if !sameEntry(dec, want) {
			t.Errorf("decoded %+v, want %+v", dec, want)
		}
		if asEntry := (Entry{Kind: le.Kind, Origin: le.Origin, Start: uint64(le.Start),
			GID: le.GID, Involved: le.Involved, WS: le.WS}); !sameEntry(asEntry, want) {
			t.Errorf("log entry %+v does not match %+v", le, want)
		}
		if cap(le.Payload) != len(le.Payload) {
			t.Errorf("%v: payload of %d bytes in a slice of capacity %d", want.Kind, len(le.Payload), cap(le.Payload))
		}
		before := append([]byte(nil), le.Payload...)
		for i := range reqBytes {
			reqBytes[i] ^= 0xFF // the transport frame is reused
		}
		if !bytes.Equal(le.Payload, before) {
			t.Errorf("%v: payload aliases the request's bytes", want.Kind)
		}
		// What the rebuild path makes of a committed payload is the same
		// entry, holding that very slice.
		at, err := logEntryAt(5, le.Payload)
		if err != nil {
			t.Fatal(err)
		}
		le.Version = 5
		if !reflect.DeepEqual(at, le) || &at.Payload[0] != &le.Payload[0] {
			t.Errorf("logEntryAt: %+v, want %+v sharing the payload", at, le)
		}
	}
}

// TestLogEntryRefusals: nothing but a well-formed writeset follows the
// header — bytes after it are refused by the constructor (they would
// otherwise enter the log) and by the parser, as is every strict prefix
// and an unknown kind.
func TestLogEntryRefusals(t *testing.T) {
	for _, e := range entrySeeds() {
		wsB := e.WS.Encode(nil)
		if _, err := newLogEntry(e.Kind, e.Origin, e.Start, e.GID, e.Involved, append(wsB, 0)); err == nil {
			t.Errorf("%v: a request with a byte after its writeset became a log entry", e.Kind)
		}
		if _, err := newLogEntry(e.Kind, e.Origin, e.Start, e.GID, e.Involved, wsB[:len(wsB)-1]); err == nil {
			t.Errorf("%v: a request with a cut writeset became a log entry", e.Kind)
		}
		payload := EncodeEntry(e)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeLogEntry(payload[:cut]); err == nil {
				t.Errorf("%v: payload cut to %d of %d bytes decoded", e.Kind, cut, len(payload))
			}
		}
		if _, err := DecodeLogEntry(append(payload, 0)); err == nil {
			t.Errorf("%v: payload with a trailing byte decoded", e.Kind)
		}
		payload[0] = byte(core.KindAbortMarker) + 1
		if _, err := DecodeLogEntry(payload); err == nil {
			t.Error("payload of an unknown kind decoded")
		}
	}
}

// FuzzDecodeLogEntry: whatever parses as a log entry re-encodes to the
// same bytes and parses again to the same entry; nothing panics, and
// the involved list is never allocated beyond the bytes present.
func FuzzDecodeLogEntry(f *testing.F) {
	for _, e := range entrySeeds() {
		payload := EncodeEntry(e)
		f.Add(payload)
		f.Add(payload[:len(payload)-1])
	}
	// A 2PC header claiming 65535 partitions with none present.
	f.Add(append(EncodeEntry(Entry{Kind: core.KindPrepare, WS: &core.Writeset{}})[:21], 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := DecodeLogEntry(payload)
		if err != nil {
			return
		}
		if 2*len(e.Involved) > len(payload) {
			t.Fatalf("%d involved partitions out of a %d-byte payload", len(e.Involved), len(payload))
		}
		again := EncodeEntry(e)
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded payload differs:\n%x\n%x", again, payload)
		}
		e2, err := DecodeLogEntry(again)
		if err != nil || !sameEntry(e, e2) {
			t.Fatalf("second decode: %+v, %v; first %+v", e2, err, e)
		}
	})
}

// messageSeeds are FuzzDecodeCertifierMessages' corpus messages, which
// the golden vectors pin too.
func messageSeeds() []transport.BinaryMessage {
	rng := rand.New(rand.NewSource(5))
	return []transport.BinaryMessage{
		&Request{Origin: 1, StartVersion: 5, Involved: []int{1}, WSBytes: randBytes(rng, 40), ReplicaVersion: 4, Deadline: 3},
		&Request{GID: 7, Origin: 1, StartVersion: 5, Involved: []int{0, 3}, WSBytes: randBytes(rng, 40), ReplicaVersion: 4, FillTo: 6, Deadline: 3},
		&Response{Yes: true, Index: 9, SystemVersion: 9, Remote: randRemotes(rng)},
		&Response{Yes: true, Index: 9, SystemVersion: 9, Remote: []RemoteWS{{Version: 9, WSBytes: randBytes(rng, 32)}}},
		&PullRequest{ReplicaVersion: 4},
		&PullResponse{Busy: true, SystemVersion: 9, Remote: randRemotes(rng)},
		&ResolveRequest{GID: 7, Veto: true, ReplicaVersion: 4},
		&ResolveResponse{Index: 9, SystemVersion: 9, Remote: []RemoteWS{{Version: 8, WSBytes: randBytes(rng, 32)}, {Version: 9}}},
		&ResolveResponse{Index: 9, SystemVersion: 9, Prepared: true, Remote: []RemoteWS{{Version: 9, WSBytes: randBytes(rng, 32)}}},
		&FillRequest{Target: 12},
		&FillResponse{Head: 12},
	}
}

// FuzzDecodeCertifierMessages: the decoders of every certifier message —
// the requests a certifier reads from a replica and the answers a replica
// reads from a certifier — never panic, and whatever one accepts
// re-encodes to the bytes it came from.
func FuzzDecodeCertifierMessages(f *testing.F) {
	decoders := []func() transport.BinaryMessage{
		func() transport.BinaryMessage { return &Request{} },
		func() transport.BinaryMessage { return &Response{} },
		func() transport.BinaryMessage { return &PullRequest{} },
		func() transport.BinaryMessage { return &PullResponse{} },
		func() transport.BinaryMessage { return &ResolveRequest{} },
		func() transport.BinaryMessage { return &ResolveResponse{} },
		func() transport.BinaryMessage { return &FillRequest{} },
		func() transport.BinaryMessage { return &FillResponse{} },
	}
	for _, m := range messageSeeds() {
		b := m.AppendBinary(nil)
		for k := range decoders {
			f.Add(uint8(k), b)
		}
		f.Add(uint8(0), b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		m := decoders[int(k)%len(decoders)]()
		if err := m.DecodeBinary(data); err != nil {
			return
		}
		if again := m.AppendBinary(nil); !bytes.Equal(again, data) {
			t.Fatalf("%T re-encodes differently:\n%x\n%x", m, again, data)
		}
	})
}
