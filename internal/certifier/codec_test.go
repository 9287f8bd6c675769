package certifier

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

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
			Version:  rng.Uint64(),
			SafeBack: rng.Uint64(),
			WSBytes:  randBytes(rng, 64),
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

// normRemote maps empty and nil slices together for comparison: gob
// and the binary codec legitimately differ on nil vs empty.
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
			Origin:         rng.Intn(1 << 16),
			StartVersion:   rng.Uint64(),
			ReplicaVersion: rng.Uint64(),
			WSBytes:        randBytes(rng, 256),
			NeedSafeBack:   rng.Intn(2) == 0,
			Deadline:       rng.Int63() - rng.Int63(),
		}
		got := roundTrip(t, req).(*Request)
		req.WSBytes, got.WSBytes = normWS(req.WSBytes), normWS(got.WSBytes)
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("Request round trip: %+v != %+v", got, req)
		}

		resp := &Response{
			Committed:     rng.Intn(2) == 0,
			CommitVersion: rng.Uint64(),
			SystemVersion: rng.Uint64(),
			ReplicaSeq:    rng.Uint64(),
			SeqEpoch:      rng.Uint64(),
			Remote:        randRemotes(rng),
		}
		gotR := roundTrip(t, resp).(*Response)
		resp.Remote, gotR.Remote = normRemotes(resp.Remote), normRemotes(gotR.Remote)
		if !reflect.DeepEqual(resp, gotR) {
			t.Fatalf("Response round trip: %+v != %+v", gotR, resp)
		}

		pr := &PullRequest{
			Origin:         rng.Intn(1 << 16),
			ReplicaVersion: rng.Uint64(),
			NeedSafeBack:   rng.Intn(2) == 0,
			IncludeOwn:     rng.Intn(2) == 0,
		}
		if got := roundTrip(t, pr).(*PullRequest); !reflect.DeepEqual(pr, got) {
			t.Fatalf("PullRequest round trip: %+v != %+v", got, pr)
		}

		presp := &PullResponse{
			Remote:        randRemotes(rng),
			SystemVersion: rng.Uint64(),
			Busy:          rng.Intn(2) == 0,
			ReplicaSeq:    rng.Uint64(),
			SeqEpoch:      rng.Uint64(),
		}
		gotP := roundTrip(t, presp).(*PullResponse)
		presp.Remote, gotP.Remote = normRemotes(presp.Remote), normRemotes(gotP.Remote)
		if !reflect.DeepEqual(presp, gotP) {
			t.Fatalf("PullResponse round trip: %+v != %+v", gotP, presp)
		}

		prep := &PrepareRequest{
			GID:            rng.Uint64(),
			Origin:         rng.Intn(1 << 16),
			StartVersion:   rng.Uint64(),
			Involved:       randInvolved(rng),
			WSBytes:        randBytes(rng, 256),
			ReplicaVersion: rng.Uint64(),
		}
		gotPrep := roundTrip(t, prep).(*PrepareRequest)
		prep.WSBytes, gotPrep.WSBytes = normWS(prep.WSBytes), normWS(gotPrep.WSBytes)
		if !reflect.DeepEqual(prep, gotPrep) {
			t.Fatalf("PrepareRequest round trip: %+v != %+v", gotPrep, prep)
		}

		prepResp := &PrepareResponse{Prepared: rng.Intn(2) == 0, Index: rng.Uint64(), SystemVersion: rng.Uint64()}
		if got := roundTrip(t, prepResp).(*PrepareResponse); !reflect.DeepEqual(prepResp, got) {
			t.Fatalf("PrepareResponse round trip: %+v != %+v", got, prepResp)
		}

		res := &ResolveRequest{GID: rng.Uint64(), Commit: rng.Intn(2) == 0}
		if got := roundTrip(t, res).(*ResolveRequest); !reflect.DeepEqual(res, got) {
			t.Fatalf("ResolveRequest round trip: %+v != %+v", got, res)
		}

		resResp := &ResolveResponse{Index: rng.Uint64(), SystemVersion: rng.Uint64()}
		if got := roundTrip(t, resResp).(*ResolveResponse); !reflect.DeepEqual(resResp, got) {
			t.Fatalf("ResolveResponse round trip: %+v != %+v", got, resResp)
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

// TestCodecGobEquivalence checks that a gob-tagged payload decodes
// identically to the binary fast path, for Response and for the
// prepare, resolve and fill messages that used to travel as gob: the
// fallback and the fast path must be interchangeable on the wire.
func TestCodecGobEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// norm maps the nil/empty differences the two codecs legitimately
	// have onto one form.
	norm := func(v interface{}) {
		switch m := v.(type) {
		case *Response:
			m.Remote = normRemotes(m.Remote)
		case *PrepareRequest:
			m.WSBytes = normWS(m.WSBytes)
		}
	}
	for i := 0; i < 100; i++ {
		for _, orig := range []interface{}{
			&Response{Committed: rng.Intn(2) == 0, CommitVersion: rng.Uint64(), SystemVersion: rng.Uint64(),
				ReplicaSeq: rng.Uint64(), SeqEpoch: rng.Uint64(), Remote: randRemotes(rng)},
			&PrepareRequest{GID: rng.Uint64(), Origin: rng.Intn(1 << 16), StartVersion: rng.Uint64(),
				Involved: randInvolved(rng), WSBytes: randBytes(rng, 256), ReplicaVersion: rng.Uint64()},
			&PrepareResponse{Prepared: rng.Intn(2) == 0, Index: rng.Uint64(), SystemVersion: rng.Uint64()},
			&ResolveRequest{GID: rng.Uint64(), Commit: rng.Intn(2) == 0},
			&ResolveResponse{Index: rng.Uint64(), SystemVersion: rng.Uint64()},
			&FillRequest{Target: rng.Uint64()},
			&FillResponse{Head: rng.Uint64()},
		} {
			fromBin := roundTrip(t, orig)
			// Forced gob path: tag byte 0x00 + raw gob of the same value.
			gobRaw, err := transport.GobEncode(orig)
			if err != nil {
				t.Fatal(err)
			}
			fromGob := reflect.New(reflect.TypeOf(orig).Elem()).Interface()
			if err := transport.DecodeMessage(append([]byte{0x00}, gobRaw...), fromGob); err != nil {
				t.Fatalf("gob decode %T: %v", orig, err)
			}
			norm(fromBin)
			norm(fromGob)
			if !reflect.DeepEqual(fromBin, fromGob) {
				t.Fatalf("binary and gob decode of %T disagree:\nbin: %+v\ngob: %+v", orig, fromBin, fromGob)
			}
		}
	}
}

// TestCodecBinarySmallerThanGob pins the point of the fast path: a
// representative certify request and a pull response must encode
// smaller than their gob form.
func TestCodecBinarySmallerThanGob(t *testing.T) {
	ws := bytes.Repeat([]byte{0xAB}, 120) // typical small writeset
	req := &Request{Origin: 3, StartVersion: 1000, ReplicaVersion: 990, WSBytes: ws, NeedSafeBack: true}
	binB, err := transport.EncodeMessage(req)
	if err != nil {
		t.Fatal(err)
	}
	gobB, err := transport.GobEncode(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(binB) >= len(gobB) {
		t.Errorf("binary Request %dB not smaller than gob %dB", len(binB), len(gobB))
	}
	t.Logf("Request: binary %dB vs gob %dB", len(binB), len(gobB))

	resp := &PullResponse{SystemVersion: 1000, Remote: []RemoteWS{
		{Version: 998, WSBytes: ws, SafeBack: 990},
		{Version: 999, WSBytes: ws, SafeBack: 991},
	}}
	binB, err = transport.EncodeMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	gobB, err = transport.GobEncode(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(binB) >= len(gobB) {
		t.Errorf("binary PullResponse %dB not smaller than gob %dB", len(binB), len(gobB))
	}
	t.Logf("PullResponse: binary %dB vs gob %dB", len(binB), len(gobB))
}

// TestCodecTruncation feeds truncated binary payloads to every decoder
// and requires an error, never a panic or silent success.
func TestCodecTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	full, err := transport.EncodeMessage(&Response{
		Committed: true, CommitVersion: 9, Remote: randRemotes(rng),
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		var r Response
		if err := transport.DecodeMessage(full[:cut], &r); err == nil && cut < len(full) {
			// Some prefixes of a message with empty tail sections can be
			// self-consistent; only flag clearly impossible successes.
			if cut < 34 {
				t.Fatalf("truncated Response (%d of %d bytes) decoded without error", cut, len(full))
			}
		}
	}
	// The 2PC and fill messages: every strict prefix must fail, wherever
	// the cut falls (header, involved list, writeset).
	for _, msg := range []interface{}{
		&PrepareRequest{GID: 7, Origin: 1, StartVersion: 5, Involved: []int{0, 3}, WSBytes: randBytes(rng, 40), ReplicaVersion: 4},
		&PrepareResponse{Prepared: true, Index: 9, SystemVersion: 9},
		&ResolveRequest{GID: 7, Commit: true},
		&ResolveResponse{Index: 9, SystemVersion: 9},
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
	var req Request
	if err := transport.DecodeMessage([]byte{0x01, 0x00}, &req); err == nil {
		t.Error("2-byte Request decoded without error")
	}
	if err := transport.DecodeMessage(nil, &req); err == nil {
		t.Error("empty payload decoded without error")
	}
	if err := transport.DecodeMessage([]byte{0x7F, 0x00}, &req); err == nil {
		t.Error("unknown codec tag decoded without error")
	}
}
