package paxos

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
	"tashkent/internal/wal"
)

func randEntries(rng *rand.Rand) []Entry {
	n := rng.Intn(6)
	if n == 0 {
		return nil
	}
	out := make([]Entry, n)
	for i := range out {
		data := make([]byte, rng.Intn(80))
		rng.Read(data)
		if len(data) == 0 {
			data = nil
		}
		out[i] = Entry{Index: rng.Uint64(), Term: rng.Uint64(), Data: data}
	}
	return out
}

func normEntries(e []Entry) []Entry {
	if len(e) == 0 {
		return nil
	}
	out := make([]Entry, len(e))
	for i := range e {
		out[i] = e[i]
		if len(out[i].Data) == 0 {
			out[i].Data = nil
		}
	}
	return out
}

// roundTrip sends msg through the message codec into out, a fresh value
// of the same type.
func roundTrip(t *testing.T, msg, out interface{}) {
	t.Helper()
	b, err := transport.EncodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.DecodeMessage(b, out); err != nil {
		t.Fatalf("%T: %v", msg, err)
	}
}

// TestPaxosCodecRoundTripFuzz drives randomized vote and append
// messages through the binary codec, checking exact equality.
func TestPaxosCodecRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		args := &appendArgs{
			Term: rng.Uint64(), LeaderID: rng.Intn(64),
			PrevIndex: rng.Uint64(), PrevTerm: rng.Uint64(),
			Entries: randEntries(rng), Commit: rng.Uint64(),
		}
		var got appendArgs
		roundTrip(t, args, &got)
		args.Entries, got.Entries = normEntries(args.Entries), normEntries(got.Entries)
		if !reflect.DeepEqual(args, &got) {
			t.Fatalf("appendArgs round trip: %+v != %+v", &got, args)
		}

		reply := &appendReply{Term: rng.Uint64(), OK: rng.Intn(2) == 0, Match: rng.Uint64()}
		var gotReply appendReply
		roundTrip(t, reply, &gotReply)
		if *reply != gotReply {
			t.Fatalf("appendReply round trip: %+v != %+v", gotReply, *reply)
		}

		va := &voteArgs{Term: rng.Uint64(), Candidate: rng.Intn(64), LastIndex: rng.Uint64(), LastTerm: rng.Uint64()}
		var gotVA voteArgs
		roundTrip(t, va, &gotVA)
		if *va != gotVA {
			t.Fatalf("voteArgs round trip: %+v != %+v", gotVA, *va)
		}

		vr := &voteReply{Term: rng.Uint64(), Granted: rng.Intn(2) == 0}
		var gotVR voteReply
		roundTrip(t, vr, &gotVR)
		if *vr != gotVR {
			t.Fatalf("voteReply round trip: %+v != %+v", gotVR, *vr)
		}
	}
}

// TestPaxosCodecDecodeCopiesEntryData pins the aliasing contract:
// decoded entry data must not alias the incoming frame, because
// entries live in the node's log long after the transport buffer is
// gone.
func TestPaxosCodecDecodeCopiesEntryData(t *testing.T) {
	args := &appendArgs{Term: 1, Entries: []Entry{{Index: 1, Term: 1, Data: []byte{1, 2, 3}}}}
	b, err := transport.EncodeMessage(args)
	if err != nil {
		t.Fatal(err)
	}
	var got appendArgs
	if err := transport.DecodeMessage(b, &got); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xFF // scribble over the frame
	}
	if !reflect.DeepEqual(got.Entries[0].Data, []byte{1, 2, 3}) {
		t.Fatalf("entry data aliased the transport frame: %v", got.Entries[0].Data)
	}
}

// TestPaxosCodecTruncation requires errors (not panics) on every strict
// prefix of every message.
func TestPaxosCodecTruncation(t *testing.T) {
	for _, msg := range []interface{}{
		&appendArgs{Term: 5, Entries: []Entry{{Index: 1, Term: 5, Data: []byte("abc")}}},
		&appendReply{Term: 5, OK: true, Match: 9},
		&voteArgs{Term: 5, Candidate: 2, LastIndex: 7, LastTerm: 4},
		&voteReply{Term: 5, Granted: true},
	} {
		full, err := transport.EncodeMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(full); cut++ {
			out := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
			if err := transport.DecodeMessage(full[:cut], out); err == nil {
				t.Fatalf("truncated %T (%d of %d bytes) decoded without error", msg, cut, len(full))
			}
		}
	}
}

// TestGobTaggedMessageRefused: the gob fallback (codec tag 0x00) is
// gone; such a payload is an error for every message type.
func TestGobTaggedMessageRefused(t *testing.T) {
	full, err := transport.EncodeMessage(&voteReply{Term: 5, Granted: true})
	if err != nil {
		t.Fatal(err)
	}
	full[0] = 0x00
	var r voteReply
	if err := transport.DecodeMessage(full, &r); err == nil {
		t.Fatal("payload tagged 0x00 (gob) decoded without error")
	}
}

// entrySeeds and metaSeeds are the round-trip table of the WAL records,
// shared with the fuzz targets as their corpus.
var entrySeeds = []Entry{
	{Index: 1, Term: 1},
	{Index: 2, Term: 1, Data: []byte("x")},
	{Index: 1 << 40, Term: 1<<64 - 1, Data: bytes.Repeat([]byte{0xAB}, 300)},
}

var metaSeeds = []struct {
	term     uint64
	votedFor int
}{{0, -1}, {1, 0}, {7, 2}, {1<<64 - 1, 1 << 20}}

// TestWALRecordsRoundTrip: entry and meta records survive encode →
// parse, votedFor = -1 (no vote) included, every strict prefix is
// refused, and so is a record with bytes left over.
func TestWALRecordsRoundTrip(t *testing.T) {
	recs := entryRecords(entrySeeds)
	for i, rec := range recs {
		if rec[0] != recEntry {
			t.Fatalf("entry record %d starts with %q", i, rec[0])
		}
		got, err := parseEntryRecord(rec[1:])
		if err != nil {
			t.Fatal(err)
		}
		want := entrySeeds[i]
		if got.Index != want.Index || got.Term != want.Term || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("entry record %d: %+v != %+v", i, got, want)
		}
		for cut := 1; cut < len(rec); cut++ {
			if _, err := parseEntryRecord(rec[1:cut]); err == nil {
				t.Errorf("entry record %d cut to %d of %d bytes parsed", i, cut, len(rec))
			}
		}
		if _, err := parseEntryRecord(append(rec[1:len(rec):len(rec)], 0)); err == nil {
			t.Errorf("entry record %d with a trailing byte parsed", i)
		}
	}
	// The records of one batch share a buffer; none may run into the next.
	for i := range recs {
		if cap(recs[i]) != len(recs[i]) {
			t.Errorf("record %d has spare capacity %d over its neighbour", i, cap(recs[i])-len(recs[i]))
		}
	}
	for _, m := range metaSeeds {
		rec := metaRecord(m.term, m.votedFor)
		if rec[0] != recMeta {
			t.Fatalf("meta record starts with %q", rec[0])
		}
		term, votedFor, err := parseMetaRecord(rec[1:])
		if err != nil || term != m.term || votedFor != m.votedFor {
			t.Errorf("meta record %+v: got term=%d votedFor=%d err=%v", m, term, votedFor, err)
		}
		for cut := 1; cut < len(rec); cut++ {
			if _, _, err := parseMetaRecord(rec[1:cut]); err == nil {
				t.Errorf("meta record cut to %d of %d bytes parsed", cut, len(rec))
			}
		}
		if _, _, err := parseMetaRecord(append(rec[1:], 0)); err == nil {
			t.Error("meta record with a trailing byte parsed")
		}
	}
}

// TestRestoreRefusesMalformedRecords: a CRC-clean WAL image whose
// records do not parse is an error, not a silently shorter log.
func TestRestoreRefusesMalformedRecords(t *testing.T) {
	good := entryRecords(entrySeeds[:1])[0]
	for name, rec := range map[string][]byte{
		"unknown kind":      {'X', 1, 2, 3},
		"short entry":       good[:len(good)-1],
		"short meta":        metaRecord(3, 1)[:9],
		"entry beyond log":  entryRecords([]Entry{{Index: 5, Term: 1}})[0],
		"entry index zero":  entryRecords([]Entry{{Index: 0, Term: 1}})[0],
		"entry with excess": append(append([]byte(nil), good...), 0),
	} {
		n := NewNode(Config{ID: 0})
		if err := n.RestoreFromImage(walImage(t, good, rec)); err == nil {
			t.Errorf("%s: image restored without error", name)
		}
		n.Stop()
	}
}

// walImage is the crash image of a log holding recs.
func walImage(t *testing.T, recs ...[]byte) []byte {
	t.Helper()
	w := wal.New(simdisk.New(simdisk.Instant(), 1), wal.SyncCommits)
	defer w.Close()
	wait, err := w.AppendBatchAsync(recs)
	if err == nil {
		err = wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	return w.CrashImage(0)
}

// FuzzEntryRecord: whatever parses as an entry record re-encodes to the
// same bytes and parses again unchanged; nothing panics, and no
// allocation follows the record's length field without a check against
// the bytes present.
func FuzzEntryRecord(f *testing.F) {
	for _, rec := range entryRecords(entrySeeds) {
		f.Add(rec[1:])
		f.Add(rec[1 : len(rec)-1])
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB claimed, none present
	f.Fuzz(func(t *testing.T, body []byte) {
		e, err := parseEntryRecord(body)
		if err != nil {
			return
		}
		if len(e.Data) > len(body) {
			t.Fatalf("%d data bytes out of a %d-byte record", len(e.Data), len(body))
		}
		rec := entryRecords([]Entry{e})[0]
		if !bytes.Equal(rec[1:], body) {
			t.Fatalf("re-encoded record differs:\n%x\n%x", rec[1:], body)
		}
		again, err := parseEntryRecord(rec[1:])
		if err != nil || again.Index != e.Index || again.Term != e.Term || !bytes.Equal(again.Data, e.Data) {
			t.Fatalf("second parse: %+v, %v; first %+v", again, err, e)
		}
	})
}

// FuzzMetaRecord is the same contract for the meta record.
func FuzzMetaRecord(f *testing.F) {
	for _, m := range metaSeeds {
		rec := metaRecord(m.term, m.votedFor)
		f.Add(rec[1:])
		f.Add(rec[1 : len(rec)-1])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		term, votedFor, err := parseMetaRecord(body)
		if err != nil {
			return
		}
		if rec := metaRecord(term, votedFor); !bytes.Equal(rec[1:], body) {
			t.Fatalf("re-encoded record differs:\n%x\n%x", rec[1:], body)
		}
	})
}

// FuzzPaxosMessages feeds arbitrary frames to the decoders of the vote
// and append pairs: nothing panics, and whatever one accepts re-encodes
// to the frame it came from.
func FuzzPaxosMessages(f *testing.F) {
	for _, msg := range []interface{}{
		&voteArgs{Term: 5, Candidate: 2, LastIndex: 7, LastTerm: 4},
		&voteArgs{Term: 1<<64 - 1, Candidate: 63},
		&voteReply{Term: 5, Granted: true},
		&voteReply{},
		&appendArgs{Term: 3, LeaderID: 1, PrevIndex: 1, PrevTerm: 1, Commit: 2, Entries: entrySeeds},
		&appendArgs{Term: 3, LeaderID: 2, PrevIndex: 9, PrevTerm: 2, Commit: 8},
		&appendReply{Term: 5, OK: true, Match: 9},
		&appendReply{Term: 2, Match: 1},
	} {
		b, err := transport.EncodeMessage(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	// An append claiming 2^32-1 entries with none present.
	f.Add(append((&appendArgs{Term: 1}).AppendBinary([]byte{1})[:37], 0xFF, 0xFF, 0xFF, 0xFF))
	decoders := []func() transport.BinaryMessage{
		func() transport.BinaryMessage { return &voteArgs{} },
		func() transport.BinaryMessage { return &voteReply{} },
		func() transport.BinaryMessage { return &appendArgs{} },
		func() transport.BinaryMessage { return &appendReply{} },
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, newMsg := range decoders {
			m := newMsg()
			if err := transport.DecodeMessage(frame, m); err != nil {
				continue
			}
			if again, err := transport.EncodeMessage(m); err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("%T %+v re-encodes to %x, want %x (%v)", m, m, again, frame, err)
			}
		}
	})
}
