package paxos

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tashkent/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current encoders")

// goldenVector is one encoding pinned in testdata/golden.json: enc is
// what the current encoder makes of a value, and same decodes pinned
// bytes and reports whether they stand for that value.
type goldenVector struct {
	name string
	enc  []byte
	same func([]byte) error
}

// checkGolden holds every vector to its pinned bytes: the encoding must
// match byte for byte and the pinned bytes must decode to the value.
func checkGolden(t *testing.T, vecs []goldenVector) {
	t.Helper()
	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		m := make(map[string]string, len(vecs))
		for _, v := range vecs {
			m[v.name] = hex.EncodeToString(v.enc)
		}
		b, err := json.MarshalIndent(m, "", "\t")
		if err == nil {
			err = os.MkdirAll("testdata", 0o755)
		}
		if err == nil {
			err = os.WriteFile(path, append(b, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(vecs) {
		t.Errorf("%s pins %d vectors, the test has %d", path, len(m), len(vecs))
	}
	for _, v := range vecs {
		pinned, err := hex.DecodeString(m[v.name])
		if _, ok := m[v.name]; !ok || err != nil {
			t.Errorf("%s: no pinned vector (%v)", v.name, err)
			continue
		}
		if !bytes.Equal(v.enc, pinned) {
			t.Errorf("%s encodes to\n%x\npinned\n%x", v.name, v.enc, pinned)
		}
		if err := v.same(pinned); err != nil {
			t.Errorf("%s: pinned bytes: %v", v.name, err)
		}
	}
}

// messageVector pins the binary form of a wire message.
func messageVector(name string, m transport.BinaryMessage) goldenVector {
	return goldenVector{name: name, enc: m.AppendBinary(nil), same: func(b []byte) error {
		got := reflect.New(reflect.TypeOf(m).Elem()).Interface().(transport.BinaryMessage)
		if err := got.DecodeBinary(b); err != nil {
			return err
		}
		if a, ok := got.(*appendArgs); ok {
			a.Entries = normEntries(a.Entries)
			want := *m.(*appendArgs)
			want.Entries = normEntries(want.Entries)
			m = &want
		}
		if !reflect.DeepEqual(got, m) {
			return fmt.Errorf("decoded %+v, want %+v", got, m)
		}
		return nil
	}}
}

// TestGoldenVectors: every message and WAL record of the codec tests and
// fuzz seeds encodes to the bytes pinned in testdata/golden.json, and
// those bytes decode back to it.
func TestGoldenVectors(t *testing.T) {
	entry := []Entry{{Index: 1, Term: 5, Data: []byte("abc")}}
	msgs := []transport.BinaryMessage{
		&voteArgs{Term: 5, Candidate: 2, LastIndex: 7, LastTerm: 4},
		&voteArgs{Term: 1<<64 - 1, Candidate: 63},
		&voteReply{Term: 5, Granted: true},
		&voteReply{},
		&appendArgs{Term: 5, Entries: entry},
		&appendArgs{Term: 1, Entries: []Entry{{Index: 1, Term: 1, Data: []byte{1, 2, 3}}}},
		&appendArgs{Term: 3, LeaderID: 2, PrevIndex: 9, PrevTerm: 2, Commit: 8},
		&appendArgs{Term: 3, LeaderID: 1, PrevIndex: 1, PrevTerm: 1, Commit: 2, Entries: entrySeeds},
		&appendReply{Term: 5, OK: true, Match: 9},
		&appendReply{Term: 2, Match: 1},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 4; i++ {
		msgs = append(msgs,
			&appendArgs{Term: rng.Uint64(), LeaderID: rng.Intn(64), PrevIndex: rng.Uint64(),
				PrevTerm: rng.Uint64(), Entries: randEntries(rng), Commit: rng.Uint64()},
			&appendReply{Term: rng.Uint64(), OK: rng.Intn(2) == 0, Match: rng.Uint64()})
	}
	var vecs []goldenVector
	for i, m := range msgs {
		vecs = append(vecs, messageVector(fmt.Sprintf("%T/%d", m, i), m))
	}
	for i, rec := range entryRecords(entrySeeds) {
		want := entrySeeds[i]
		vecs = append(vecs, goldenVector{name: fmt.Sprintf("record/entry/%d", i), enc: rec, same: func(b []byte) error {
			if len(b) == 0 || b[0] != recEntry {
				return fmt.Errorf("not an entry record")
			}
			got, err := parseEntryRecord(b[1:])
			if err == nil && (got.Index != want.Index || got.Term != want.Term || !bytes.Equal(got.Data, want.Data)) {
				err = fmt.Errorf("parsed %+v, want %+v", got, want)
			}
			return err
		}})
	}
	for i, m := range metaSeeds {
		vecs = append(vecs, goldenVector{name: fmt.Sprintf("record/meta/%d", i), enc: metaRecord(m.term, m.votedFor), same: func(b []byte) error {
			if len(b) == 0 || b[0] != recMeta {
				return fmt.Errorf("not a meta record")
			}
			term, votedFor, err := parseMetaRecord(b[1:])
			if err == nil && (term != m.term || votedFor != m.votedFor) {
				err = fmt.Errorf("parsed term %d votedFor %d, want %+v", term, votedFor, m)
			}
			return err
		}})
	}
	checkGolden(t, vecs)
}
