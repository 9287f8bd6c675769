package certifier

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

// normMessage maps empty byte strings and remote lists to nil, as
// normWS and normRemotes do, so decoded and sent values compare equal.
func normMessage(m transport.BinaryMessage) transport.BinaryMessage {
	switch v := m.(type) {
	case *Request:
		c := *v
		c.WSBytes = normWS(c.WSBytes)
		return &c
	case *Response:
		c := *v
		c.Remote = normRemotes(c.Remote)
		return &c
	case *PullResponse:
		c := *v
		c.Remote = normRemotes(c.Remote)
		return &c
	case *ResolveResponse:
		c := *v
		c.Remote = normRemotes(c.Remote)
		return &c
	}
	return m
}

// TestGoldenVectors: every certifier message and log-entry payload of
// the codec tests and fuzz seeds encodes to the bytes pinned in
// testdata/golden.json, and those bytes decode back to it.
func TestGoldenVectors(t *testing.T) {
	ws := bytes.Repeat([]byte{0xAB}, 120)
	remotes := []RemoteWS{{Version: 998, WSBytes: ws}, {Version: 999, WSBytes: ws}}
	msgs := append(messageSeeds(),
		&Request{Origin: 3, StartVersion: 1000, ReplicaVersion: 990, WSBytes: ws},
		&Request{WSBytes: []byte{1}},
		&Request{},
		&Response{Yes: true, Index: 9, SystemVersion: 9},
		&Response{},
		&PullResponse{SystemVersion: 1000, Remote: remotes},
		&PullResponse{},
		&ResolveRequest{GID: 7, Commit: true, ReplicaVersion: 4},
		&ResolveRequest{GID: 8, ReplicaVersion: 5},
		&ResolveResponse{Index: 1000, SystemVersion: 1000, Remote: remotes},
		&ResolveResponse{Index: 9, SystemVersion: 9, Prepared: true},
	)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4; i++ {
		msgs = append(msgs,
			&Request{GID: rng.Uint64(), Origin: rng.Intn(1 << 16), StartVersion: rng.Uint64(),
				Involved: randInvolved(rng), WSBytes: randBytes(rng, 256), ReplicaVersion: rng.Uint64(),
				FillTo: rng.Uint64(), Deadline: rng.Int63() - rng.Int63()},
			&Response{Yes: rng.Intn(2) == 0, Index: rng.Uint64(), SystemVersion: rng.Uint64(), Remote: randRemotes(rng)},
			&PullResponse{Remote: randRemotes(rng), SystemVersion: rng.Uint64(), Busy: rng.Intn(2) == 0})
	}
	var vecs []goldenVector
	for i, m := range msgs {
		vecs = append(vecs, goldenVector{name: fmt.Sprintf("%T/%d", m, i), enc: m.AppendBinary(nil), same: func(b []byte) error {
			got := reflect.New(reflect.TypeOf(m).Elem()).Interface().(transport.BinaryMessage)
			if err := got.DecodeBinary(b); err != nil {
				return err
			}
			if !reflect.DeepEqual(normMessage(got), normMessage(m)) {
				return fmt.Errorf("decoded %+v, want %+v", got, m)
			}
			return nil
		}})
	}
	for i, e := range entrySeeds() {
		vecs = append(vecs, goldenVector{name: fmt.Sprintf("entry/%v/%d", e.Kind, i), enc: EncodeEntry(e), same: func(b []byte) error {
			got, err := DecodeLogEntry(b)
			if err == nil && !sameEntry(got, e) {
				err = fmt.Errorf("decoded %+v, want %+v", got, e)
			}
			return err
		}})
	}
	checkGolden(t, vecs)
}
