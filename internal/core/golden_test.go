package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
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

// sameWriteset compares writesets op by op, an empty value or column
// list equal to a nil one.
func sameWriteset(a, b *Writeset) bool {
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := &a.Ops[i], &b.Ops[i]
		if x.Kind != y.Kind || x.Table != y.Table || x.Key != y.Key || len(x.Cols) != len(y.Cols) {
			return false
		}
		for j := range x.Cols {
			if x.Cols[j].Col != y.Cols[j].Col || !bytes.Equal(x.Cols[j].Value, y.Cols[j].Value) {
				return false
			}
		}
	}
	return true
}

// goldenWritesets are the writesets of the codec tests, a few random
// ones and the edge lengths of every field.
func goldenWritesets() []*Writeset {
	out := []*Writeset{
		{},
		wsOf("k"),
		wsOf("a", "b"),
		wsOf("a", "bb", "ccc"),
		{Ops: []WriteOp{
			{Kind: OpInsert, Table: "accounts", Key: "42",
				Cols: []ColUpdate{{Col: "balance", Value: []byte{0, 1, 2, 3}}, {Col: "name", Value: []byte("alice")}}},
			{Kind: OpUpdate, Table: "tellers", Key: "7",
				Cols: []ColUpdate{{Col: "balance", Value: []byte{9}}}},
			{Kind: OpDelete, Table: "history", Key: "zz"},
		}},
		{Ops: []WriteOp{{Kind: OpUpdate, Cols: []ColUpdate{{}}}, {Kind: OpDelete}}},
		{Ops: []WriteOp{{Kind: OpInsert, Table: string(bytes.Repeat([]byte{'t'}, 300)), Key: "\x00\xff",
			Cols: []ColUpdate{{Col: "c", Value: bytes.Repeat([]byte{0xEE}, 300)}}}}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, randomWriteset(rand.New(rand.NewSource(seed)), 16))
	}
	return out
}

// TestGoldenVectors: every writeset of the codec tests encodes to the
// bytes pinned in testdata/golden.json, and those bytes decode back to
// it.
func TestGoldenVectors(t *testing.T) {
	var vecs []goldenVector
	for i, ws := range goldenWritesets() {
		vecs = append(vecs, goldenVector{name: fmt.Sprintf("writeset/%d", i), enc: ws.Encode(nil), same: func(b []byte) error {
			got, n, err := DecodeWriteset(b)
			if err == nil && (n != len(b) || !sameWriteset(got, ws)) {
				err = fmt.Errorf("decoded %v (%d of %d bytes), want %v", got, n, len(b), ws)
			}
			return err
		}})
	}
	var nilWS *Writeset
	vecs = append(vecs, goldenVector{name: "writeset/nil", enc: nilWS.Encode(nil), same: func(b []byte) error {
		if got, _, err := DecodeWriteset(b); err != nil || !got.Empty() {
			return fmt.Errorf("decoded %v, %v; want an empty writeset", got, err)
		}
		return nil
	}})
	checkGolden(t, vecs)
}
