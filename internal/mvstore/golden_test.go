package mvstore

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tashkent/internal/core"
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

// goldenDump is a small store's dump: two tables, a deleted row, a
// row of several columns, an empty value and a long one.
func goldenDump(tb testing.TB) (*Store, []byte) {
	s := Open(Config{})
	tb.Cleanup(s.Close)
	commit := func(write func(tx *Tx) error) {
		tx, err := s.Begin()
		if err == nil {
			err = write(tx)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		commit(func(tx *Tx) error {
			return tx.Update("t", fmt.Sprintf("k%03d", i), map[string][]byte{"v": []byte(fmt.Sprintf("val%d", i))})
		})
	}
	commit(func(tx *Tx) error {
		if err := tx.Insert("u", "row", map[string][]byte{"a": nil, "b": []byte("x"), "c": bytes.Repeat([]byte{7}, 300)}); err != nil {
			return err
		}
		return tx.Delete("t", "k002")
	})
	s.SetAnnounced(42)
	dump, err := s.Dump()
	if err != nil {
		tb.Fatal(err)
	}
	return s, dump
}

// TestGoldenVectors: the commit records of the codec tests and fuzz
// seeds, and one dump, encode to the bytes pinned in
// testdata/golden.json, and those bytes decode back to them.
func TestGoldenVectors(t *testing.T) {
	recs := []CommitRecord{
		{WS: &core.Writeset{Ops: []core.WriteOp{op(core.OpUpdate, "k", "v", "a")}}},
		{From: 4, To: 7, WS: &core.Writeset{Ops: []core.WriteOp{op(core.OpInsert, "k", "c1", "a", "c2", "x"), op(core.OpDelete, "j")}}},
		{From: 1, To: 2, WS: &core.Writeset{}},
		{From: 3, To: 7, WS: &core.Writeset{Ops: []core.WriteOp{op(core.OpUpdate, "k", "v", "x")}}},
		{From: 0, To: 3, WS: &core.Writeset{Ops: []core.WriteOp{op(core.OpInsert, "k", "c1", "a"), op(core.OpUpdate, "k", "c2", "y")}}},
		{From: 1<<64 - 2, To: 1<<64 - 1, WS: &core.Writeset{Ops: []core.WriteOp{op(core.OpDelete, "k")}}},
	}
	var vecs []goldenVector
	for i, r := range recs {
		vecs = append(vecs, goldenVector{name: fmt.Sprintf("commit/%d", i), enc: encodeCommitRecord(r.From, r.To, r.WS), same: func(b []byte) error {
			got, err := DecodeCommitRecord(b)
			if err == nil && (got.From != r.From || got.To != r.To || !bytes.Equal(got.WS.Encode(nil), r.WS.Encode(nil))) {
				err = fmt.Errorf("decoded %+v, want %+v", got, r)
			}
			return err
		}})
	}
	s, dump := goldenDump(t)
	vecs = append(vecs, goldenVector{name: "dump", enc: dump, same: func(b []byte) error {
		r, covered, err := RestoreDump(Config{}, b)
		if err != nil {
			return err
		}
		defer r.Close()
		if covered != 42 || r.Fingerprint() != s.Fingerprint() {
			return fmt.Errorf("restored version %d fingerprint %08x, want 42 and %08x", covered, r.Fingerprint(), s.Fingerprint())
		}
		if again, err := r.Dump(); err != nil || !bytes.Equal(again, b) {
			return fmt.Errorf("restored store dumps to other bytes (%v)", err)
		}
		return nil
	}})
	checkGolden(t, vecs)
}
