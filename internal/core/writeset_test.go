package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func wsOf(items ...string) *Writeset {
	ws := &Writeset{}
	for _, it := range items {
		ws.Add(WriteOp{Kind: OpUpdate, Table: "t", Key: it,
			Cols: []ColUpdate{{Col: "v", Value: []byte(it)}}})
	}
	return ws
}

func TestWritesetEmpty(t *testing.T) {
	var nilWS *Writeset
	if !nilWS.Empty() {
		t.Error("nil writeset should be empty")
	}
	ws := &Writeset{}
	if !ws.Empty() {
		t.Error("zero writeset should be empty")
	}
	ws.Add(WriteOp{Kind: OpDelete, Table: "t", Key: "k"})
	if ws.Empty() {
		t.Error("writeset with an op should not be empty")
	}
}

func TestWritesetItemsDedup(t *testing.T) {
	ws := wsOf("a", "b", "a", "c", "b")
	items := ws.Items()
	want := []ItemID{{"t", "a"}, {"t", "b"}, {"t", "c"}}
	if !reflect.DeepEqual(items, want) {
		t.Errorf("Items() = %v, want %v", items, want)
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		name string
		a, b *Writeset
		want bool
	}{
		{"disjoint", wsOf("a", "b"), wsOf("c", "d"), false},
		{"overlap", wsOf("a", "b"), wsOf("b", "c"), true},
		{"identical", wsOf("x"), wsOf("x"), true},
		{"empty-left", &Writeset{}, wsOf("x"), false},
		{"empty-right", wsOf("x"), &Writeset{}, false},
		{"nil-left", nil, wsOf("x"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Intersects(tc.b); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := tc.b.Intersects(tc.a); got != tc.want {
				t.Errorf("reverse Intersects = %v, want %v (must be symmetric)", got, tc.want)
			}
		})
	}
}

func TestIntersectsDifferentTablesSameKey(t *testing.T) {
	a := &Writeset{Ops: []WriteOp{{Kind: OpUpdate, Table: "t1", Key: "k"}}}
	b := &Writeset{Ops: []WriteOp{{Kind: OpUpdate, Table: "t2", Key: "k"}}}
	if a.Intersects(b) {
		t.Error("same key in different tables must not conflict")
	}
}

func TestMerge(t *testing.T) {
	a := wsOf("a")
	a.Merge(wsOf("b", "c"))
	a.Merge(nil)
	if len(a.Ops) != 3 {
		t.Fatalf("merged writeset has %d ops, want 3", len(a.Ops))
	}
	if got := a.Ops[2].Key; got != "c" {
		t.Errorf("op order not preserved: last key %q", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ws := &Writeset{Ops: []WriteOp{
		{Kind: OpInsert, Table: "accounts", Key: "42",
			Cols: []ColUpdate{{Col: "balance", Value: []byte{0, 1, 2, 3}}, {Col: "name", Value: []byte("alice")}}},
		{Kind: OpUpdate, Table: "tellers", Key: "7",
			Cols: []ColUpdate{{Col: "balance", Value: []byte{9}}}},
		{Kind: OpDelete, Table: "history", Key: "zz"},
	}}
	buf := ws.Encode(nil)
	got, n, err := DecodeWriteset(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) {
		t.Errorf("decode consumed %d of %d bytes", n, len(buf))
	}
	if !reflect.DeepEqual(got, ws) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, ws)
	}
}

func TestEncodeSizeMatchesSizeAccounting(t *testing.T) {
	ws := wsOf("a", "bb", "ccc")
	if got, want := len(ws.Encode(nil)), ws.Size(); got != want {
		t.Errorf("encoded length %d != Size() %d", got, want)
	}
	var empty *Writeset
	if got, want := len(empty.Encode(nil)), empty.Size(); got != want {
		t.Errorf("nil writeset encoded length %d != Size() %d", got, want)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	ws := wsOf("a", "b")
	buf := ws.Encode(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeWriteset(buf[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix (of %d) succeeded, want error", cut, len(buf))
		}
	}
	// Bad op kind.
	bad := append([]byte(nil), buf...)
	bad[4] = 0xFF
	if _, _, err := DecodeWriteset(bad); err == nil {
		t.Error("decode with invalid op kind succeeded, want error")
	}
	// Implausible count.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := DecodeWriteset(huge); err == nil {
		t.Error("decode with huge op count succeeded, want error")
	}
}

func TestDecodeTrailingBytesIgnored(t *testing.T) {
	ws := wsOf("k")
	buf := append(ws.Encode(nil), 0xAA, 0xBB)
	got, n, err := DecodeWriteset(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf)-2 {
		t.Errorf("consumed %d bytes, want %d", n, len(buf)-2)
	}
	if !got.Intersects(ws) {
		t.Error("decoded writeset lost its op")
	}
}

// randomWriteset builds an arbitrary writeset from a random source, for
// property tests.
func randomWriteset(r *rand.Rand, maxOps int) *Writeset {
	ws := &Writeset{}
	n := r.Intn(maxOps + 1)
	tables := []string{"accounts", "tellers", "branches", "history", "items"}
	for i := 0; i < n; i++ {
		op := WriteOp{
			Kind:  OpKind(1 + r.Intn(3)),
			Table: tables[r.Intn(len(tables))],
			Key:   strings.Repeat("k", 1+r.Intn(8)) + string(rune('0'+r.Intn(10))),
		}
		if op.Kind != OpDelete {
			nc := 1 + r.Intn(3)
			for c := 0; c < nc; c++ {
				val := make([]byte, r.Intn(32))
				r.Read(val)
				op.Cols = append(op.Cols, ColUpdate{Col: string(rune('a' + c)), Value: val})
			}
		}
		ws.Add(op)
	}
	return ws
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ws := randomWriteset(r, 16)
		buf := ws.Encode(nil)
		got, n, err := DecodeWriteset(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return bytes.Equal(got.Encode(nil), buf) && got.Checksum() == ws.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectsSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomWriteset(r, 8), randomWriteset(r, 8)
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectsMatchesNaive(t *testing.T) {
	naive := func(a, b *Writeset) bool {
		for i := range a.Ops {
			for j := range b.Ops {
				if a.Ops[i].Item() == b.Ops[j].Item() {
					return true
				}
			}
		}
		return false
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomWriteset(r, 10), randomWriteset(r, 10)
		return a.Intersects(b) == naive(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	ws := &Writeset{Ops: []WriteOp{{Kind: OpUpdate, Table: "t", Key: "k",
		Cols: []ColUpdate{{Col: "c", Value: []byte{1, 2}}}}}}
	cp := ws.Clone()
	cp.Ops[0].Cols[0].Value[0] = 99
	cp.Ops[0].Key = "other"
	if ws.Ops[0].Cols[0].Value[0] != 1 || ws.Ops[0].Key != "k" {
		t.Error("Clone shares memory with original")
	}
	var nilWS *Writeset
	if nilWS.Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestSortItems(t *testing.T) {
	items := []ItemID{{"b", "2"}, {"a", "9"}, {"b", "1"}, {"a", "1"}}
	SortItems(items)
	want := []ItemID{{"a", "1"}, {"a", "9"}, {"b", "1"}, {"b", "2"}}
	if !reflect.DeepEqual(items, want) {
		t.Errorf("SortItems = %v, want %v", items, want)
	}
}

func TestOpKindString(t *testing.T) {
	if OpInsert.String() != "INSERT" || OpUpdate.String() != "UPDATE" || OpDelete.String() != "DELETE" {
		t.Error("OpKind.String mismatch")
	}
	if !strings.Contains(OpKind(77).String(), "77") {
		t.Error("unknown OpKind should include numeric value")
	}
}

func TestWritesetString(t *testing.T) {
	if got := wsOf("a").String(); !strings.Contains(got, "t/a") {
		t.Errorf("String() = %q, want it to mention t/a", got)
	}
	var empty *Writeset
	if empty.String() != "{}" {
		t.Errorf("empty String() = %q", empty.String())
	}
}

// TestCheckEncodable: an op is refused exactly when a name or its
// column count is longer than a 16-bit length states.
func TestCheckEncodable(t *testing.T) {
	long := strings.Repeat("n", 1<<16-1)
	for _, c := range []struct {
		op WriteOp
		ok bool
	}{
		{WriteOp{Kind: OpUpdate, Table: long, Key: long, Cols: []ColUpdate{{Col: long}}}, true},
		{WriteOp{Kind: OpUpdate, Table: long + "n"}, false},
		{WriteOp{Kind: OpUpdate, Key: long + "n"}, false},
		{WriteOp{Kind: OpUpdate, Cols: []ColUpdate{{Col: "a"}, {Col: long + "n"}}}, false},
		{WriteOp{Kind: OpUpdate, Cols: make([]ColUpdate, 1<<16-1)}, true},
		{WriteOp{Kind: OpUpdate, Cols: make([]ColUpdate, 1<<16)}, false},
	} {
		err := c.op.CheckEncodable()
		if c.ok != (err == nil) || (err != nil && !errors.Is(err, ErrOpTooLarge)) {
			t.Errorf("table %d, key %d bytes, %d cols: %v", len(c.op.Table), len(c.op.Key), len(c.op.Cols), err)
		}
	}
}

// FuzzDecodeWriteset: DecodeWriteset never panics, and whatever it
// decodes re-encodes to the bytes it consumed.
func FuzzDecodeWriteset(f *testing.F) {
	for _, ws := range goldenWritesets() {
		b := ws.Encode(nil)
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                             // 2^32-1 ops, none present
	f.Add([]byte{0, 0, 0, 1, byte(OpUpdate), 0, 0, 0, 0, 0xFF, 0xFF}) // 65535 columns, none present
	f.Fuzz(func(t *testing.T, buf []byte) {
		ws, n, err := DecodeWriteset(buf)
		if err != nil {
			return
		}
		if again := ws.Encode(nil); !bytes.Equal(again, buf[:n]) {
			t.Fatalf("re-encoded writeset differs:\n%x\n%x", again, buf[:n])
		}
	})
}
