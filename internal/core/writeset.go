// Package core implements the protocol heart of generalized snapshot
// isolation (GSI) replication as described in the Tashkent paper
// (Elnikety, Dropsho, Pedone — EuroSys 2006): database versions,
// writesets, writeset intersection, and the certification engine that
// assigns the global commit order.
//
// Everything in this package is pure data-structure code with no IO and
// no goroutines; the certifier server, proxy and storage engine are
// built on top of it.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"

	"tashkent/internal/wire"
)

// Version counts database snapshots. The initial database state is
// version 0; committing the i-th update transaction in the global order
// produces version i.
type Version uint64

// OpKind identifies the kind of a row modification captured in a
// writeset, mirroring the INSERT/UPDATE/DELETE triggers the paper
// installs on replicated tables.
type OpKind uint8

const (
	// OpInsert captures a full new row.
	OpInsert OpKind = iota + 1
	// OpUpdate captures the primary key and the modified columns.
	OpUpdate
	// OpDelete captures only the primary key.
	OpDelete
)

// String returns the SQL-ish name of the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// ItemID identifies a database item (a row) for write-write conflict
// detection: the certifier compares table and key identifiers for
// matches, exactly as the paper's "writeset intersection" does.
type ItemID struct {
	Table string
	Key   string
}

// String renders the item as table/key.
func (id ItemID) String() string { return id.Table + "/" + id.Key }

// ColUpdate is one modified column: name plus the new value bytes.
type ColUpdate struct {
	Col   string
	Value []byte
}

// WriteOp is a single captured row modification.
type WriteOp struct {
	Kind  OpKind
	Table string
	Key   string
	// Cols carries the full row for INSERT and the modified columns
	// for UPDATE. It is empty for DELETE.
	Cols []ColUpdate
}

// Item returns the conflict-detection identity of the operation.
func (op *WriteOp) Item() ItemID { return ItemID{Table: op.Table, Key: op.Key} }

// encodedSize returns the number of bytes Encode will emit for op.
func (op *WriteOp) encodedSize() int {
	n := 1 + 2 + len(op.Table) + 2 + len(op.Key) + 2
	for i := range op.Cols {
		n += 2 + len(op.Cols[i].Col) + 4 + len(op.Cols[i].Value)
	}
	return n
}

// Writeset captures the minimal set of actions necessary to recreate a
// transaction's modifications. An empty writeset identifies a read-only
// transaction.
type Writeset struct {
	Ops []WriteOp
}

// Empty reports whether the writeset carries no modifications, i.e.
// whether the transaction was read-only.
func (ws *Writeset) Empty() bool { return ws == nil || len(ws.Ops) == 0 }

// Add appends a write operation.
func (ws *Writeset) Add(op WriteOp) { ws.Ops = append(ws.Ops, op) }

// Items returns the set of item identities touched, deduplicated, in
// first-touch order.
func (ws *Writeset) Items() []ItemID {
	if ws == nil {
		return nil
	}
	seen := make(map[ItemID]struct{}, len(ws.Ops))
	items := make([]ItemID, 0, len(ws.Ops))
	for i := range ws.Ops {
		id := ws.Ops[i].Item()
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		items = append(items, id)
	}
	return items
}

// Intersects reports whether the two writesets modify a common item
// (a write-write conflict under snapshot isolation).
func (ws *Writeset) Intersects(other *Writeset) bool {
	if ws.Empty() || other.Empty() {
		return false
	}
	a, b := ws, other
	if len(a.Ops) > len(b.Ops) {
		a, b = b, a
	}
	set := make(map[ItemID]struct{}, len(a.Ops))
	for i := range a.Ops {
		set[a.Ops[i].Item()] = struct{}{}
	}
	for i := range b.Ops {
		if _, hit := set[b.Ops[i].Item()]; hit {
			return true
		}
	}
	return false
}

// Merge appends all operations of other into ws, preserving order. It
// implements the paper's grouping of several remote writesets into one
// combined transaction (e.g. T1_2_3 with writeset {W1,W2,W3}).
func (ws *Writeset) Merge(other *Writeset) {
	if other == nil {
		return
	}
	ws.Ops = append(ws.Ops, other.Ops...)
}

// Size returns the encoded size of the writeset in bytes. The paper
// reports average writeset sizes of 54 B (AllUpdates), 158 B (TPC-B)
// and 275 B (TPC-W); workload generators target those sizes using this
// accounting.
func (ws *Writeset) Size() int {
	if ws == nil {
		return 4
	}
	n := 4
	for i := range ws.Ops {
		n += ws.Ops[i].encodedSize()
	}
	return n
}

// Clone returns a deep copy of the writeset.
func (ws *Writeset) Clone() *Writeset {
	if ws == nil {
		return nil
	}
	out := &Writeset{Ops: make([]WriteOp, len(ws.Ops))}
	copy(out.Ops, ws.Ops)
	for i := range out.Ops {
		if len(ws.Ops[i].Cols) > 0 {
			out.Ops[i].Cols = make([]ColUpdate, len(ws.Ops[i].Cols))
			copy(out.Ops[i].Cols, ws.Ops[i].Cols)
			for j := range out.Ops[i].Cols {
				v := make([]byte, len(ws.Ops[i].Cols[j].Value))
				copy(v, ws.Ops[i].Cols[j].Value)
				out.Ops[i].Cols[j].Value = v
			}
		}
	}
	return out
}

// String renders a compact human-readable form, used in logs and tests.
func (ws *Writeset) String() string {
	if ws.Empty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range ws.Ops {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s %s", ws.Ops[i].Kind, ws.Ops[i].Item())
	}
	b.WriteByte('}')
	return b.String()
}

// Encoding
//
// Writesets cross process boundaries (proxy→certifier, certifier→proxy,
// certifier persistent log, WAL) so they get a compact, stable binary
// framing: CRC-protected at the WAL layer, length-delimited here.
//
//	uint32 opCount
//	per op:
//	  uint8  kind
//	  str16 table | str16 key     (uint16 length | bytes)
//	  uint16 colCount
//	  per col: str16 name | uint32 len(value) | value
//
// The 16-bit lengths bound what one operation may carry; CheckEncodable
// says whether an operation fits, and the store refuses one that does
// not before it can reach a writeset.

var (
	// ErrCorruptWriteset reports a malformed writeset encoding.
	ErrCorruptWriteset = errors.New("core: corrupt writeset encoding")
	// ErrOpTooLarge reports a write operation the encoding cannot carry:
	// a table, key or column name longer than 65 535 bytes, or more than
	// 65 535 columns.
	ErrOpTooLarge = errors.New("core: write operation too large for a writeset")
)

// CheckEncodable reports, with ErrOpTooLarge, whether op has a name or a
// column count its 16-bit length cannot state.
func (op *WriteOp) CheckEncodable() error {
	if len(op.Cols) > math.MaxUint16 {
		return fmt.Errorf("%w: %d columns", ErrOpTooLarge, len(op.Cols))
	}
	long := max(len(op.Table), len(op.Key))
	for i := range op.Cols {
		long = max(long, len(op.Cols[i].Col))
	}
	if long > math.MaxUint16 {
		return fmt.Errorf("%w: a %d-byte name", ErrOpTooLarge, long)
	}
	return nil
}

// Encode appends the binary encoding of ws to buf and returns the
// extended slice. It panics on an operation CheckEncodable refuses.
func (ws *Writeset) Encode(buf []byte) []byte {
	var n int
	if ws != nil {
		n = len(ws.Ops)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		op := &ws.Ops[i]
		if len(op.Cols) > math.MaxUint16 {
			panic(fmt.Sprintf("core: %d columns under a 16-bit count", len(op.Cols)))
		}
		buf = append(buf, byte(op.Kind))
		buf = wire.AppendStr16(buf, op.Table)
		buf = wire.AppendStr16(buf, op.Key)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(op.Cols)))
		for j := range op.Cols {
			buf = wire.AppendStr16(buf, op.Cols[j].Col)
			buf = wire.AppendBytes32(buf, op.Cols[j].Value)
		}
	}
	return buf
}

// minOpSize is the encoded size of an operation with empty names and no
// columns.
const minOpSize = 7

// ReadWriteset reads one writeset off r, the layout Encode writes.
// Column values are copied: a decoded writeset outlives the buffer.
func ReadWriteset(r *wire.Reader) *Writeset {
	ws := &Writeset{Ops: make([]WriteOp, r.Count(minOpSize))}
	for i := range ws.Ops {
		op := &ws.Ops[i]
		op.Kind = OpKind(r.U8())
		if op.Kind < OpInsert || op.Kind > OpDelete {
			r.Fail(fmt.Errorf("op %d: bad kind %d", i, op.Kind))
		}
		op.Table, op.Key = r.Str16(), r.Str16()
		if nc := int(r.U16()); nc > 0 {
			op.Cols = make([]ColUpdate, nc)
			for j := range op.Cols {
				op.Cols[j] = ColUpdate{Col: r.Str16(), Value: r.Bytes32Copy()}
			}
		}
	}
	return ws
}

// DecodeWriteset parses a writeset from the front of buf, returning the
// writeset and the number of bytes consumed.
func DecodeWriteset(buf []byte) (*Writeset, int, error) {
	r := wire.NewReader(buf)
	ws := ReadWriteset(&r)
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorruptWriteset, err)
	}
	return ws, len(buf) - r.Len(), nil
}

// Checksum returns a CRC-32 over the canonical encoding, used by tests
// and the dump file format to validate writeset integrity end to end.
func (ws *Writeset) Checksum() uint32 {
	return crc32.ChecksumIEEE(ws.Encode(nil))
}

// SortItems sorts a slice of item identities, for deterministic output
// in diagnostics and tests.
func SortItems(items []ItemID) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Table != items[j].Table {
			return items[i].Table < items[j].Table
		}
		return items[i].Key < items[j].Key
	})
}
