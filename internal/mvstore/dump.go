package mvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"tashkent/internal/wire"
)

// Dump support — the "DUMP DATA" command of paper §8.1. Tashkent-MW
// disables all WAL synchronous writes, which voids physical data
// integrity; to recover, the middleware periodically asks the database
// for a complete consistent copy and, after a crash, restores the most
// recent copy and re-applies the writesets committed since (§7.1 case
// 1). A dump is a consistent MVCC snapshot, so the database keeps
// processing transactions while dumping — at a throughput cost (the
// paper measures 13 % degradation during the 230-second dump).
//
// Dump file layout (all integers big-endian):
//
//	magic "TDMP" | uint64 coveredVersion | uint32 tableCount
//	per table: str16 name | uint32 rowCount
//	  per row: str16 key | uint16 colCount | per col: str16 name, bytes32 value
//	uint32 CRC-32 of everything above
//
// Tables, the rows of a table and the columns of a row appear in
// strictly ascending order, and every table has a row, so a store has
// one dump; RestoreDump refuses anything else, and bytes left over.
// A torn dump (crash while dumping) fails the CRC and the middleware
// falls back to the previous copy — which is why it always keeps two.

var (
	// ErrBadDump reports a dump that fails validation (torn, truncated
	// or corrupt).
	ErrBadDump = errors.New("mvstore: invalid dump file")
)

const dumpMagic = "TDMP"

// dumpChunkRows controls how many rows are serialized per data-disk
// charge while dumping; with ~16 rows per page this paces the dump's
// IO the way a sequential table scan would.
const dumpChunkRows = 256

// Dump produces a consistent snapshot copy of the database labeled
// with the global version that snapshot shows: both come from one load
// of the commit cursor, so the label covers exactly what the dump holds
// — never a version still installing when the dump began. The call
// charges page reads to the data disk in chunks; concurrent transactions
// only ever contend on brief per-shard read locks. The dump registers a
// read-only placeholder in the active-transaction registry so inline GC
// cannot prune the versions its snapshot still needs.
func (s *Store) Dump() ([]byte, error) {
	if s.crashed.Load() {
		return nil, ErrCrashed
	}
	// Pin the snapshot for the duration so inline GC cannot prune the
	// versions it still needs.
	snap, coveredVersion, unpin := s.pinSnapshot()
	defer unpin()

	// One pass over the shards collects each live row's version map —
	// the maps are immutable and the pin keeps them alive, so they can
	// be serialized after the shard locks are dropped.
	type dumpRow struct {
		key  string
		cols map[string][]byte
	}
	rowsByTable := make(map[string][]dumpRow)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for tname, t := range sh.tables {
			for k, versions := range t {
				if rv, ok := visibleVersion(versions, snap); ok {
					rowsByTable[tname] = append(rowsByTable[tname], dumpRow{key: k, cols: rv.cols})
				}
			}
		}
		sh.mu.RUnlock()
	}
	names := make([]string, 0, len(rowsByTable))
	for n := range rowsByTable {
		names = append(names, n)
	}
	sort.Strings(names)

	buf := append([]byte(nil), dumpMagic...)
	buf = binary.BigEndian.AppendUint64(buf, coveredVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(names)))

	for _, name := range names {
		live := rowsByTable[name]
		sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
		buf = wire.AppendStr16(buf, name)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(live)))

		for start := 0; start < len(live); start += dumpChunkRows {
			end := start + dumpChunkRows
			if end > len(live) {
				end = len(live)
			}
			for _, row := range live[start:end] {
				// Writes refuse an op of more columns, but a row gathers
				// the columns of every update.
				if len(row.cols) > math.MaxUint16 {
					return nil, fmt.Errorf("mvstore: dump: row %s/%s has %d columns", name, row.key, len(row.cols))
				}
				buf = wire.AppendStr16(buf, row.key)
				cols := make([]string, 0, len(row.cols))
				for c := range row.cols {
					cols = append(cols, c)
				}
				sort.Strings(cols)
				buf = binary.BigEndian.AppendUint16(buf, uint16(len(cols)))
				for _, c := range cols {
					buf = wire.AppendStr16(buf, c)
					buf = wire.AppendBytes32(buf, row.cols[c])
				}
			}
			// Charge the sequential scan + dump write to the data disk.
			s.dataDisk.PageOps((end - start) / 16)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// ValidateDump checks a dump's framing and checksum without restoring
// it, returning the covered version. The middleware uses it to pick
// the newest intact copy after a crash.
func ValidateDump(dump []byte) (coveredVersion uint64, err error) {
	coveredVersion, _, err = openDump(dump)
	return coveredVersion, err
}

// openDump is ValidateDump, also returning a reader over the tables.
func openDump(dump []byte) (uint64, wire.Reader, error) {
	r := wire.NewReader(dump)
	body := r.Bytes(r.Len() - 4)
	sum := r.U32()
	tables := wire.NewReader(body)
	magic := tables.Bytes(len(dumpMagic))
	covered := tables.U64()
	switch {
	case r.Err() != nil || tables.Err() != nil:
		return 0, tables, fmt.Errorf("%w: too short", ErrBadDump)
	case crc32.ChecksumIEEE(body) != sum:
		return 0, tables, fmt.Errorf("%w: checksum mismatch", ErrBadDump)
	case string(magic) != dumpMagic:
		return 0, tables, fmt.Errorf("%w: bad magic", ErrBadDump)
	}
	return covered, tables, nil
}

// RestoreDump builds a fresh store from a dump file and returns it
// with the dump's covered version. The new store starts its MVCC
// sequence at 1 (every restored row is version 1) and its announce
// semaphore at coveredVersion. The store is not shared until this
// returns, so rows are installed without shard locks.
func RestoreDump(cfg Config, dump []byte) (*Store, uint64, error) {
	covered, r, err := openDump(dump)
	if err != nil {
		return nil, 0, err
	}
	s := Open(cfg)
	s.seqAlloc.Store(1)
	var name string
	for ti, nt := 0, r.Count(6); ti < nt; ti++ {
		name = ascending(&r, ti, name, r.Str16())
		nr := r.Count(4)
		if nr == 0 {
			r.Fail(fmt.Errorf("table %q without rows", name))
		}
		var key string
		for ri := 0; ri < nr; ri++ {
			key = ascending(&r, ri, key, r.Str16())
			nc := int(r.U16())
			cols := make(map[string][]byte, nc)
			var col string
			for ci := 0; ci < nc; ci++ {
				col = ascending(&r, ci, col, r.Str16())
				cols[col] = r.Bytes32Copy()
			}
			sh := s.dataShardOf(name, key)
			t := sh.tables[name]
			if t == nil {
				t = make(map[string][]rowVersion)
				sh.tables[name] = t
			}
			t[key] = []rowVersion{{seq: 1, cols: cols}}
		}
	}
	if err := r.Done(); err != nil {
		s.Close()
		return nil, 0, fmt.Errorf("%w: %v", ErrBadDump, err)
	}
	s.publish(1, covered, true)
	// Restoring reads the dump and writes the data files back:
	// charge sequential IO proportional to size.
	s.dataDisk.PageOps(len(dump) / 8192)
	return s, covered, nil
}

// ascending returns name, refusing through r one that is not above prev
// unless it is the first (i == 0).
func ascending(r *wire.Reader, i int, prev, name string) string {
	if i > 0 && name <= prev {
		r.Fail(fmt.Errorf("%q after %q", name, prev))
	}
	return name
}
