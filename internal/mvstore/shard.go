package mvstore

// Lock-striped layout. The single global store mutex of the original
// engine serialized every row read, Begin and lock operation; under a
// read-mostly TPC-W mix that made one replica unable to use even its
// own cores (and paid a mutex round trip plus a defensive column-map
// clone per row read). The engine now splits that one lock into
// independent fine-grained domains:
//
//   - dataShard: row version chains, hash-striped by (table, key),
//     each under its own RWMutex. Snapshot reads take only the shard
//     read lock.
//   - lockStripe: the write-lock manager, striped the same way. The
//     waits-for deadlock graph needs a global view, so it lives under
//     its own small mutex (Store.waitMu).
//   - activeStripe: the registry of in-flight transactions, striped by
//     transaction id, consulted by GC (min active snapshot), Kill,
//     ConflictingActiveTxns and Crash.
//
// Commit publication keeps snapshots consistent without a global lock:
// a committer allocates seq from the atomic Store.seqAlloc, installs
// every row version stamped seq (per-shard write locks), and only then
// publishes seq — strictly in order, with its version label — by
// replacing the commit cursor (Store.publish). New snapshots load the
// cursor, so a reader can never observe a torn commit: versions above
// its snapshot are simply skipped during chain scans.

import (
	"maps"
	"sync"

	"tashkent/internal/core"
)

// defaultStripes is the shard/stripe count used when Config.Stripes is
// zero. Power of two so the hash can mask instead of mod.
const defaultStripes = 64

// rowVersion is one MVCC version of a row. seq is the store-internal
// commit sequence that created it. cols is immutable once the version
// is installed; readers hand it out without cloning.
type rowVersion struct {
	seq     uint64
	deleted bool
	cols    map[string][]byte
}

// dataShard holds the version chains of the rows hashed onto it:
// table name → key → versions, newest last.
type dataShard struct {
	mu     sync.RWMutex
	tables map[string]map[string][]rowVersion
}

// lockStripe is one stripe of the write-lock manager.
type lockStripe struct {
	mu    sync.Mutex
	locks map[core.ItemID]*lockState
}

// activeStripe is one stripe of the in-flight transaction registry.
type activeStripe struct {
	mu  sync.Mutex
	txs map[uint64]*Tx
}

// itemHash is FNV-1a over table, a separator, and key. It must be
// allocation-free: it runs once per row read.
func itemHash(table, key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(table); i++ {
		h = (h ^ uint32(table[i])) * 16777619
	}
	h *= 16777619 // separator octet 0x00
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

func (s *Store) dataShardOf(table, key string) *dataShard {
	return &s.shards[itemHash(table, key)&s.stripeMask]
}

func (s *Store) lockStripeOf(item core.ItemID) *lockStripe {
	return &s.lockStripes[itemHash(item.Table, item.Key)&s.stripeMask]
}

func (s *Store) activeStripeOf(txID uint64) *activeStripe {
	return &s.activeStripes[uint32(txID)&s.stripeMask]
}

// StripeSig is a conservative key-set summary of a writeset: one bit
// per (folded) store stripe touched. Two writesets whose signatures do
// not intersect cannot share a row — they hash to disjoint stripes —
// so their installs commute. Intersecting signatures may still be
// disjoint key sets (hash collision); treating them as conflicting is
// safe, merely less parallel. The parallel applier uses signatures to
// build its dependency edges without materializing key sets.
type StripeSig uint64

// Intersects reports whether the two summaries share a stripe.
func (a StripeSig) Intersects(b StripeSig) bool { return a&b != 0 }

// Signature computes the stripe signature of a writeset using the same
// FNV-1a striping that places its rows into data shards. Stripe counts
// above 64 fold onto the 64 signature bits (still conservative).
func (s *Store) Signature(ws *core.Writeset) StripeSig {
	if ws == nil {
		return 0
	}
	var sig StripeSig
	for i := range ws.Ops {
		op := &ws.Ops[i]
		sig |= 1 << (itemHash(op.Table, op.Key) & s.stripeMask & 63)
	}
	return sig
}

// visibleVersion returns the newest version with seq <= snapshot. ok
// is false if no such version exists or it is a deletion tombstone.
func visibleVersion(versions []rowVersion, snapshot uint64) (rowVersion, bool) {
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i].seq <= snapshot {
			if versions[i].deleted {
				return rowVersion{}, false
			}
			return versions[i], true
		}
	}
	return rowVersion{}, false
}

// readCommitted returns the committed columns of a row visible at
// snapshot, under the owning shard's read lock. The returned map is a
// shared immutable version; callers must not modify it.
func (s *Store) readCommitted(table, key string, snapshot uint64) (map[string][]byte, bool) {
	sh := s.dataShardOf(table, key)
	sh.mu.RLock()
	rv, ok := visibleVersion(sh.tables[table][key], snapshot)
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return rv.cols, true
}

// pruneChain drops row versions no active snapshot can see: everything
// older than the newest version with seq <= minSnap. A row whose only
// remaining version is an old tombstone is removed entirely. Caller
// holds the shard write lock.
func pruneChain(t map[string][]rowVersion, key string, minSnap uint64) {
	versions := t[key]
	if len(versions) <= 1 {
		if len(versions) == 1 && versions[0].deleted && versions[0].seq <= minSnap {
			delete(t, key)
		}
		return
	}
	idx := -1
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i].seq <= minSnap {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return
	}
	kept := versions[idx:]
	if len(kept) == 1 && kept[0].deleted && kept[0].seq <= minSnap {
		delete(t, key)
		return
	}
	// Copy down in place so the backing array can shrink over time.
	// Readers are unaffected: they copy rowVersion values (and the
	// cols maps those reference are immutable), never slot pointers.
	copy(versions, kept)
	t[key] = versions[:len(kept)]
}

// namesAll reports whether cols holds every column of row.
func namesAll(cols, row map[string][]byte) bool {
	if len(cols) < len(row) {
		return false
	}
	for c := range row {
		if _, ok := cols[c]; !ok {
			return false
		}
	}
	return true
}

// installWrite appends one committed row version stamped seq and
// prunes the chain, under the owning shard's write lock. For updates
// the new version's columns are the previous visible version's columns
// merged with the modified ones (full-row versions keep reads O(1)).
// A pending write that already names every column of the row (an
// insert, or an update of every column) becomes the version's immutable
// map as it is: its transaction has committed and writes it no more.
func (s *Store) installWrite(item core.ItemID, pw *pendingWrite, seq, minSnap uint64) {
	sh := s.dataShardOf(item.Table, item.Key)
	sh.mu.Lock()
	t := sh.tables[item.Table]
	if t == nil {
		t = make(map[string][]rowVersion)
		sh.tables[item.Table] = t
	}
	rv := rowVersion{seq: seq, deleted: pw.deleted}
	if !pw.deleted {
		rv.cols = pw.cols
		if pw.kind == core.OpUpdate {
			// Same-key installs are serialized by the row write lock,
			// so every earlier version of this key is already present.
			if prev, ok := visibleVersion(t[item.Key], seq-1); ok && !namesAll(pw.cols, prev.cols) {
				rv.cols = make(map[string][]byte, len(prev.cols)+len(pw.cols))
				maps.Copy(rv.cols, prev.cols)
				maps.Copy(rv.cols, pw.cols)
			}
		}
	}
	t[item.Key] = append(t[item.Key], rv)
	pruneChain(t, item.Key, minSnap)
	sh.mu.Unlock()
}
