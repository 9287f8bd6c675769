package mvstore

import (
	"fmt"
	"hash/crc32"
	"sort"

	"tashkent/internal/core"
	"tashkent/internal/wal"
)

// RecoveryInfo summarizes what a WAL replay found.
type RecoveryInfo struct {
	// Records is the number of complete commit records recovered.
	Records int
	// CoveredTo is the highest global version V such that the records
	// form an unbroken (from,to] chain from the recovery base up to V.
	// Commit records beyond a gap are applied too — under Tashkent-API a
	// response's records are logged before their installers run, so a
	// range whose install was given up and re-fetched can be missing, or
	// present twice, among later ones — and the middleware re-applies
	// everything after CoveredTo from the certifier log. Both are safe
	// because writesets carry absolute values (paper §7.2) and replay
	// orders labeled records by label, not by log position (replayWAL).
	CoveredTo uint64
	// Gaps reports how many records lay beyond the contiguous chain.
	Gaps int
}

// RecoverFromWAL rebuilds a store from a crash-surviving WAL image,
// replaying its commit records (labeled ones in label order) on top of
// an empty database. base is the global version the empty state
// corresponds to (0 for a fresh database; the dump's covered version
// when replaying on top of a restored dump).
func RecoverFromWAL(cfg Config, image []byte, base uint64) (*Store, RecoveryInfo, error) {
	s := Open(cfg)
	info, err := s.replayWAL(image, base)
	if err != nil {
		s.Close()
		return nil, info, err
	}
	return s, info, nil
}

// replayWAL applies every commit record in the image and computes the
// contiguous coverage chain. The store is not serving clients yet, so
// replay is single-threaded.
func (s *Store) replayWAL(image []byte, base uint64) (RecoveryInfo, error) {
	payloads, err := wal.Scan(image)
	if err != nil {
		return RecoveryInfo{}, fmt.Errorf("mvstore: recovery scan: %w", err)
	}
	recs := make([]CommitRecord, 0, len(payloads))
	var labeled []CommitRecord
	for i, p := range payloads {
		rec, err := DecodeCommitRecord(p)
		if err != nil {
			return RecoveryInfo{}, fmt.Errorf("mvstore: recovery record %d: %w", i, err)
		}
		recs = append(recs, rec)
		if rec.To > rec.From {
			labeled = append(labeled, rec)
		}
	}
	// Labeled records replay in ascending To, whatever their log order.
	// Log order says nothing about them: LogCommitRecords appends a
	// record before its installer holds any lock, and a range whose
	// install was given up is logged again, after records of later
	// versions, by the resync that re-applies it. Label order is right
	// for any log order: a record replays the operations of the versions
	// in its range in version order, and every operation sets absolute
	// values (an insert or a delete fixes the whole row, an update its
	// columns), so applying it to a state that already holds some of its
	// versions re-establishes those and adds the rest. In ascending To
	// each record of a contiguous chain therefore leaves the state at its
	// own To — duplicates, and merged ranges overlapping single versions,
	// included; a record beyond a gap leaves a state that the re-apply
	// from CoveredTo repairs by the same argument. Unlabeled records (a
	// standalone database's commits, which write locks did serialize)
	// keep their log positions and their order among themselves.
	sort.SliceStable(labeled, func(i, j int) bool { return labeled[i].To < labeled[j].To })
	next := 0
	for _, rec := range recs {
		if rec.To > rec.From {
			rec = labeled[next]
			next++
		}
		s.applyRecovered(rec)
	}
	info := RecoveryInfo{Records: len(recs)}
	// Coverage chain over labeled records, sorted by From.
	sort.Slice(labeled, func(i, j int) bool { return labeled[i].From < labeled[j].From })
	cur := base
	for _, rec := range labeled {
		switch {
		case rec.From <= cur && rec.To > cur:
			cur = rec.To
		case rec.From > cur:
			info.Gaps++
		}
	}
	info.CoveredTo = cur
	s.publish(0, cur, true)
	return info, nil
}

// applyRecovered installs a recovered writeset directly (no locks: the
// store is not serving clients during recovery). Chains are pruned to
// the new version as they go — there are no snapshots to preserve.
func (s *Store) applyRecovered(rec CommitRecord) {
	seq := s.seqAlloc.Add(1)
	for i := range rec.WS.Ops {
		op := &rec.WS.Ops[i]
		sh := s.dataShardOf(op.Table, op.Key)
		sh.mu.Lock()
		t := sh.tables[op.Table]
		if t == nil {
			t = make(map[string][]rowVersion)
			sh.tables[op.Table] = t
		}
		rv := rowVersion{seq: seq}
		switch op.Kind {
		case core.OpDelete:
			rv.deleted = true
		default:
			base := map[string][]byte{}
			if op.Kind == core.OpUpdate {
				// At seq, not below it: a merged record can write one row
				// twice, and its later op builds on its earlier one.
				if prev, ok := visibleVersion(t[op.Key], seq); ok {
					for c, v := range prev.cols {
						base[c] = v
					}
				}
			}
			for _, c := range op.Cols {
				base[c.Col] = append([]byte(nil), c.Value...)
			}
			rv.cols = base
		}
		t[op.Key] = append(t[op.Key], rv)
		pruneChain(t, op.Key, seq)
		sh.mu.Unlock()
	}
	s.publish(seq, 0, false)
	s.stats.commits.Add(1)
}

// latestRows collects, per table, the live rows at snapshot snap from
// every shard. The cols maps are shared immutable versions.
func (s *Store) latestRows(snap uint64) map[string]map[string]map[string][]byte {
	out := make(map[string]map[string]map[string][]byte)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for tname, t := range sh.tables {
			for k, versions := range t {
				rv, ok := visibleVersion(versions, snap)
				if !ok {
					continue
				}
				rows := out[tname]
				if rows == nil {
					rows = make(map[string]map[string][]byte)
					out[tname] = rows
				}
				rows[k] = rv.cols
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Fingerprint returns a CRC-32 over the latest committed state of
// every table, with deterministic iteration order. Two replicas that
// applied the same global prefix produce identical fingerprints; the
// property tests lean on this heavily.
func (s *Store) Fingerprint() uint32 {
	snap, _, unpin := s.pinSnapshot()
	tables := s.latestRows(snap)
	unpin()
	h := crc32.NewIEEE()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var scratch []byte
	for _, n := range names {
		rows := tables[n]
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rowCols := rows[k]
			scratch = scratch[:0]
			scratch = append(scratch, n...)
			scratch = append(scratch, 0)
			scratch = append(scratch, k...)
			scratch = append(scratch, 0)
			cols := make([]string, 0, len(rowCols))
			for c := range rowCols {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			for _, c := range cols {
				scratch = append(scratch, c...)
				scratch = append(scratch, 1)
				scratch = append(scratch, rowCols[c]...)
				scratch = append(scratch, 2)
			}
			h.Write(scratch)
		}
	}
	return h.Sum32()
}

// RowCount returns the number of live rows in a table at the latest
// committed state.
func (s *Store) RowCount(tableName string) int {
	snap, _, unpin := s.pinSnapshot()
	defer unpin()
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, versions := range sh.tables[tableName] {
			if _, ok := visibleVersion(versions, snap); ok {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}
