package mvstore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"tashkent/internal/core"
)

// pendingWrite is one buffered row modification of an active
// transaction.
type pendingWrite struct {
	kind    core.OpKind
	cols    map[string][]byte // full row (insert) or modified cols (update)
	deleted bool
}

// WriteHook observes each captured write operation as it happens —
// the paper's trigger-to-memory-mapped-file channel that exposes
// partial writesets to the proxy. Returning an error aborts the write
// (and the proxy then aborts the transaction).
type WriteHook func(op core.WriteOp) error

// Transaction lifecycle states. The state latches exactly once from
// txActive to txDone (commit/abort, owned by the session goroutine) or
// txKilled (Kill/Crash, any goroutine); the CAS winner owns lock
// release and registry removal, so a kill can never race a commit.
const (
	txActive int32 = iota
	txDone
	txKilled
)

// Tx is one transaction handle. A Tx is used by a single session
// goroutine; Kill and Crash may finish it from other goroutines, which
// the state latch and the held-list mutex make safe.
type Tx struct {
	store    *Store
	id       uint64
	snapshot uint64                        // install sequence the snapshot reads
	version  uint64                        // global version label of the snapshot
	writes   map[core.ItemID]*pendingWrite // owner goroutine only; nil until first write
	ws       core.Writeset                 // capture order preserved
	hook     WriteHook

	state atomic.Int32
	mu    sync.Mutex // guards held against Kill/ConflictingActiveTxns
	held  []core.ItemID
}

// ID returns the transaction identifier (used with Store.Kill).
func (tx *Tx) ID() uint64 { return tx.id }

// SnapshotVersion returns the global version label of the snapshot:
// the snapshot shows exactly the commits of the versions up to it.
// Begin reads it from the same commit cursor as the snapshot, so it is
// exact: the highest label GSI allows (paper §6.2).
func (tx *Tx) SnapshotVersion() uint64 { return tx.version }

// SetWriteHook installs the per-write observer. It must be set before
// the first write.
func (tx *Tx) SetWriteHook(h WriteHook) { tx.hook = h }

// Writeset returns the writeset captured so far. The returned value
// aliases internal state and must not be modified; Clone it to keep.
func (tx *Tx) Writeset() *core.Writeset { return &tx.ws }

func (tx *Tx) check() error {
	switch tx.state.Load() {
	case txKilled:
		return ErrTxKilled
	case txDone:
		return ErrTxDone
	}
	return nil
}

// Read returns the named columns of a row visible in the transaction's
// snapshot (its own uncommitted writes win). found is false if the row
// does not exist in the snapshot. The returned map is a shared
// immutable row version — callers must not modify it. Snapshot reads
// take only the owning data shard's read lock; no global mutex and no
// defensive copy.
func (tx *Tx) Read(tableName, key string) (cols map[string][]byte, found bool, err error) {
	if err := tx.check(); err != nil {
		return nil, false, err
	}
	s := tx.store
	s.maybePageMiss()
	s.stats.rowReads.Add(1)
	item := core.ItemID{Table: tableName, Key: key}
	if pw, ok := tx.writes[item]; ok {
		if pw.deleted {
			return nil, false, nil
		}
		// Own-writes overlay: tx-local, built fresh per read so the
		// caller never aliases the pending buffer.
		base := map[string][]byte{}
		if pw.kind == core.OpUpdate {
			if committed, ok := s.readCommitted(tableName, key, tx.snapshot); ok {
				for c, v := range committed {
					base[c] = v
				}
			}
		}
		for c, v := range pw.cols {
			base[c] = v
		}
		return base, true, nil
	}
	committed, ok := s.readCommitted(tableName, key, tx.snapshot)
	return committed, ok, nil
}

// ReadCol is a convenience single-column read.
func (tx *Tx) ReadCol(tableName, key, col string) ([]byte, bool, error) {
	cols, found, err := tx.Read(tableName, key)
	if err != nil || !found {
		return nil, found, err
	}
	v, ok := cols[col]
	return v, ok, nil
}

// write is the shared path of Insert/Update/Delete: run the hook
// (eager pre-certification), take the row write lock, buffer the
// modification, and capture the writeset entry.
func (tx *Tx) write(op core.WriteOp) error {
	if err := tx.check(); err != nil {
		return err
	}
	if tx.hook != nil {
		if err := tx.hook(op); err != nil {
			return err
		}
	}
	item := op.Item()
	if err := tx.store.acquireLock(tx, item); err != nil {
		return err
	}
	if tx.state.Load() == txKilled { // killed while acquiring
		return ErrTxKilled
	}
	tx.store.stats.rowWrites.Add(1)
	if tx.writes == nil {
		tx.writes = make(map[core.ItemID]*pendingWrite)
	}
	pw := tx.writes[item]
	if pw == nil {
		pw = &pendingWrite{cols: map[string][]byte{}}
		tx.writes[item] = pw
	}
	switch op.Kind {
	case core.OpInsert:
		pw.kind = core.OpInsert
		pw.deleted = false
		pw.cols = map[string][]byte{}
		for _, c := range op.Cols {
			pw.cols[c.Col] = append([]byte(nil), c.Value...)
		}
	case core.OpUpdate:
		if pw.kind != core.OpInsert {
			pw.kind = core.OpUpdate
		}
		pw.deleted = false
		for _, c := range op.Cols {
			pw.cols[c.Col] = append([]byte(nil), c.Value...)
		}
	case core.OpDelete:
		pw.kind = core.OpDelete
		pw.deleted = true
		pw.cols = map[string][]byte{}
	default:
		return fmt.Errorf("mvstore: invalid op kind %d", op.Kind)
	}
	tx.ws.Add(op)
	return nil
}

// Insert writes a full new row (or fully replaces an existing one,
// like the INSERT the writeset propagation replays).
func (tx *Tx) Insert(tableName, key string, cols map[string][]byte) error {
	op := core.WriteOp{Kind: core.OpInsert, Table: tableName, Key: key}
	for c, v := range cols {
		op.Cols = append(op.Cols, core.ColUpdate{Col: c, Value: append([]byte(nil), v...)})
	}
	return tx.write(op)
}

// Update modifies the given columns of a row.
func (tx *Tx) Update(tableName, key string, cols map[string][]byte) error {
	op := core.WriteOp{Kind: core.OpUpdate, Table: tableName, Key: key}
	for c, v := range cols {
		op.Cols = append(op.Cols, core.ColUpdate{Col: c, Value: append([]byte(nil), v...)})
	}
	return tx.write(op)
}

// Delete removes a row.
func (tx *Tx) Delete(tableName, key string) error {
	return tx.write(core.WriteOp{Kind: core.OpDelete, Table: tableName, Key: key})
}

// ApplyWriteset replays a propagated remote writeset through the
// normal write path (locks, triggers and all — remote writesets can
// conflict and even deadlock with local transactions exactly as in the
// paper).
func (tx *Tx) ApplyWriteset(ws *core.Writeset) error {
	if ws == nil {
		return nil
	}
	for i := range ws.Ops {
		if err := tx.write(ws.Ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// Abort rolls the transaction back.
func (tx *Tx) Abort() error {
	if !tx.state.CompareAndSwap(txActive, txDone) {
		if tx.state.Load() == txKilled {
			return nil // already dead and cleaned up
		}
		return ErrTxDone
	}
	s := tx.store
	s.stats.aborts.Add(1)
	tx.mu.Lock()
	held := tx.held
	tx.held = nil
	tx.mu.Unlock()
	s.releaseItems(tx.id, held, 0)
	s.unregister(tx.id)
	return nil
}

// Commit finishes the transaction with standalone-database semantics:
// read-only transactions finish immediately; update transactions write
// a commit record (group-committed with concurrent committers) and are
// announced in whatever order they complete. Equivalent to
// CommitLabeled with zero labels.
func (tx *Tx) Commit() error { return tx.CommitLabeled(0, 0) }

// CommitLabeled is Commit with a recovery label attached to the commit
// record: the transaction covers global versions (from, to]. The
// middleware proxy uses labels so WAL recovery can report which global
// versions survived (paper §7.2). Announce order is arrival order —
// callers (Base/Tashkent-MW proxies) serialize externally. A labeled
// commit whose range the store has already announced past skips
// installation (see applyCommit): a catch-up resync carried the state
// beyond it, and installing now would regress newer row versions.
func (tx *Tx) CommitLabeled(from, to uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	if tx.ws.Empty() {
		if !tx.state.CompareAndSwap(txActive, txDone) {
			if tx.state.Load() == txKilled {
				return ErrTxKilled
			}
			return ErrTxDone
		}
		s := tx.store
		s.stats.readOnlyCommits.Add(1)
		s.unregister(tx.id)
		return nil
	}
	if to > 0 && tx.store.AnnouncedVersion() >= to {
		// Superseded before the WAL write: skip the record too, so a
		// recovery replay never sees this stale range after newer ones.
		return tx.finishSuperseded()
	}
	rec := encodeCommitRecord(from, to, &tx.ws)
	if err := tx.store.log.Append(rec); err != nil {
		return ErrCrashed
	}
	return tx.applyCommit(to)
}

// checkLabeledUpdate validates the handle and the arguments of the
// deferred-publication commits (op names the caller in the error).
func (tx *Tx) checkLabeledUpdate(op string, from, to uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	if to <= from {
		return fmt.Errorf("mvstore: %s(%d, %d): empty version range", op, from, to)
	}
	if tx.ws.Empty() {
		return fmt.Errorf("mvstore: %s on read-only transaction", op)
	}
	return nil
}

// LogTicket is the durability ticket of one LogCommitRecords batch: it
// blocks until every record of the batch is covered by a completed fsync
// (not at all on a NoSync log). Any number of commits may wait on one
// ticket, concurrently and repeatedly.
type LogTicket func() error

// LogCommitRecords appends the commit records of recs to the log as one
// batch, in the order given, and returns as soon as they hold their
// places in the log order — before they are durable. It is the one
// routine that logs a deferred-publication commit: CommitLabeledAsync
// logs a batch of one through it, and the proxy logs every record of a
// Tashkent-API certifier response (remote chunks and the local commit,
// ascending global versions) in one call, so the records reach the log
// in global order and share one fsync however far apart their
// installers run. Each record's commit is then finished with
// CommitLoggedAsync, which waits on the ticket where it would have
// waited on its own append.
//
// A record may be in the log while its installer holds no lock yet, is
// retried, or gives up; recovery orders replay by label for that reason
// (see replayWAL).
func (s *Store) LogCommitRecords(recs []CommitRecord) (LogTicket, error) {
	payloads := make([][]byte, len(recs))
	for i, rec := range recs {
		payloads[i] = encodeCommitRecord(rec.From, rec.To, rec.WS)
	}
	wait, err := s.log.AppendBatchAsync(payloads)
	if err != nil {
		return nil, ErrCrashed
	}
	return wait, nil
}

// applyCommit is the tail of the synchronous update commits (Commit,
// CommitLabeled): latch the state against Kill, allocate the install
// sequence, install every row version stamped with it, publish the
// sequence in order — labeled announceTo, which raises the commit-order
// semaphore with it (0 = unlabeled commit, the label stays) — so readers
// never observe a torn commit or a label behind it, and release write
// locks (first-committer-wins). The deferred-publication commits install
// and publish through the pending list instead (see async.go).
//
// Labeled commits (announceTo > 0) additionally pass the store's apply
// gate: installation and publication form one critical section, and a
// commit whose range was announced past while it waited (a catch-up
// resync overtook it) skips installation entirely instead of writing
// stale row versions over newer ones.
func (tx *Tx) applyCommit(announceTo uint64) error {
	s := tx.store
	if s.crashed.Load() {
		return ErrCrashed
	}
	if !tx.state.CompareAndSwap(txActive, txDone) {
		if tx.state.Load() == txKilled {
			return ErrTxKilled
		}
		return ErrTxDone
	}
	tx.mu.Lock()
	held := tx.held
	tx.held = nil
	tx.mu.Unlock()
	if s.consumeFailNextCommit() {
		s.stats.aborts.Add(1)
		s.releaseItems(tx.id, held, 0)
		s.unregister(tx.id)
		return ErrCommitRejected
	}
	gated := announceTo > 0
	if gated {
		s.applyGate.Lock()
		if s.AnnouncedVersion() >= announceTo {
			s.applyGate.Unlock()
			return tx.finishSupersededLatched(held)
		}
	}
	// From here the commit must complete unconditionally: a stall
	// between sequence allocation and publication would wedge every
	// later committer's publication wait. Everything below is pure
	// memory work.
	minSnap := s.minActiveSnapshot()
	seq := s.seqAlloc.Add(1)
	for item, pw := range tx.writes {
		s.installWrite(item, pw, seq, minSnap)
	}
	s.publish(seq, announceTo, gated)
	if gated {
		s.applyGate.Unlock()
	}
	s.stats.commits.Add(1)
	s.releaseItems(tx.id, held, seq)
	s.unregister(tx.id)
	s.chargeCheckpoint(len(tx.writes))
	if gated {
		// The announce advance may have made deferred-publication
		// commits (CommitLabeledAsync) eligible; publish them now that
		// the gate is free.
		s.drainPending()
	}
	return nil
}

// finishSuperseded resolves a labeled commit whose version range a
// catch-up applier already carried into the state: the transaction's
// effects are (or are overwritten) in the database, so it finishes as
// a successful commit without installing anything. Locks release as
// committed — first-committer-wins competitors must still abort.
func (tx *Tx) finishSuperseded() error {
	if !tx.state.CompareAndSwap(txActive, txDone) {
		if tx.state.Load() == txKilled {
			return ErrTxKilled
		}
		return ErrTxDone
	}
	tx.mu.Lock()
	held := tx.held
	tx.held = nil
	tx.mu.Unlock()
	return tx.finishSupersededLatched(held)
}

// finishSupersededLatched is the tail of finishSuperseded for callers
// that already latched the state and collected the held locks.
func (tx *Tx) finishSupersededLatched(held []core.ItemID) error {
	s := tx.store
	s.stats.superseded.Add(1)
	s.stats.commits.Add(1)
	// The state that covers the range is published already.
	s.releaseItems(tx.id, held, s.cur.Load().seq)
	s.unregister(tx.id)
	return nil
}

// Commit record encoding: uint64 from, uint64 to, writeset.

func encodeCommitRecord(from, to uint64, ws *core.Writeset) []byte {
	buf := make([]byte, 0, 16+ws.Size())
	buf = binary.BigEndian.AppendUint64(buf, from)
	buf = binary.BigEndian.AppendUint64(buf, to)
	return ws.Encode(buf)
}

// CommitRecord is one WAL commit record — decoded from the log, or on
// its way into it through LogCommitRecords: WS commits global versions
// (From, To], both 0 for an unlabeled commit.
type CommitRecord struct {
	From, To uint64
	WS       *core.Writeset
}

// DecodeCommitRecord parses a WAL record payload. It accepts exactly
// what encodeCommitRecord writes: bytes after the writeset are refused.
func DecodeCommitRecord(payload []byte) (CommitRecord, error) {
	if len(payload) < 16 {
		return CommitRecord{}, fmt.Errorf("mvstore: short commit record (%d bytes)", len(payload))
	}
	rec := CommitRecord{
		From: binary.BigEndian.Uint64(payload[0:8]),
		To:   binary.BigEndian.Uint64(payload[8:16]),
	}
	ws, n, err := core.DecodeWriteset(payload[16:])
	if err != nil {
		return CommitRecord{}, err
	}
	if 16+n != len(payload) {
		return CommitRecord{}, fmt.Errorf("mvstore: commit record: %d bytes after the writeset", len(payload)-16-n)
	}
	rec.WS = ws
	return rec, nil
}
