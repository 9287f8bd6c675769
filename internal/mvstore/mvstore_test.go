package mvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sync"
	"testing"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
	"tashkent/internal/wire"
)

func openInstant(t *testing.T) *Store {
	t.Helper()
	s := Open(Config{})
	t.Cleanup(s.Close)
	return s
}

func mustBegin(t *testing.T, s *Store) *Tx {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return tx
}

func set(t *testing.T, s *Store, table, key, col, val string) {
	t.Helper()
	tx := mustBegin(t, s)
	if err := tx.Update(table, key, map[string][]byte{col: []byte(val)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func get(t *testing.T, s *Store, table, key, col string) (string, bool) {
	t.Helper()
	tx := mustBegin(t, s)
	defer tx.Abort()
	v, ok, err := tx.ReadCol(table, key, col)
	if err != nil {
		t.Fatalf("ReadCol: %v", err)
	}
	return string(v), ok
}

func TestBasicReadWriteCommit(t *testing.T) {
	s := openInstant(t)
	set(t, s, "kv", "a", "v", "1")
	if v, ok := get(t, s, "kv", "a", "v"); !ok || v != "1" {
		t.Fatalf("read back = %q, %v", v, ok)
	}
	if _, ok := get(t, s, "kv", "missing", "v"); ok {
		t.Error("missing row reported found")
	}
	if _, ok := get(t, s, "nope", "a", "v"); ok {
		t.Error("missing table reported found")
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	s := openInstant(t)
	tx := mustBegin(t, s)
	if err := tx.Insert("t", "k", map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = mustBegin(t, s)
	if err := tx.Update("t", "k", map[string][]byte{"b": []byte("3")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Update preserves untouched columns.
	tx = mustBegin(t, s)
	cols, ok, _ := tx.Read("t", "k")
	if !ok || string(cols["a"]) != "1" || string(cols["b"]) != "3" {
		t.Fatalf("after update: %v %v", cols, ok)
	}
	tx.Abort()

	tx = mustBegin(t, s)
	if err := tx.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, s, "t", "k", "a"); ok {
		t.Error("row visible after delete")
	}
}

func TestSnapshotIsolationReadersUnaffected(t *testing.T) {
	s := openInstant(t)
	set(t, s, "t", "x", "v", "old")

	reader := mustBegin(t, s)
	set(t, s, "t", "x", "v", "new") // concurrent committed update
	v, ok, err := reader.ReadCol("t", "x", "v")
	if err != nil || !ok {
		t.Fatalf("read: %v %v", err, ok)
	}
	if string(v) != "old" {
		t.Errorf("snapshot read = %q, want old (SI: snapshot fixed at begin)", v)
	}
	reader.Commit()
	if v, _ := get(t, s, "t", "x", "v"); v != "new" {
		t.Errorf("fresh read = %q, want new", v)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	s := openInstant(t)
	set(t, s, "t", "x", "v", "base")
	tx := mustBegin(t, s)
	if err := tx.Update("t", "x", map[string][]byte{"v": []byte("mine")}); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tx.ReadCol("t", "x", "v")
	if !ok || string(v) != "mine" {
		t.Errorf("own write = %q %v", v, ok)
	}
	tx.Delete("t", "x")
	if _, ok, _ := tx.ReadCol("t", "x", "v"); ok {
		t.Error("own delete still visible")
	}
	tx.Abort()
	if v, _ := get(t, s, "t", "x", "v"); v != "base" {
		t.Errorf("after abort = %q, want base", v)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	s := openInstant(t)
	set(t, s, "t", "x", "v", "0")

	t1 := mustBegin(t, s)
	t2 := mustBegin(t, s)
	if err := t1.Update("t", "x", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		// t2 blocks on the write lock until t1 commits, then must fail.
		errCh <- t2.Update("t", "x", map[string][]byte{"v": []byte("2")})
	}()
	time.Sleep(20 * time.Millisecond) // let t2 block
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("t2 write err = %v, want ErrWriteConflict", err)
	}
	t2.Abort()
	if v, _ := get(t, s, "t", "x", "v"); v != "1" {
		t.Errorf("final = %q, want 1", v)
	}
	if s.Stats().WriteConflicts == 0 {
		t.Error("write conflict not counted")
	}
}

// TestLockWaiterAbovePublishedCommitRetries: a commit publishes before
// it releases its row locks, so a transaction can begin with the commit
// in its snapshot and still queue behind the lock. It is no competitor —
// first-committer-wins refuses only waiters whose snapshot lies below
// the holder's commit sequence — and must get the lock, not a conflict.
// The release is driven by hand at a chosen sequence: the real window is
// a few instructions wide.
func TestLockWaiterAbovePublishedCommitRetries(t *testing.T) {
	s := openInstant(t)
	old := mustBegin(t, s) // snapshot 0
	set(t, s, "t", "y", "v", "0")
	holder := mustBegin(t, s)
	if err := holder.Update("t", "x", map[string][]byte{"v": []byte("h")}); err != nil {
		t.Fatal(err)
	}
	fresh := mustBegin(t, s) // snapshot 1
	oldErr, freshErr := make(chan error, 1), make(chan error, 1)
	go func() { oldErr <- old.Update("t", "x", map[string][]byte{"v": []byte("o")}) }()
	go func() { freshErr <- fresh.Update("t", "x", map[string][]byte{"v": []byte("f")}) }()
	item := core.ItemID{Table: "t", Key: "x"}
	st := s.lockStripeOf(item)
	for queued := 0; queued < 2; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		queued = len(st.locks[item].waiters)
		st.mu.Unlock()
	}
	// The holder "committed at sequence 1": in fresh's snapshot, not in
	// old's.
	holder.mu.Lock()
	held := holder.held
	holder.held = nil
	holder.mu.Unlock()
	s.releaseItems(holder.id, held, 1)
	if err := <-oldErr; !errors.Is(err, ErrWriteConflict) {
		t.Errorf("waiter with the commit above its snapshot: %v, want ErrWriteConflict", err)
	}
	if err := <-freshErr; err != nil {
		t.Errorf("waiter with the commit in its snapshot: %v, want the lock", err)
	}
	for _, tx := range []*Tx{old, fresh, holder} {
		tx.Abort()
	}
}

func TestAbortReleasesLockToWaiter(t *testing.T) {
	s := openInstant(t)
	set(t, s, "t", "x", "v", "0")
	t1 := mustBegin(t, s)
	t2 := mustBegin(t, s)
	if err := t1.Update("t", "x", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- t2.Update("t", "x", map[string][]byte{"v": []byte("2")})
	}()
	time.Sleep(20 * time.Millisecond)
	t1.Abort()
	if err := <-errCh; err != nil {
		t.Fatalf("t2 write after t1 abort: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := get(t, s, "t", "x", "v"); v != "2" {
		t.Errorf("final = %q, want 2", v)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := openInstant(t)
	set(t, s, "t", "x", "v", "0")
	set(t, s, "t", "y", "v", "0")
	t1 := mustBegin(t, s)
	t2 := mustBegin(t, s)
	if err := t1.Update("t", "x", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update("t", "y", map[string][]byte{"v": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- t1.Update("t", "y", map[string][]byte{"v": []byte("1")})
	}()
	time.Sleep(20 * time.Millisecond)
	// t2 → x would close the cycle: must be detected immediately.
	err := t2.Update("t", "x", map[string][]byte{"v": []byte("2")})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("t2 err = %v, want ErrDeadlock", err)
	}
	t2.Abort()
	if err := <-errCh; err != nil {
		t.Fatalf("t1's blocked write should succeed after victim abort: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Deadlocks != 1 {
		t.Errorf("Deadlocks = %d, want 1", s.Stats().Deadlocks)
	}
}

func TestLockTimeout(t *testing.T) {
	s := Open(Config{LockTimeout: 30 * time.Millisecond})
	defer s.Close()
	tx, _ := s.Begin()
	if err := tx.Update("t", "x", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	other, _ := s.Begin()
	start := time.Now()
	err := other.Update("t", "x", map[string][]byte{"v": []byte("2")})
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("timeout returned too early")
	}
	other.Abort()
	tx.Abort()
}

func TestKillReleasesLocksAndDoomsTx(t *testing.T) {
	s := openInstant(t)
	victim := mustBegin(t, s)
	if err := victim.Update("t", "x", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if !s.Kill(victim.ID()) {
		t.Fatal("Kill returned false for active tx")
	}
	if s.Kill(victim.ID()) {
		t.Error("double Kill should return false")
	}
	if err := victim.Commit(); !errors.Is(err, ErrTxKilled) {
		t.Errorf("commit after kill = %v, want ErrTxKilled", err)
	}
	// Lock must be free for others.
	tx := mustBegin(t, s)
	if err := tx.Update("t", "x", map[string][]byte{"v": []byte("2")}); err != nil {
		t.Fatalf("lock not released by Kill: %v", err)
	}
	tx.Commit()
	if s.Stats().Kills != 1 {
		t.Errorf("Kills = %d", s.Stats().Kills)
	}
}

func TestConflictingActiveTxns(t *testing.T) {
	s := openInstant(t)
	t1 := mustBegin(t, s)
	t1.Update("t", "x", map[string][]byte{"v": []byte("1")})
	t2 := mustBegin(t, s)
	t2.Update("t", "y", map[string][]byte{"v": []byte("1")})

	ws := &core.Writeset{Ops: []core.WriteOp{{Kind: core.OpUpdate, Table: "t", Key: "x"}}}
	got := s.ConflictingActiveTxns(ws, 0)
	if len(got) != 1 || got[0] != t1.ID() {
		t.Errorf("ConflictingActiveTxns = %v, want [%d]", got, t1.ID())
	}
	if got := s.ConflictingActiveTxns(ws, t1.ID()); len(got) != 0 {
		t.Errorf("excluded tx still returned: %v", got)
	}
	if got := s.ConflictingActiveTxns(&core.Writeset{}, 0); got != nil {
		t.Errorf("empty writeset conflicts = %v", got)
	}
	t1.Abort()
	t2.Abort()
}

func TestWriteHookObservesAndAborts(t *testing.T) {
	s := openInstant(t)
	tx := mustBegin(t, s)
	var seen []string
	tx.SetWriteHook(func(op core.WriteOp) error {
		seen = append(seen, op.Key)
		if op.Key == "forbidden" {
			return fmt.Errorf("pre-certification conflict")
		}
		return nil
	})
	if err := tx.Update("t", "ok", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", "forbidden", map[string][]byte{"v": []byte("1")}); err == nil {
		t.Fatal("hook error did not propagate")
	}
	if len(seen) != 2 {
		t.Errorf("hook saw %v", seen)
	}
	// Writeset contains only the successful write.
	if n := len(tx.Writeset().Ops); n != 1 {
		t.Errorf("writeset has %d ops, want 1", n)
	}
	tx.Abort()
}

func TestReadOnlyCommitNoWAL(t *testing.T) {
	s := openInstant(t)
	set(t, s, "t", "x", "v", "1")
	walBefore := s.log.Records()
	tx := mustBegin(t, s)
	tx.ReadCol("t", "x", "v")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.log.Records() != walBefore {
		t.Error("read-only commit wrote a WAL record")
	}
	if s.Stats().ReadOnlyCommits != 1 {
		t.Errorf("ReadOnlyCommits = %d", s.Stats().ReadOnlyCommits)
	}
}

func TestTxDoneErrors(t *testing.T) {
	s := openInstant(t)
	tx := mustBegin(t, s)
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit = %v", err)
	}
	if err := tx.Update("t", "x", nil); !errors.Is(err, ErrTxDone) {
		t.Errorf("write after commit = %v", err)
	}
	if _, _, err := tx.Read("t", "x"); !errors.Is(err, ErrTxDone) {
		t.Errorf("read after commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("abort after commit = %v", err)
	}
}

func TestCommitLabeledAsyncAnnouncesInOrder(t *testing.T) {
	s := openInstant(t)
	// Commit versions 3,2,1 concurrently in reverse order; they must
	// become visible as 1,2,3. The publication callbacks record the
	// order: a committer's return is not its publication.
	var mu sync.Mutex
	var announceOrder []uint64
	var wg sync.WaitGroup
	for _, v := range []uint64{3, 2, 1} {
		tx := mustBegin(t, s)
		key := fmt.Sprintf("k%d", v)
		if err := tx.Update("t", key, map[string][]byte{"v": []byte{byte(v)}}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := tx.CommitLabeledAsync(v-1, v, func(oc PendingOutcome) {
				if oc != PendingPublished {
					t.Errorf("version %d resolved %v, want published", v, oc)
				}
				mu.Lock()
				announceOrder = append(announceOrder, v)
				mu.Unlock()
			})
			if err != nil {
				t.Errorf("CommitLabeledAsync(%d): %v", v, err)
			}
		}()
		time.Sleep(5 * time.Millisecond) // stagger submissions, later versions first
	}
	wg.Wait()
	if err := s.WaitAnnounced(3, time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(announceOrder) != "[1 2 3]" {
		t.Fatalf("announce order %v, want [1 2 3]", announceOrder)
	}
}

func TestCommitLabeledAsyncGroupsFsyncs(t *testing.T) {
	// Concurrent labeled commits must share fsyncs — the whole point of
	// Tashkent-API.
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 5 * time.Millisecond}, 1)
	s := Open(Config{LogDisk: logDisk})
	defer s.Close()
	const n = 16
	txs := make([]*Tx, n)
	for i := 0; i < n; i++ {
		tx, _ := s.Begin()
		tx.Update("t", fmt.Sprintf("k%d", i), map[string][]byte{"v": []byte{1}})
		txs[i] = tx
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := txs[i].CommitLabeledAsync(uint64(i), uint64(i+1), nil); err != nil {
				t.Errorf("CommitLabeledAsync(%d): %v", i, err)
			}
		}()
	}
	wg.Wait()
	if err := s.WaitAnnounced(n, time.Second); err != nil {
		t.Fatal(err)
	}
	if f := logDisk.Stats().Fsyncs; f >= n/2 {
		t.Errorf("%d fsyncs for %d concurrent labeled commits; expected grouping", f, n)
	}
}

func TestCommitLabeledAsyncValidation(t *testing.T) {
	s := openInstant(t)
	tx := mustBegin(t, s)
	tx.Update("t", "k", map[string][]byte{"v": []byte{1}})
	if err := tx.CommitLabeledAsync(5, 5, nil); err == nil {
		t.Error("empty version range accepted")
	}
	if err := tx.CommitLoggedAsync(5, 5, func() error { return nil }, nil); err == nil {
		t.Error("empty version range accepted behind a logged record")
	}
	tx.Abort()
	ro := mustBegin(t, s)
	if err := ro.CommitLabeledAsync(0, 1, nil); err == nil {
		t.Error("read-only labeled commit accepted")
	}
	ro.Abort()
	if s.AnnouncedVersion() != 0 || s.PendingApplies() != 0 {
		t.Errorf("refused commits left announced %d, %d pending", s.AnnouncedVersion(), s.PendingApplies())
	}
}

func TestCommitLabeledAsyncBatchRange(t *testing.T) {
	s := openInstant(t)
	// A grouped remote batch covering versions (0,3], then a local
	// commit at (3,4].
	batch := mustBegin(t, s)
	batch.Update("t", "a", map[string][]byte{"v": []byte("batch")})
	done := make(chan PendingOutcome, 1)
	local := mustBegin(t, s)
	local.Update("t", "b", map[string][]byte{"v": []byte("local")})
	if err := local.CommitLabeledAsync(3, 4, func(oc PendingOutcome) { done <- oc }); err != nil {
		t.Fatal(err)
	}
	select {
	case oc := <-done:
		t.Fatalf("local commit resolved (%v) before the batch was announced", oc)
	default:
	}
	if _, ok := get(t, s, "t", "b", "v"); ok {
		t.Fatal("local commit visible before the batch was announced")
	}
	if err := batch.CommitLabeledAsync(0, 3, nil); err != nil {
		t.Fatal(err)
	}
	if oc := <-done; oc != PendingPublished {
		t.Fatalf("local commit resolved %v, want published", oc)
	}
	if s.AnnouncedVersion() != 4 {
		t.Errorf("AnnouncedVersion = %d, want 4", s.AnnouncedVersion())
	}
}

func TestSetAnnounced(t *testing.T) {
	s := openInstant(t)
	s.SetAnnounced(10)
	if s.AnnouncedVersion() != 10 {
		t.Errorf("AnnouncedVersion = %d", s.AnnouncedVersion())
	}
	s.SetAnnounced(5) // must not regress
	if s.AnnouncedVersion() != 10 {
		t.Error("SetAnnounced regressed")
	}
	tx := mustBegin(t, s)
	tx.Update("t", "k", map[string][]byte{"v": []byte{1}})
	var oc PendingOutcome
	if err := tx.CommitLabeledAsync(10, 11, func(o PendingOutcome) { oc = o }); err != nil {
		t.Fatalf("labeled commit after SetAnnounced: %v", err)
	}
	if oc != PendingPublished || s.AnnouncedVersion() != 11 {
		t.Errorf("labeled commit at its turn resolved %v, announced %d; want published at once, 11", oc, s.AnnouncedVersion())
	}
}

func TestFailNextCommitSoftRecoveryPath(t *testing.T) {
	s := openInstant(t)
	s.FailNextCommit(1)
	tx := mustBegin(t, s)
	tx.Update("t", "k", map[string][]byte{"v": []byte{1}})
	if err := tx.Commit(); !errors.Is(err, ErrCommitRejected) {
		t.Fatalf("err = %v, want ErrCommitRejected", err)
	}
	// Next commit succeeds.
	set(t, s, "t", "k", "v", "2")
	if v, _ := get(t, s, "t", "k", "v"); v != "2" {
		t.Errorf("after retry = %q", v)
	}
}

func TestCrashDoomsEverything(t *testing.T) {
	s := Open(Config{})
	set(t, s, "t", "k", "v", "1")
	tx, _ := s.Begin()
	tx.Update("t", "other", map[string][]byte{"v": []byte{1}})
	img, corrupt := s.Crash()
	if corrupt {
		t.Error("sync-WAL store should never corrupt")
	}
	if len(img) == 0 {
		t.Error("sync-WAL crash image empty")
	}
	if err := tx.Commit(); err == nil {
		t.Error("commit on crashed store succeeded")
	}
	if _, err := s.Begin(); !errors.Is(err, ErrCrashed) {
		t.Errorf("Begin after crash = %v", err)
	}
	// Crash is idempotent.
	img2, _ := s.Crash()
	if len(img2) != len(img) {
		t.Error("second Crash returned different image")
	}
}

func TestCrashCorruptionModes(t *testing.T) {
	// Paper §7.1 case 1: NoSync corrupts the data files after commits.
	s := Open(Config{WALMode: wal.NoSync})
	set(t, s, "t", "k", "v", "1")
	if _, corrupt := s.Crash(); !corrupt {
		t.Error("NoSync crash with commits should corrupt data files")
	}
	// No commits: nothing to corrupt.
	s2 := Open(Config{WALMode: wal.NoSync})
	if _, corrupt := s2.Crash(); corrupt {
		t.Error("crash with no commits should not corrupt")
	}
}

func TestRecoverFromWALRestoresState(t *testing.T) {
	s := Open(Config{})
	set(t, s, "t", "a", "v", "1")
	set(t, s, "t", "b", "v", "2")
	set(t, s, "t", "a", "v", "3")
	fp := s.Fingerprint()
	img, corrupt := s.Crash()
	if corrupt {
		t.Fatal("unexpected corruption")
	}
	r, info, err := RecoverFromWAL(Config{}, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.Records != 3 {
		t.Errorf("recovered %d records, want 3", info.Records)
	}
	if r.Fingerprint() != fp {
		t.Error("recovered state fingerprint differs")
	}
	if v, ok := func() (string, bool) {
		tx, _ := r.Begin()
		defer tx.Abort()
		v, ok, _ := tx.ReadCol("t", "a", "v")
		return string(v), ok
	}(); !ok || v != "3" {
		t.Errorf("recovered a = %q %v", v, ok)
	}
}

func TestRecoverNoSyncLosesCommits(t *testing.T) {
	s := Open(Config{WALMode: wal.NoSync})
	set(t, s, "t", "a", "v", "1")
	img, _ := s.Crash()
	r, info, err := RecoverFromWAL(Config{}, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.Records != 0 {
		t.Errorf("NoSync recovery found %d records, want 0 (durability was off)", info.Records)
	}
}

func TestRecoveryCoverageChain(t *testing.T) {
	s := Open(Config{})
	// Labeled records: (0,3], (3,4], then a gap (7,8]. Nothing announces
	// 7, so the gap record is logged directly, as a Tashkent-API run logs
	// ranges whose installers have not run yet.
	for _, r := range [][2]uint64{{0, 3}, {3, 4}} {
		tx, _ := s.Begin()
		tx.Update("t", fmt.Sprintf("k%d", r[1]), map[string][]byte{"v": []byte{1}})
		if err := tx.CommitLabeled(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	gap := &core.Writeset{}
	gap.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: "k8", Cols: []core.ColUpdate{{Col: "v", Value: []byte{1}}}})
	logged, err := s.LogCommitRecords([]CommitRecord{{From: 7, To: 8, WS: gap}})
	if err != nil {
		t.Fatal(err)
	}
	if err := logged(); err != nil {
		t.Fatal(err)
	}
	img, _ := s.Crash()
	r, info, err := RecoverFromWAL(Config{}, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.CoveredTo != 4 {
		t.Errorf("CoveredTo = %d, want 4 (record (7,8] is beyond the gap)", info.CoveredTo)
	}
	if info.Gaps != 1 {
		t.Errorf("Gaps = %d, want 1", info.Gaps)
	}
	if r.AnnouncedVersion() != 4 {
		t.Errorf("recovered announce semaphore = %d, want 4", r.AnnouncedVersion())
	}
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	s := openInstant(t)
	for i := 0; i < 50; i++ {
		set(t, s, "t", fmt.Sprintf("k%03d", i), "v", fmt.Sprintf("val%d", i))
	}
	set(t, s, "u", "only", "c", "x")
	tx := mustBegin(t, s)
	tx.Delete("t", "k010")
	tx.Commit()

	s.SetAnnounced(42) // the dump's label is the published version
	fp := s.Fingerprint()
	dump, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if cv, err := ValidateDump(dump); err != nil || cv != 42 {
		t.Fatalf("ValidateDump = %d, %v", cv, err)
	}
	r, covered, err := RestoreDump(Config{}, dump)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if covered != 42 {
		t.Errorf("covered = %d", covered)
	}
	if r.Fingerprint() != fp {
		t.Error("restored fingerprint differs")
	}
	if r.RowCount("t") != 49 {
		t.Errorf("restored t rows = %d, want 49", r.RowCount("t"))
	}
	if r.AnnouncedVersion() != 42 {
		t.Errorf("restored announce = %d, want 42", r.AnnouncedVersion())
	}
}

func TestDumpConsistentUnderConcurrentWrites(t *testing.T) {
	s := openInstant(t)
	for i := 0; i < 200; i++ {
		set(t, s, "t", fmt.Sprintf("k%03d", i), "v", "init")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			set(t, s, "t", fmt.Sprintf("k%03d", i%200), "v", "dirty")
			i++
		}
	}()
	dump, err := s.Dump()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateDump(dump); err != nil {
		t.Fatalf("dump taken under load is invalid: %v", err)
	}
	if _, _, err := RestoreDump(Config{}, dump); err != nil {
		t.Fatalf("restore of under-load dump: %v", err)
	}
}

func TestValidateDumpRejectsCorruption(t *testing.T) {
	s := openInstant(t)
	set(t, s, "t", "k", "v", "1")
	dump, _ := s.Dump()
	for _, cut := range []int{0, 1, len(dump) / 2, len(dump) - 1} {
		if _, err := ValidateDump(dump[:cut]); !errors.Is(err, ErrBadDump) {
			t.Errorf("truncated dump (%d bytes) accepted: %v", cut, err)
		}
	}
	bad := append([]byte(nil), dump...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := ValidateDump(bad); !errors.Is(err, ErrBadDump) {
		t.Errorf("corrupt dump accepted: %v", err)
	}
	if _, _, err := RestoreDump(Config{}, bad); !errors.Is(err, ErrBadDump) {
		t.Errorf("RestoreDump of corrupt dump: %v", err)
	}
}

// withCRC returns body with the dump checksum of body appended.
func withCRC(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

// TestRestoreDumpRefusesNonCanonical: a dump with a valid checksum is
// still refused when its tables, rows or columns are out of order, a
// table has no rows, or bytes follow the last table.
func TestRestoreDumpRefusesNonCanonical(t *testing.T) {
	head := append([]byte(dumpMagic), 0, 0, 0, 0, 0, 0, 0, 9)
	table := func(name string, rows ...[]byte) []byte {
		b := binary.BigEndian.AppendUint32(wire.AppendStr16(nil, name), uint32(len(rows)))
		return bytes.Join(append([][]byte{b}, rows...), nil)
	}
	row := func(key string, cols ...string) []byte {
		b := binary.BigEndian.AppendUint16(wire.AppendStr16(nil, key), uint16(len(cols)))
		for _, c := range cols {
			b = wire.AppendBytes32(wire.AppendStr16(b, c), []byte("v"))
		}
		return b
	}
	dump := func(tables ...[]byte) []byte {
		b := binary.BigEndian.AppendUint32(append([]byte(nil), head...), uint32(len(tables)))
		return withCRC(bytes.Join(append([][]byte{b}, tables...), nil))
	}
	good := dump(table("a", row("k", "c", "d"), row("l")), table("b", row("k")))
	s, covered, err := RestoreDump(Config{}, good)
	if err != nil || covered != 9 {
		t.Fatalf("canonical dump: version %d, %v", covered, err)
	}
	s.Close()
	for name, bad := range map[string][]byte{
		"tables out of order":  dump(table("b", row("k")), table("a", row("k"))),
		"duplicate table":      dump(table("a", row("k")), table("a", row("l"))),
		"rows out of order":    dump(table("a", row("l"), row("k"))),
		"columns out of order": dump(table("a", row("k", "d", "c"))),
		"duplicate column":     dump(table("a", row("k", "c", "c"))),
		"table without rows":   dump(table("a")),
		"trailing bytes":       withCRC(append(good[:len(good)-4:len(good)-4], 0)),
	} {
		if _, _, err := RestoreDump(Config{}, bad); !errors.Is(err, ErrBadDump) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzRestoreDump: RestoreDump never panics on a dump, its checksum
// fixed up or not, and a store it restores dumps to the same bytes.
func FuzzRestoreDump(f *testing.F) {
	_, dump := goldenDump(f)
	body := dump[:len(dump)-4]
	f.Add(dump, false)
	f.Add(body[:len(body)-1], true)
	f.Add(append(body[:len(body):len(body)], 0), true)
	f.Add(body[:16], true)
	f.Add(withCRC(append(body[:16:16], 0xFF, 0xFF, 0xFF, 0xFF)), false) // 2^32-1 tables, none present
	f.Fuzz(func(t *testing.T, dump []byte, fixCRC bool) {
		if fixCRC {
			dump = withCRC(dump)
		}
		s, _, err := RestoreDump(Config{}, dump)
		if err != nil {
			return
		}
		defer s.Close()
		again, err := s.Dump()
		if err != nil || !bytes.Equal(again, dump) {
			t.Fatalf("restored store dumps to other bytes (%v):\n%x\n%x", err, again, dump)
		}
	})
}

func TestCommitRecordRoundTrip(t *testing.T) {
	ws := &core.Writeset{Ops: []core.WriteOp{{Kind: core.OpUpdate, Table: "t", Key: "k",
		Cols: []core.ColUpdate{{Col: "v", Value: []byte("x")}}}}}
	rec := encodeCommitRecord(3, 7, ws)
	got, err := DecodeCommitRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 3 || got.To != 7 || !got.WS.Intersects(ws) {
		t.Errorf("decoded = %+v", got)
	}
	if _, err := DecodeCommitRecord(rec[:10]); err == nil {
		t.Error("short record accepted")
	}
}

func TestApplyWritesetReplaysOps(t *testing.T) {
	s := openInstant(t)
	ws := &core.Writeset{Ops: []core.WriteOp{
		{Kind: core.OpInsert, Table: "t", Key: "a", Cols: []core.ColUpdate{{Col: "v", Value: []byte("1")}}},
		{Kind: core.OpUpdate, Table: "t", Key: "a", Cols: []core.ColUpdate{{Col: "v", Value: []byte("2")}}},
	}}
	tx := mustBegin(t, s)
	if err := tx.ApplyWriteset(ws); err != nil {
		t.Fatal(err)
	}
	if err := tx.ApplyWriteset(nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := get(t, s, "t", "a", "v"); v != "2" {
		t.Errorf("applied value = %q", v)
	}
}

// TestUpdateAfterDeleteStartsFromEmptyRow: a transaction that deletes a
// row and then updates it writes a row holding only the updated
// columns. The transaction's own read, the committed row, a replay of
// its writeset on a second store and a recovery from its log must all
// agree; when the update merged over the pre-delete version, the first
// two kept the deleted columns that replay and recovery drop, and a
// recovered replica diverged from its live peers.
func TestUpdateAfterDeleteStartsFromEmptyRow(t *testing.T) {
	s := Open(Config{})
	first := mustBegin(t, s)
	if err := first.Insert("t", "k", map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	firstWS := first.Writeset().Clone()
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := mustBegin(t, s)
	if err := tx.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", "k", map[string][]byte{"a": []byte("9")}); err != nil {
		t.Fatal(err)
	}
	ws := tx.Writeset().Clone()
	readRow := func(s *Store) map[string][]byte {
		t.Helper()
		r := mustBegin(t, s)
		defer r.Abort()
		cols, _, err := r.Read("t", "k")
		if err != nil {
			t.Fatal(err)
		}
		return cols
	}
	own, _, err := tx.Read("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	committed := readRow(s)

	replayed := openInstant(t)
	for _, w := range []*core.Writeset{firstWS, ws} {
		rtx := mustBegin(t, replayed)
		if err := rtx.ApplyWriteset(w); err != nil {
			t.Fatal(err)
		}
		if err := rtx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	img, _ := s.Crash()
	recovered, _, err := RecoverFromWAL(Config{}, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	want := map[string][]byte{"a": []byte("9")}
	for _, got := range []struct {
		name string
		cols map[string][]byte
	}{
		{"own read", own},
		{"committed read", committed},
		{"replayed writeset", readRow(replayed)},
		{"recovered from the log", readRow(recovered)},
	} {
		if !reflect.DeepEqual(got.cols, want) {
			t.Errorf("%s: row %q, want %q", got.name, got.cols, want)
		}
	}
}

func TestConcurrentDisjointWritersScale(t *testing.T) {
	s := openInstant(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx, err := s.Begin()
				if err != nil {
					errs <- err
					return
				}
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := tx.Update("t", key, map[string][]byte{"v": []byte{byte(i)}}); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Stats().Commits; got != 400 {
		t.Errorf("Commits = %d, want 400", got)
	}
	if s.ActiveTxns() != 0 {
		t.Errorf("ActiveTxns = %d after all done", s.ActiveTxns())
	}
}

func TestPageMissChargesDataDisk(t *testing.T) {
	dd := simdisk.New(simdisk.Instant(), 1)
	s := Open(Config{DataDisk: dd, PageMissEvery: 2})
	defer s.Close()
	set(t, s, "t", "k", "v", "1")
	for i := 0; i < 10; i++ {
		get(t, s, "t", "k", "v")
	}
	if dd.Stats().PageOps < 4 {
		t.Errorf("PageOps = %d, want >= 4 with PageMissEvery=2", dd.Stats().PageOps)
	}
}

func TestCheckpointChargesDataDisk(t *testing.T) {
	dd := simdisk.New(simdisk.Instant(), 1)
	s := Open(Config{DataDisk: dd, CheckpointEvery: 1})
	defer s.Close()
	for i := 0; i < 10; i++ {
		set(t, s, "t", fmt.Sprintf("k%d", i), "v", "1")
	}
	deadline := time.After(time.Second)
	for dd.Stats().PageOps < 10 {
		select {
		case <-deadline:
			t.Fatalf("PageOps = %d, want >= 10 (checkpointer is async)", dd.Stats().PageOps)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestCommitLabeledSuperseded: a labeled commit whose range the store has
// already announced past — a catch-up carried the state beyond it —
// finishes as committed without touching the log or the rows, and its
// locks release as a commit's, so a competitor that ran concurrently
// still loses first-committer-wins.
func TestCommitLabeledSuperseded(t *testing.T) {
	s := Open(Config{})
	set(t, s, "t", "k", "v", "old")
	rival := mustBegin(t, s) // its snapshot predates the state announced below
	set(t, s, "t", "other", "v", "x")
	s.SetAnnounced(5)
	before := s.Stats().SupersededCommits

	tx := mustBegin(t, s)
	if err := tx.Update("t", "k", map[string][]byte{"v": []byte("stale")}); err != nil {
		t.Fatal(err)
	}
	rivalErr := make(chan error, 1)
	go func() { rivalErr <- rival.Update("t", "k", map[string][]byte{"v": []byte("rival")}) }()
	item := core.ItemID{Table: "t", Key: "k"}
	st := s.lockStripeOf(item)
	for queued := 0; queued < 1; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		if ls := st.locks[item]; ls != nil {
			queued = len(ls.waiters)
		}
		st.mu.Unlock()
	}
	if err := tx.CommitLabeled(3, 4); err != nil {
		t.Fatalf("superseded CommitLabeled: %v", err)
	}
	if err := <-rivalErr; !errors.Is(err, ErrWriteConflict) {
		t.Errorf("competitor blocked behind the superseded commit: %v, want ErrWriteConflict", err)
	}
	rival.Abort()
	if v, _ := get(t, s, "t", "k", "v"); v != "old" {
		t.Errorf("row after the superseded commit = %q, want old", v)
	}
	if got := s.Stats().SupersededCommits - before; got != 1 {
		t.Errorf("SupersededCommits rose by %d, want 1", got)
	}
	img, _ := s.Crash()
	r, info, err := RecoverFromWAL(Config{}, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.Records != 2 {
		t.Errorf("crash image replays %d records, want the 2 unlabeled commits", info.Records)
	}

	// A store shut down under an open transaction refuses its commit.
	s2 := Open(Config{})
	tx2 := mustBegin(t, s2)
	if err := tx2.Update("t", "k", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := tx2.CommitLabeled(0, 1); !errors.Is(err, ErrCrashed) {
		t.Errorf("CommitLabeled on a closed store: %v, want ErrCrashed", err)
	}
}
