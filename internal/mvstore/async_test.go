package mvstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collectOutcomes builds a callback factory that records (tag, outcome)
// pairs in arrival order.
type outcomeLog struct {
	mu  sync.Mutex
	got []string
}

func (l *outcomeLog) cb(tag string) func(PendingOutcome) {
	return func(oc PendingOutcome) {
		l.mu.Lock()
		l.got = append(l.got, fmt.Sprintf("%s:%d", tag, oc))
		l.mu.Unlock()
	}
}

func (l *outcomeLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.got...)
}

func asyncUpdate(t *testing.T, s *Store, key string, from, to uint64, cb func(PendingOutcome)) {
	t.Helper()
	tx := mustBegin(t, s)
	if err := tx.Update("t", key, map[string][]byte{"v": []byte(fmt.Sprintf("%d", to))}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := tx.CommitLabeledAsync(from, to, cb); err != nil {
		t.Fatalf("CommitLabeledAsync(%d,%d): %v", from, to, err)
	}
}

func TestCommitLabeledAsyncDefersAndPublishesInOrder(t *testing.T) {
	s := openInstant(t)
	var log outcomeLog

	// Install versions 2 and 3 first: both stay pending (announce
	// cursor is 0) and invisible to every snapshot.
	asyncUpdate(t, s, "k2", 1, 2, log.cb("k2"))
	asyncUpdate(t, s, "k3", 2, 3, log.cb("k3"))
	if got := s.PendingApplies(); got != 2 {
		t.Fatalf("PendingApplies = %d, want 2", got)
	}
	if s.AnnouncedVersion() != 0 {
		t.Fatalf("AnnouncedVersion = %d before the cascade", s.AnnouncedVersion())
	}
	if _, ok := get(t, s, "t", "k2", "v"); ok {
		t.Fatal("installed-but-unpublished version is visible")
	}

	// Version 1 releases the cascade: all three publish, in order.
	asyncUpdate(t, s, "k1", 0, 1, log.cb("k1"))
	if err := s.WaitAnnounced(3, time.Second); err != nil {
		t.Fatalf("WaitAnnounced(3): %v", err)
	}
	want := []string{
		fmt.Sprintf("k1:%d", PendingPublished),
		fmt.Sprintf("k2:%d", PendingPublished),
		fmt.Sprintf("k3:%d", PendingPublished),
	}
	got := log.snapshot()
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("outcomes = %v, want %v", got, want)
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if v, ok := get(t, s, "t", k, "v"); !ok || v == "" {
			t.Errorf("%s not visible after publication (%q, %v)", k, v, ok)
		}
	}
	if got := s.PendingApplies(); got != 0 {
		t.Errorf("PendingApplies = %d after cascade", got)
	}
}

func TestCommitLabeledAsyncSuperseded(t *testing.T) {
	s := openInstant(t)
	var log outcomeLog
	s.SetAnnounced(5)

	// Pre-WAL supersede: the range is already covered at call time.
	asyncUpdate(t, s, "pre", 1, 2, log.cb("pre"))
	if got := log.snapshot(); len(got) != 1 || got[0] != fmt.Sprintf("pre:%d", PendingSuperseded) {
		t.Fatalf("pre-WAL outcomes = %v", got)
	}
	if _, ok := get(t, s, "t", "pre", "v"); ok {
		t.Fatal("superseded commit left visible state")
	}

	// In-pendency supersede: installed at (7,8], then a catch-up
	// announce jumps past it.
	asyncUpdate(t, s, "mid", 7, 8, log.cb("mid"))
	s.SetAnnounced(10)
	if got := log.snapshot(); len(got) != 2 || got[1] != fmt.Sprintf("mid:%d", PendingSuperseded) {
		t.Fatalf("in-pendency outcomes = %v", got)
	}
	if _, ok := get(t, s, "t", "mid", "v"); ok {
		t.Fatal("discarded provisional version is visible")
	}
	if got := s.PendingApplies(); got != 0 {
		t.Errorf("PendingApplies = %d", got)
	}
}

func TestCommitLabeledAsyncHoldsLocksUntilPublication(t *testing.T) {
	s := Open(Config{LockTimeout: 40 * time.Millisecond})
	t.Cleanup(s.Close)
	var log outcomeLog

	// Pending at (4,5]: its row lock must stay held while unpublished
	// (first-committer-wins against local transactions).
	asyncUpdate(t, s, "kl", 4, 5, log.cb("kl"))
	ltx := mustBegin(t, s)
	if err := ltx.Update("t", "kl", map[string][]byte{"v": []byte("local")}); err == nil {
		t.Fatal("local update acquired a lock held by a pending commit")
	}
	ltx.Abort()

	// Publication releases the lock.
	s.SetAnnounced(4)
	if err := s.WaitAnnounced(5, time.Second); err != nil {
		t.Fatalf("WaitAnnounced(5): %v", err)
	}
	if got := log.snapshot(); len(got) != 1 || got[0] != fmt.Sprintf("kl:%d", PendingPublished) {
		t.Fatalf("outcomes = %v", got)
	}
	if v, ok := get(t, s, "t", "kl", "v"); !ok || v != "5" {
		t.Fatalf("published value = %q, %v", v, ok)
	}
	set(t, s, "t", "kl", "v", "after") // lock is free again
}

func TestAsyncCrashSweepsPendings(t *testing.T) {
	s := Open(Config{})
	var log outcomeLog
	asyncUpdate(t, s, "kx", 4, 5, log.cb("kx"))
	s.Crash()
	if got := log.snapshot(); len(got) != 1 || got[0] != fmt.Sprintf("kx:%d", PendingCrashed) {
		t.Fatalf("outcomes after crash = %v", got)
	}
	// New registrations against the dead store must refuse.
	if err := s.AnnounceAsync(9, 10, log.cb("dead")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("AnnounceAsync on crashed store: %v", err)
	}
}

func TestAnnounceAsync(t *testing.T) {
	s := openInstant(t)
	var log outcomeLog
	if err := s.AnnounceAsync(3, 3, nil); err == nil {
		t.Fatal("empty range accepted")
	}
	// Hollow (2,4] waits for the cursor to reach 2.
	if err := s.AnnounceAsync(2, 4, log.cb("hi")); err != nil {
		t.Fatal(err)
	}
	if s.AnnouncedVersion() != 0 {
		t.Fatalf("AnnouncedVersion = %d", s.AnnouncedVersion())
	}
	// Hollow (0,2] is ready and cascades into it.
	if err := s.AnnounceAsync(0, 2, log.cb("lo")); err != nil {
		t.Fatal(err)
	}
	if s.AnnouncedVersion() != 4 {
		t.Fatalf("AnnouncedVersion = %d, want 4", s.AnnouncedVersion())
	}
	got := log.snapshot()
	if len(got) != 2 || got[0] != fmt.Sprintf("lo:%d", PendingPublished) ||
		got[1] != fmt.Sprintf("hi:%d", PendingPublished) {
		t.Fatalf("outcomes = %v", got)
	}
}

func TestAsyncMixedWithSyncCommitLabeled(t *testing.T) {
	// Deferred-publication commits interleave with waited-on
	// CommitLabeled commits on the same announce chain: a CommitLabeled
	// advance must release pendings queued behind it, and vice versa.
	s := openInstant(t)
	var log outcomeLog

	asyncUpdate(t, s, "a2", 1, 2, log.cb("a2")) // pending behind v1
	tx := mustBegin(t, s)
	if err := tx.Update("t", "s1", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitLabeled(0, 1); err != nil { // sync v1 releases a2
		t.Fatalf("CommitLabeled: %v", err)
	}
	if err := s.WaitAnnounced(2, time.Second); err != nil {
		t.Fatalf("WaitAnnounced(2): %v", err)
	}

	// And a sync commit after a pending publishes on top of it.
	asyncUpdate(t, s, "a3", 2, 3, log.cb("a3"))
	if err := s.WaitAnnounced(3, time.Second); err != nil {
		t.Fatalf("WaitAnnounced(3): %v", err)
	}
	tx2 := mustBegin(t, s)
	if err := tx2.Update("t", "s4", map[string][]byte{"v": []byte("4")}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.CommitLabeled(3, 4); err != nil {
		t.Fatalf("sync commit behind published pending: %v", err)
	}
	if s.AnnouncedVersion() != 4 {
		t.Errorf("AnnouncedVersion = %d, want 4", s.AnnouncedVersion())
	}
	for _, k := range []string{"s1", "a2", "a3", "s4"} {
		if _, ok := get(t, s, "t", k, "v"); !ok {
			t.Errorf("%s missing after mixed chain", k)
		}
	}
}
