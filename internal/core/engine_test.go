package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCertifyCommitAssignsDenseVersions(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 10; i++ {
		v, d := e.Certify(e.SystemVersion(), wsOf(string(rune('a'+i))), 0)
		if d != Commit {
			t.Fatalf("tx %d: decision %v, want commit", i, d)
		}
		if v != Version(i) {
			t.Fatalf("tx %d: version %d, want %d", i, v, i)
		}
	}
	if e.SystemVersion() != 10 {
		t.Errorf("system version %d, want 10", e.SystemVersion())
	}
}

func TestCertifyDetectsConflict(t *testing.T) {
	e := NewEngine()
	// T1 commits x at version 1.
	if _, d := e.Certify(0, wsOf("x"), 0); d != Commit {
		t.Fatal("first writer should commit")
	}
	// T2 also started at version 0 and writes x: concurrent conflict.
	if _, d := e.Certify(0, wsOf("x", "y"), 0); d != Abort {
		t.Error("concurrent write-write conflict must abort")
	}
	// T3 starts at version 1 (after T1 committed): no conflict.
	if _, d := e.Certify(1, wsOf("x"), 0); d != Commit {
		t.Error("serial re-write of x must commit")
	}
}

func TestCertifyDisjointConcurrentCommit(t *testing.T) {
	e := NewEngine()
	if _, d := e.Certify(0, wsOf("a"), 0); d != Commit {
		t.Fatal("a")
	}
	if _, d := e.Certify(0, wsOf("b"), 0); d != Commit {
		t.Fatal("disjoint concurrent writesets must both commit")
	}
}

func TestCertifyEmptyWritesetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Certify with empty writeset should panic")
		}
	}()
	NewEngine().Certify(0, &Writeset{}, 0)
}

// TestQuickGSISafety is the core safety property: for any interleaving,
// a committed writeset never intersects another writeset committed
// between its start version and its commit version.
func TestQuickGSISafety(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type committed struct {
			start, commit Version
			ws            *Writeset
		}
		var history []committed
		keys := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < 60; i++ {
			// Random start version at or before current system version.
			start := Version(r.Intn(int(e.SystemVersion()) + 1))
			ws := &Writeset{}
			for _, k := range keys {
				if r.Intn(4) == 0 {
					ws.Add(WriteOp{Kind: OpUpdate, Table: "t", Key: k})
				}
			}
			if ws.Empty() {
				continue
			}
			v, d := e.Certify(start, ws, 0)
			if d == Commit {
				history = append(history, committed{start, v, ws})
			}
		}
		// Check pairwise: no committed tx intersects a tx committed in
		// its (start, commit) window.
		for i := range history {
			for j := range history {
				if i == j {
					continue
				}
				a, b := history[i], history[j]
				if b.commit > a.start && b.commit < a.commit && a.ws.Intersects(b.ws) {
					return false
				}
			}
		}
		// Versions dense and unique.
		for i := range history {
			if i > 0 && history[i].commit <= history[i-1].commit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecisionString(t *testing.T) {
	if Commit.String() != "commit" || Abort.String() != "abort" {
		t.Error("Decision.String mismatch")
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision should still render")
	}
}

func BenchmarkCertifyNoConflict(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := &Writeset{Ops: []WriteOp{{Kind: OpUpdate, Table: "t", Key: string(rune(i))}}}
		e.Certify(e.SystemVersion(), ws, 0)
	}
}

// TestEngineMarkerPublishesAtItsVersion pins the writer index's
// semantics: the last writer of an item decides, a prepare locks its
// items against every snapshot, a commit marker publishes them at its
// own version, and an abort marker publishes nothing.
func TestEngineMarkerPublishesAtItsVersion(t *testing.T) {
	e := NewEngine()
	for _, k := range []string{"x", "y", "x"} {
		if _, d := e.Certify(e.SystemVersion(), wsOf(k), 1); d != Commit {
			t.Fatalf("write of %s refused", k)
		}
	}
	if !e.Conflicts(2, wsOf("x")) {
		t.Error("start 2 must conflict with x's last write at 3")
	}
	if e.Conflicts(3, wsOf("x")) {
		t.Error("start 3 must not conflict: x's last write is 3")
	}
	if !e.Conflicts(1, wsOf("y")) || e.Conflicts(2, wsOf("y")) {
		t.Error("y was written at 2 only")
	}

	add := func(entry LogEntry) Version {
		t.Helper()
		entry.Version = e.SystemVersion() + 1
		if err := e.Append(entry); err != nil {
			t.Fatal(err)
		}
		return entry.Version
	}
	p := add(LogEntry{Kind: KindPrepare, GID: 7, WS: wsOf("a", "b"), Start: 3, Origin: 1, Involved: []int{0, 1}})
	for _, start := range []Version{0, p, p + 5} {
		if !e.Conflicts(start, wsOf("a")) || !e.Conflicts(start, wsOf("b")) {
			t.Errorf("start %d: prepared items must be locked", start)
		}
	}
	if e.Conflicts(p, wsOf("c")) {
		t.Error("an item the prepare does not hold is free")
	}
	add(LogEntry{Kind: KindData, WS: wsOf("c"), Start: p, Origin: 2})
	m := add(LogEntry{Kind: KindCommitMarker, GID: 7})
	for start := p; start < m; start++ {
		if !e.Conflicts(start, wsOf("a")) || !e.Conflicts(start, wsOf("b")) {
			t.Errorf("start %d before the marker at %d must conflict", start, m)
		}
	}
	if e.Conflicts(m, wsOf("a", "b")) || e.Conflicts(m+1, wsOf("b")) {
		t.Errorf("a start at or after the marker at %d must not conflict", m)
	}

	q := add(LogEntry{Kind: KindPrepare, GID: 8, WS: wsOf("d"), Start: m, Origin: 1, Involved: []int{0, 1}})
	if !e.Conflicts(q, wsOf("d")) {
		t.Error("second prepare must lock d")
	}
	add(LogEntry{Kind: KindAbortMarker, GID: 8})
	for _, start := range []Version{0, q} {
		if e.Conflicts(start, wsOf("d")) {
			t.Errorf("start %d: an aborted prepare publishes nothing", start)
		}
	}
}
