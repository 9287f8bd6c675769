package mvstore

// Fuzz coverage for the lock-striped engine: a randomized interleaved
// workload runs against both the striped store and a single-lock
// reference model of snapshot isolation, comparing every read, every
// commit outcome and the final state; and a concurrent invariant test
// hammers cross-shard commits while readers check for torn commits and
// snapshot instability. The concurrent test is most valuable under
// `go test -race`, which CI runs.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/core"
)

// --- single-lock reference model ---

// modelVersion mirrors rowVersion.
type modelVersion struct {
	seq     uint64
	deleted bool
	cols    map[string][]byte
}

// modelStore is a deliberately naive single-mutex snapshot-isolation
// engine: one lock, no striping, no publication protocol, no version
// GC. It defines the semantics the striped engine must reproduce.
type modelStore struct {
	mu     sync.Mutex
	seq    uint64
	tables map[string]map[string][]modelVersion
	locks  map[core.ItemID]uint64
	nextID uint64
}

type modelTx struct {
	m        *modelStore
	id       uint64
	snapshot uint64
	writes   map[core.ItemID]*pendingWrite
	held     []core.ItemID
}

func newModel() *modelStore {
	return &modelStore{
		tables: make(map[string]map[string][]modelVersion),
		locks:  make(map[core.ItemID]uint64),
	}
}

func (m *modelStore) begin() *modelTx {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	return &modelTx{
		m:        m,
		id:       m.nextID,
		snapshot: m.seq,
		writes:   make(map[core.ItemID]*pendingWrite),
	}
}

func (m *modelStore) visible(table, key string, snapshot uint64) (map[string][]byte, bool) {
	versions := m.tables[table][key]
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i].seq <= snapshot {
			if versions[i].deleted {
				return nil, false
			}
			return versions[i].cols, true
		}
	}
	return nil, false
}

func (t *modelTx) read(table, key string) (map[string][]byte, bool) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	item := core.ItemID{Table: table, Key: key}
	if pw, ok := t.writes[item]; ok {
		if pw.deleted {
			return nil, false
		}
		out := map[string][]byte{}
		if pw.kind == core.OpUpdate {
			if cols, ok := t.m.visible(table, key, t.snapshot); ok {
				for c, v := range cols {
					out[c] = v
				}
			}
		}
		for c, v := range pw.cols {
			out[c] = v
		}
		return out, true
	}
	return t.m.visible(table, key, t.snapshot)
}

// lockedByOther reports whether another transaction holds the write
// lock (the interleaving driver never issues a blocking write).
func (t *modelTx) lockedByOther(table, key string) bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	holder, ok := t.m.locks[core.ItemID{Table: table, Key: key}]
	return ok && holder != t.id
}

func (t *modelTx) write(op core.WriteOp) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	item := op.Item()
	if _, ok := t.m.locks[item]; !ok {
		t.m.locks[item] = t.id
		t.held = append(t.held, item)
	}
	pw := t.writes[item]
	if pw == nil {
		pw = &pendingWrite{cols: map[string][]byte{}}
		t.writes[item] = pw
	}
	switch op.Kind {
	case core.OpInsert:
		pw.kind = core.OpInsert
		pw.deleted = false
		pw.cols = map[string][]byte{}
	case core.OpUpdate:
		if pw.kind == core.OpDelete {
			pw.kind = core.OpInsert // an update of a deleted row starts empty
		} else if pw.kind != core.OpInsert {
			pw.kind = core.OpUpdate
		}
		pw.deleted = false
	case core.OpDelete:
		pw.kind = core.OpDelete
		pw.deleted = true
		pw.cols = map[string][]byte{}
	}
	for _, c := range op.Cols {
		pw.cols[c.Col] = append([]byte(nil), c.Value...)
	}
}

func (t *modelTx) finish(commit bool) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if commit && len(t.writes) > 0 {
		t.m.seq++
		for item, pw := range t.writes {
			tab := t.m.tables[item.Table]
			if tab == nil {
				tab = make(map[string][]modelVersion)
				t.m.tables[item.Table] = tab
			}
			mv := modelVersion{seq: t.m.seq, deleted: pw.deleted}
			if !pw.deleted {
				base := map[string][]byte{}
				if pw.kind == core.OpUpdate {
					if prev, ok := t.m.visible(item.Table, item.Key, t.m.seq-1); ok {
						for c, v := range prev {
							base[c] = v
						}
					}
				}
				for c, v := range pw.cols {
					base[c] = v
				}
				mv.cols = base
			}
			tab[item.Key] = append(tab[item.Key], mv)
		}
	}
	for _, item := range t.held {
		if t.m.locks[item] == t.id {
			delete(t.m.locks, item)
		}
	}
	t.held = nil
}

// --- interleaved equivalence fuzz ---

func colsEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for c, v := range a {
		if !bytes.Equal(v, b[c]) {
			return false
		}
	}
	return true
}

// TestStripedMatchesSingleLockModel drives a randomized interleaving
// of many open transactions through the striped engine and the
// single-lock model in lockstep, comparing every read result, every
// commit outcome, and the final visible state. Low stripe counts force
// heavy cross-transaction sharing of shards; the default count checks
// the production layout.
func TestStripedMatchesSingleLockModel(t *testing.T) {
	tables := []string{"alpha", "beta"}
	colNames := []string{"a", "b", "c"}
	for _, stripes := range []int{1, 2, 0} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("stripes=%d/seed=%d", stripes, seed), func(t *testing.T) {
				s := Open(Config{Stripes: stripes})
				defer s.Close()
				m := newModel()
				r := rand.New(rand.NewSource(seed))

				type pair struct {
					st *Tx
					mt *modelTx
				}
				var open []pair
				beginPair := func() pair {
					st, err := s.Begin()
					if err != nil {
						t.Fatalf("Begin: %v", err)
					}
					return pair{st: st, mt: m.begin()}
				}
				randKey := func() (string, string) {
					return tables[r.Intn(len(tables))], fmt.Sprintf("k%02d", r.Intn(60))
				}
				checkRead := func(p pair, table, key string) {
					got, gotOK, err := p.st.Read(table, key)
					if err != nil {
						t.Fatalf("Read(%s,%s): %v", table, key, err)
					}
					want, wantOK := p.mt.read(table, key)
					if gotOK != wantOK || (gotOK && !colsEqual(got, want)) {
						t.Fatalf("Read(%s,%s) diverged: striped (%v,%v) model (%v,%v)",
							table, key, got, gotOK, want, wantOK)
					}
				}

				const ops = 3000
				for i := 0; i < ops; i++ {
					if len(open) == 0 || (len(open) < 6 && r.Intn(10) == 0) {
						open = append(open, beginPair())
						continue
					}
					pi := r.Intn(len(open))
					p := open[pi]
					switch c := r.Intn(100); {
					case c < 45: // read
						table, key := randKey()
						checkRead(p, table, key)
					case c < 75: // write (never one that would block)
						table, key := randKey()
						if p.mt.lockedByOther(table, key) {
							continue
						}
						kind := []core.OpKind{core.OpInsert, core.OpUpdate, core.OpDelete}[r.Intn(3)]
						op := core.WriteOp{Kind: kind, Table: table, Key: key}
						if kind != core.OpDelete {
							op.Cols = []core.ColUpdate{{
								Col:   colNames[r.Intn(len(colNames))],
								Value: []byte(fmt.Sprintf("v%d", r.Intn(1000))),
							}}
						}
						if err := p.st.write(op); err != nil {
							t.Fatalf("write %v on (%s,%s): %v", kind, table, key, err)
						}
						p.mt.write(op)
					case c < 90: // commit
						if err := p.st.Commit(); err != nil {
							t.Fatalf("Commit: %v", err)
						}
						p.mt.finish(true)
						open = append(open[:pi], open[pi+1:]...)
					default: // abort
						if err := p.st.Abort(); err != nil {
							t.Fatalf("Abort: %v", err)
						}
						p.mt.finish(false)
						open = append(open[:pi], open[pi+1:]...)
					}
				}
				for _, p := range open {
					if err := p.st.Abort(); err != nil {
						t.Fatalf("final Abort: %v", err)
					}
					p.mt.finish(false)
				}
				// Final state: every key of the universe must agree.
				final := beginPair()
				for _, table := range tables {
					for k := 0; k < 60; k++ {
						checkRead(final, table, fmt.Sprintf("k%02d", k))
					}
				}
				final.st.Abort()
				final.mt.finish(false)
			})
		}
	}
}

// --- concurrent invariants ---

// TestStripedConcurrentInvariants runs cross-shard update transactions
// against concurrent snapshot readers and checks the two invariants
// the commit-publication protocol must provide: a reader never sees a
// torn commit (the two halves of a pair are updated atomically, in
// different shards), and repeated reads within one transaction are
// stable. Run under -race in CI.
func TestStripedConcurrentInvariants(t *testing.T) {
	s := Open(Config{Stripes: 4, LockTimeout: 5 * time.Second})
	defer s.Close()

	const pairs = 8
	left := func(p int) string { return fmt.Sprintf("L%02d", p) }
	right := func(p int) string { return fmt.Sprintf("R%02d", p) }

	setup, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pairs; p++ {
		v := map[string][]byte{"v": []byte(fmt.Sprintf("%016d", 0))}
		if err := setup.Insert("pa", left(p), v); err != nil {
			t.Fatal(err)
		}
		if err := setup.Insert("pb", right(p), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	var (
		stamp     atomic.Int64
		logMu     sync.Mutex
		committed = make([]map[string]struct{}, pairs) // pair → set of committed values
		writerErr atomic.Value
		done      = make(chan struct{})
	)
	for p := range committed {
		committed[p] = map[string]struct{}{fmt.Sprintf("%016d", 0): {}}
	}
	fail := func(format string, args ...interface{}) {
		writerErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}

	const writers, commitsPerWriter = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for n := 0; n < commitsPerWriter; {
				p := r.Intn(pairs)
				val := fmt.Sprintf("%016d", stamp.Add(1))
				cols := map[string][]byte{"v": []byte(val)}
				tx, err := s.Begin()
				if err != nil {
					fail("writer Begin: %v", err)
					return
				}
				err = tx.Update("pa", left(p), cols)
				if err == nil {
					err = tx.Update("pb", right(p), cols)
				}
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Abort()
				}
				switch {
				case err == nil:
					logMu.Lock()
					committed[p][val] = struct{}{}
					logMu.Unlock()
					n++
				case IsRetryable(err):
					// first-committer-wins abort; try again
				default:
					fail("writer commit: %v", err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	readPair := func(tx *Tx, p int) (string, string) {
		lv, ok1, err1 := tx.ReadCol("pa", left(p), "v")
		rv, ok2, err2 := tx.ReadCol("pb", right(p), "v")
		if err1 != nil || err2 != nil || !ok1 || !ok2 {
			t.Errorf("reader pair %d: (%v,%v,%v,%v)", p, ok1, err1, ok2, err2)
			return "", ""
		}
		return string(lv), string(rv)
	}
	var rwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			r := rand.New(rand.NewSource(int64(200 + g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				tx, err := s.Begin()
				if err != nil {
					t.Errorf("reader Begin: %v", err)
					return
				}
				p := r.Intn(pairs)
				l1, r1 := readPair(tx, p)
				if l1 != r1 {
					t.Errorf("torn commit visible: pair %d read %q / %q", p, l1, r1)
				}
				// Snapshot stability: the same reads later in the same
				// transaction, with commits racing in between.
				l2, r2 := readPair(tx, p)
				if l1 != l2 || r1 != r2 {
					t.Errorf("snapshot moved: pair %d first (%q,%q) then (%q,%q)", p, l1, r1, l2, r2)
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("reader Commit: %v", err)
					return
				}
			}
		}(g)
	}
	<-done
	rwg.Wait()
	if msg := writerErr.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Final state: each pair's halves agree and hold a value some
	// writer actually committed.
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	for p := 0; p < pairs; p++ {
		lv, rv := readPair(tx, p)
		if lv != rv {
			t.Fatalf("final state torn: pair %d %q / %q", p, lv, rv)
		}
		logMu.Lock()
		_, ok := committed[p][lv]
		logMu.Unlock()
		if !ok {
			t.Fatalf("final value of pair %d (%q) was never committed", p, lv)
		}
	}
	if got, want := s.Stats().Commits, int64(1+writers*commitsPerWriter); got != want {
		t.Fatalf("commit count %d, want %d", got, want)
	}
	if s.Fingerprint() != s.Fingerprint() {
		t.Fatal("Fingerprint not deterministic")
	}
}

// IsRetryable reports the benign SI abort classes a closed-loop
// client retries (mirrors workload.IsAbort without the import cycle).
func IsRetryable(err error) bool {
	return errors.Is(err, ErrWriteConflict) || errors.Is(err, ErrDeadlock) || errors.Is(err, ErrLockTimeout)
}
