package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/mvstore"
)

func standaloneBegin(s *mvstore.Store) BeginFunc {
	return Plain(func() (PlainTx, error) { return s.Begin() })
}

func TestAllUpdatesWritesetSize(t *testing.T) {
	size, err := WritesetSize(&AllUpdates{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: average 54 bytes.
	if size < 50 || size > 58 {
		t.Errorf("AllUpdates writeset = %.1f bytes, want ~54", size)
	}
}

func TestTPCBWritesetSize(t *testing.T) {
	size, err := WritesetSize(&TPCB{Branches: 2, AccountsPerBranch: 50}, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: average 158 bytes.
	if size < 140 || size > 175 {
		t.Errorf("TPC-B writeset = %.1f bytes, want ~158", size)
	}
}

func TestTPCWWritesetSize(t *testing.T) {
	size, err := WritesetSize(&TPCW{Items: 100, UpdateFraction: 1.0, CPUWork: 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: average 275 bytes.
	if size < 250 || size > 300 {
		t.Errorf("TPC-W writeset = %.1f bytes, want ~275", size)
	}
}

func TestAllUpdatesNoConflictsAcrossClients(t *testing.T) {
	g := &AllUpdates{}
	r := rand.New(rand.NewSource(1))
	s := mvstore.Open(mvstore.Config{})
	defer s.Close()
	seen := map[string]struct{}{}
	// Different (replica, client) pairs touch disjoint key ranges.
	for rep := 0; rep < 3; rep++ {
		for cl := 0; cl < 3; cl++ {
			run, ro := g.Next(r, rep, cl)
			if ro {
				t.Fatal("AllUpdates produced a read-only txn")
			}
			tx, _ := s.Begin()
			if err := run(plainTx{tx}); err != nil {
				t.Fatal(err)
			}
			for _, op := range tx.Writeset().Ops {
				prefix := op.Key[:6] // rXXcYY
				if want := fmt.Sprintf("r%02dc%02d", rep, cl); prefix != want {
					t.Errorf("key %q not in client range %q", op.Key, want)
				}
				seen[prefix] = struct{}{}
			}
			tx.Abort()
		}
	}
	if len(seen) != 9 {
		t.Errorf("saw %d distinct client ranges, want 9", len(seen))
	}
}

func TestTPCBPopulateAndConflicts(t *testing.T) {
	s := mvstore.Open(mvstore.Config{})
	defer s.Close()
	g := &TPCB{Branches: 2, TellersPerBranch: 2, AccountsPerBranch: 20}
	if err := g.Populate(context.Background(), standaloneBegin(s)); err != nil {
		t.Fatal(err)
	}
	if got := s.RowCount("branches"); got != 2 {
		t.Errorf("branches = %d", got)
	}
	if got := s.RowCount("tellers"); got != 4 {
		t.Errorf("tellers = %d", got)
	}
	if got := s.RowCount("accounts"); got != 40 {
		t.Errorf("accounts = %d", got)
	}
	// With 2 branches, two random transactions conflict on the branch
	// row often; verify the generator actually touches branches.
	r := rand.New(rand.NewSource(2))
	run, _ := g.Next(r, 0, 0)
	tx, _ := s.Begin()
	if err := run(plainTx{tx}); err != nil {
		t.Fatal(err)
	}
	touchedBranch := false
	for _, op := range tx.Writeset().Ops {
		if op.Table == "branches" {
			touchedBranch = true
		}
	}
	tx.Abort()
	if !touchedBranch {
		t.Error("TPC-B transaction did not update a branch row")
	}
}

func TestTPCWMixFractions(t *testing.T) {
	g := &TPCW{Items: 50, CPUWork: 1}
	r := rand.New(rand.NewSource(3))
	reads := 0
	const n = 1000
	for i := 0; i < n; i++ {
		_, ro := g.Next(r, 0, 0)
		if ro {
			reads++
		}
	}
	frac := float64(reads) / n
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("read-only fraction = %.2f, want ~0.80 (shopping mix)", frac)
	}
}

func TestRunClosedLoopStandalone(t *testing.T) {
	s := mvstore.Open(mvstore.Config{})
	defer s.Close()
	g := &AllUpdates{}
	res := Run(context.Background(), g, []BeginFunc{standaloneBegin(s)}, RunConfig{
		ClientsPerReplica: 4,
		Warmup:            20 * time.Millisecond,
		Measure:           150 * time.Millisecond,
		Seed:              1,
	})
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %v", res.Throughput)
	}
	if res.RT.Count != res.Committed {
		t.Errorf("RT samples %d != commits %d", res.RT.Count, res.Committed)
	}
	if res.AbortRate() != 0 {
		t.Errorf("AllUpdates abort rate = %v, want 0 (disjoint keys)", res.AbortRate())
	}
}

func TestRunMeasuresOnlyWindow(t *testing.T) {
	s := mvstore.Open(mvstore.Config{})
	defer s.Close()
	res := Run(context.Background(), &AllUpdates{}, []BeginFunc{standaloneBegin(s)}, RunConfig{
		ClientsPerReplica: 1,
		Warmup:            50 * time.Millisecond,
		Measure:           100 * time.Millisecond,
	})
	if res.Duration < 90*time.Millisecond || res.Duration > 500*time.Millisecond {
		t.Errorf("measured window = %v", res.Duration)
	}
}

func TestTPCWRunSplitsReadAndUpdateRT(t *testing.T) {
	s := mvstore.Open(mvstore.Config{})
	g := &TPCW{Items: 100, CPUWork: 10}
	if err := g.Populate(context.Background(), standaloneBegin(s)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := Run(context.Background(), g, []BeginFunc{standaloneBegin(s)}, RunConfig{
		ClientsPerReplica: 4,
		Warmup:            10 * time.Millisecond,
		Measure:           200 * time.Millisecond,
		Seed:              2,
	})
	if res.ReadRT.Count == 0 || res.UpdateRT.Count == 0 {
		t.Fatalf("RT split: reads=%d updates=%d", res.ReadRT.Count, res.UpdateRT.Count)
	}
	if res.ReadRT.Count < res.UpdateRT.Count {
		t.Error("shopping mix should be read-dominated")
	}
}

func TestAbortRateMath(t *testing.T) {
	r := Result{Committed: 80, Aborted: 20}
	if got := r.AbortRate(); got != 0.2 {
		t.Errorf("AbortRate = %v", got)
	}
	if (Result{}).AbortRate() != 0 {
		t.Error("empty result abort rate should be 0")
	}
}

func TestSpinIsDeterministicWork(t *testing.T) {
	a, b := spin(100), spin(100)
	if a != b {
		t.Error("spin not deterministic")
	}
}

// The pooled load leaves the same tables, keys and columns as one worker
// committing the batches in order.
func TestPooledPopulateEqualsSerialLoad(t *testing.T) {
	tpcb := &TPCB{Branches: 9, TellersPerBranch: 3, AccountsPerBranch: 600}
	tpcw := &TPCW{Items: 2100}
	cases := []struct {
		gen     Generator
		batches []func(Tx) error
		rows    map[string]int
	}{
		{tpcb, tpcb.batches(), map[string]int{"branches": 9, "tellers": 27, "accounts": 5400}},
		{tpcw, tpcw.batches(), map[string]int{"items": 2100}},
	}
	for _, tc := range cases {
		t.Run(tc.gen.Name(), func(t *testing.T) {
			serial, pooled := mvstore.Open(mvstore.Config{}), mvstore.Open(mvstore.Config{})
			defer serial.Close()
			defer pooled.Close()
			if err := loadBatches(context.Background(), standaloneBegin(serial), 1, tc.batches); err != nil {
				t.Fatal(err)
			}
			if err := tc.gen.Populate(context.Background(), standaloneBegin(pooled)); err != nil {
				t.Fatal(err)
			}
			for table, want := range tc.rows {
				if got := pooled.RowCount(table); got != want {
					t.Errorf("%s: %d rows, want %d", table, got, want)
				}
			}
			if a, b := serial.Fingerprint(), pooled.Fingerprint(); a != b {
				t.Errorf("pooled load fingerprint %08x, one-worker load %08x", b, a)
			}
		})
	}
}

func TestLoadBatchesStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, width := range []int{1, loaders} {
		t.Run(fmt.Sprintf("width %d", width), func(t *testing.T) {
			s := mvstore.Open(mvstore.Config{})
			defer s.Close()
			var started atomic.Int32
			batches := make([]func(Tx) error, 40)
			for i := range batches {
				i := i
				batches[i] = func(tx Tx) error {
					started.Add(1)
					if i == 2 {
						return boom
					}
					return tx.Insert("t", fmt.Sprintf("k%02d", i), map[string][]byte{"v": {1}})
				}
			}
			err := loadBatches(context.Background(), standaloneBegin(s), width, batches)
			if !errors.Is(err, boom) {
				t.Fatalf("loadBatches = %v, want boom", err)
			}
			// One worker stops dead at the failing batch. A pool's other
			// workers can take batches until the error is recorded, so
			// their count is not pinned.
			if n := started.Load(); width == 1 && n != 3 {
				t.Errorf("%d batches started, want 3", n)
			}
			if n := s.ActiveTxns(); n != 0 {
				t.Errorf("%d transactions left open", n)
			}
		})
	}
}

func TestLoadBatchesStopsOnCancel(t *testing.T) {
	s := mvstore.Open(mvstore.Config{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	batches := make([]func(Tx) error, 40)
	for i := range batches {
		i := i
		batches[i] = func(tx Tx) error {
			if started.Add(1) == 2 {
				cancel()
			}
			return tx.Insert("t", fmt.Sprintf("k%02d", i), map[string][]byte{"v": {1}})
		}
	}
	err := loadBatches(ctx, standaloneBegin(s), 2, batches)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("loadBatches = %v, want context.Canceled", err)
	}
	// Both workers may have been inside a batch when the context ended;
	// neither takes another.
	if n := started.Load(); n > 3 {
		t.Errorf("%d batches started after cancellation at the second", n)
	}
	if n := s.ActiveTxns(); n != 0 {
		t.Errorf("%d transactions left open", n)
	}
}
