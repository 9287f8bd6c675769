package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tashkent/internal/simdisk"
)

func instantDisk() *simdisk.Disk { return simdisk.New(simdisk.Instant(), 1) }

func TestAppendAndScanRoundTrip(t *testing.T) {
	w := New(instantDisk(), SyncCommits)
	defer w.Close()
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%02d", i))
		want = append(want, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Scan(w.CrashImage(-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSyncModeRecordsAreStable(t *testing.T) {
	w := New(instantDisk(), SyncCommits)
	defer w.Close()
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.StableRecords() != 5 {
		t.Errorf("StableRecords = %d, want 5 in sync mode", w.StableRecords())
	}
	// Crash with zero torn bytes must preserve everything synced.
	got, err := Scan(w.CrashImage(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("recovered %d records, want 5", len(got))
	}
}

func TestNoSyncModeLosesUnsyncedRecords(t *testing.T) {
	w := New(instantDisk(), NoSync)
	defer w.Close()
	for i := 0; i < 7; i++ {
		if err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.StableRecords() != 0 {
		t.Errorf("StableRecords = %d, want 0 before SyncNow", w.StableRecords())
	}
	got, err := Scan(w.CrashImage(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("recovered %d records from unsynced log, want 0", len(got))
	}
	if err := w.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if w.StableRecords() != 7 {
		t.Errorf("StableRecords after SyncNow = %d, want 7", w.StableRecords())
	}
	got, _ = Scan(w.CrashImage(0))
	if len(got) != 7 {
		t.Errorf("recovered %d records after SyncNow, want 7", len(got))
	}
}

func TestSyncNowIdempotentWhenClean(t *testing.T) {
	d := instantDisk()
	w := New(d, NoSync)
	defer w.Close()
	w.Append([]byte("x"))
	w.SyncNow()
	before := d.Stats().Fsyncs
	w.SyncNow() // nothing new: must not fsync again
	if d.Stats().Fsyncs != before {
		t.Error("SyncNow with no volatile suffix should skip the fsync")
	}
}

func TestBarrierCoversPriorAppends(t *testing.T) {
	// A barrier's wait must not return before every record appended
	// ahead of it is durable.
	d := simdisk.New(simdisk.Profile{FsyncLatency: 2 * time.Millisecond}, 5)
	w := New(d, SyncCommits)
	defer w.Close()
	const k = 8
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Errorf("append: %v", err)
			}
		}()
	}
	// Give the appends a moment to enqueue, then barrier.
	time.Sleep(time.Millisecond)
	enqueued := w.Records()
	wait, err := w.Barrier()
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if got := w.StableRecords(); got < enqueued {
		t.Errorf("barrier returned with %d stable of %d enqueued", got, enqueued)
	}
	wg.Wait()

	// A clean log's barrier is immediate and flushes nothing.
	if err := w.SyncNow(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Fsyncs
	wait, err = w.Barrier()
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if f := d.Stats().Fsyncs; f != before {
		t.Errorf("clean-log barrier issued %d extra fsyncs", f-before)
	}
}

func TestBarrierNoSyncImmediate(t *testing.T) {
	w := New(instantDisk(), NoSync)
	defer w.Close()
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	wait, err := w.Barrier()
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if w.StableRecords() != 0 {
		t.Error("NoSync barrier must not flush")
	}
}

func TestSyncNowAccountingUnderConcurrentFlushes(t *testing.T) {
	// SyncNow computes the record delta it reports to the disk in one
	// critical section; racing it against writer-loop flushes must
	// never produce a negative delta (simdisk panics on one) and the
	// records reported synced must cover everything marked stable.
	d := instantDisk()
	w := New(d, SyncCommits)
	defer w.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if err := w.SyncNow(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := w.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Stats().RecordsSynced, int64(w.StableRecords()); got < want {
		t.Errorf("disk accounting covers %d records, but %d are stable", got, want)
	}
}

func TestGroupCommitBatchesConcurrentAppends(t *testing.T) {
	// With a slow fsync, concurrent appends must share fsyncs: far
	// fewer fsyncs than records.
	d := simdisk.New(simdisk.Profile{FsyncLatency: 3 * time.Millisecond}, 1)
	w := New(d, SyncCommits)
	defer w.Close()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.Append([]byte{byte(i)})
		}(i)
	}
	wg.Wait()
	s := d.Stats()
	if s.RecordsSynced != n {
		t.Fatalf("RecordsSynced = %d, want %d", s.RecordsSynced, n)
	}
	if s.Fsyncs >= n/2 {
		t.Errorf("%d fsyncs for %d concurrent appends; group commit not batching", s.Fsyncs, n)
	}
	if s.MaxGroup < 2 {
		t.Errorf("MaxGroup = %d, want >= 2", s.MaxGroup)
	}
}

func TestSerialAppendsCannotGroup(t *testing.T) {
	// The Base phenomenon: a caller that waits for each append gets
	// one fsync per record.
	d := simdisk.New(simdisk.Profile{FsyncLatency: time.Millisecond}, 1)
	w := New(d, SyncCommits)
	defer w.Close()
	const n = 10
	for i := 0; i < n; i++ {
		w.Append([]byte{byte(i)})
	}
	if got := d.Stats().Fsyncs; got != n {
		t.Errorf("serial appends produced %d fsyncs, want %d (no grouping possible)", got, n)
	}
}

func TestTornTailDropped(t *testing.T) {
	w := New(instantDisk(), SyncCommits)
	w.Append([]byte("alpha"))
	w.Append([]byte("beta"))
	full := w.CrashImage(-1)
	w.Close()
	// Every truncation point must recover a clean prefix, never error,
	// never a partial record.
	for cut := 0; cut <= len(full); cut++ {
		got, err := Scan(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for _, r := range got {
			if string(r) != "alpha" && string(r) != "beta" {
				t.Fatalf("cut %d: recovered partial record %q", cut, r)
			}
		}
		if len(got) > 2 {
			t.Fatalf("cut %d: recovered %d records", cut, len(got))
		}
	}
}

func TestScanCorruptMiddle(t *testing.T) {
	w := New(instantDisk(), SyncCommits)
	w.Append([]byte("alpha"))
	w.Append([]byte("beta"))
	img := w.CrashImage(-1)
	w.Close()
	img[9] ^= 0xFF // flip a payload byte of the first record
	_, err := Scan(img)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestScanCorruptTailRecordDropped(t *testing.T) {
	w := New(instantDisk(), SyncCommits)
	w.Append([]byte("alpha"))
	w.Append([]byte("beta"))
	img := w.CrashImage(-1)
	w.Close()
	img[len(img)-1] ^= 0xFF // corrupt last byte (tail record payload)
	got, err := Scan(img)
	if err != nil {
		t.Fatalf("tail corruption should not error: %v", err)
	}
	if len(got) != 1 || string(got[0]) != "alpha" {
		t.Errorf("recovered %v, want just alpha", got)
	}
}

func TestAppendAfterClose(t *testing.T) {
	w := New(instantDisk(), SyncCommits)
	w.Close()
	if err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close: err = %v, want ErrClosed", err)
	}
	if err := w.SyncNow(); !errors.Is(err, ErrClosed) {
		t.Errorf("SyncNow after Close: err = %v, want ErrClosed", err)
	}
	w.Close() // double close is a no-op
}

func TestCloseDrainsPending(t *testing.T) {
	d := simdisk.New(simdisk.Profile{FsyncLatency: 2 * time.Millisecond}, 1)
	w := New(d, SyncCommits)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Append([]byte("z"))
		}()
	}
	wg.Wait()
	w.Close()
	if w.StableRecords() != 16 {
		t.Errorf("StableRecords = %d after Close, want 16", w.StableRecords())
	}
}

func TestSizeAndRecords(t *testing.T) {
	w := New(instantDisk(), NoSync)
	defer w.Close()
	w.Append(make([]byte, 100))
	if w.Records() != 1 {
		t.Errorf("Records = %d", w.Records())
	}
	if w.Size() != 108 {
		t.Errorf("Size = %d, want 108 (8-byte frame header + 100)", w.Size())
	}
}

func TestInvalidModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid mode should panic")
		}
	}()
	New(instantDisk(), Mode(0))
}

// TestQuickCrashRecoveryPrefix is the durability property from
// DESIGN.md: after a crash at any torn boundary, recovery yields
// exactly a prefix of the appended records, and in sync mode at least
// the acknowledged ones.
func TestQuickCrashRecoveryPrefix(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := New(instantDisk(), SyncCommits)
		defer w.Close()
		n := 1 + r.Intn(10)
		var records [][]byte
		for i := 0; i < n; i++ {
			p := make([]byte, 1+r.Intn(40))
			r.Read(p)
			records = append(records, p)
			if err := w.Append(p); err != nil {
				return false
			}
		}
		torn := r.Intn(w.Size() + 2)
		got, err := Scan(w.CrashImage(torn))
		if err != nil {
			return false
		}
		// Sync mode: all acknowledged records must survive (torn adds
		// bytes beyond stable, never removes).
		if len(got) < n {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], records[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickNoSyncPrefixProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := New(instantDisk(), NoSync)
		defer w.Close()
		n := 1 + r.Intn(12)
		syncAt := r.Intn(n + 1)
		var records [][]byte
		for i := 0; i < n; i++ {
			p := []byte{byte(i), byte(i >> 8)}
			records = append(records, p)
			w.Append(p)
			if i+1 == syncAt {
				w.SyncNow()
			}
		}
		got, err := Scan(w.CrashImage(0))
		if err != nil {
			return false
		}
		if len(got) != syncAt {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], records[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBatchTicketSharedByManyWaiters: a batch has one ticket; every
// waiter, concurrent or repeated, returns only once the whole batch is
// durable, and the batch costs one fsync.
func TestBatchTicketSharedByManyWaiters(t *testing.T) {
	d := instantDisk()
	w := New(d, SyncCommits)
	defer w.Close()
	release := make(chan struct{})
	d.SetHook(func(simdisk.Op, int, int) { <-release })
	wait, err := w.AppendBatchAsync([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- wait() }()
	}
	select {
	case <-done:
		t.Fatal("ticket returned while the batch's fsync was blocked")
	case <-time.After(5 * time.Millisecond):
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := wait(); err != nil { // a ticket can be waited on again
		t.Fatal(err)
	}
	if got := w.StableRecords(); got != 3 {
		t.Errorf("StableRecords = %d, want 3", got)
	}
	if st := d.Stats(); st.Fsyncs != 1 || st.RecordsSynced != 3 {
		t.Errorf("%d fsyncs covering %d records, want 1 covering 3", st.Fsyncs, st.RecordsSynced)
	}
}

// FuzzScan: scanning arbitrary bytes never panics, fails only with
// ErrCorrupt, and whatever it returns re-frames to a prefix of the
// input — a scan never invents, reorders or alters a record.
func FuzzScan(f *testing.F) {
	w := New(instantDisk(), NoSync)
	for _, p := range [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xAB}, 70)} {
		w.Append(p)
	}
	img := w.CrashImage(-1)
	w.Close()
	f.Add(img)
	f.Add(img[:len(img)-3])                               // torn payload
	f.Add(img[:frameHeader-2])                            // torn header
	f.Add(append(img[:len(img):len(img)], 0xFF))          // garbage after the last frame
	f.Add(append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, img...)) // a length far beyond the image
	flipped := append([]byte(nil), img...)
	flipped[frameHeader] ^= 1 // first record corrupt, not at the tail
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, image []byte) {
		records, err := Scan(image)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Scan error %v is not ErrCorrupt", err)
		}
		back := New(instantDisk(), NoSync)
		defer back.Close()
		for _, r := range records {
			back.Append(r)
		}
		if framed := back.CrashImage(-1); !bytes.HasPrefix(image, framed) {
			t.Fatalf("%d scanned records re-frame to %x, not a prefix of %x", len(records), framed, image)
		}
	})
}

func BenchmarkGroupCommitThroughput(b *testing.B) {
	d := simdisk.New(simdisk.Profile{FsyncLatency: 100 * time.Microsecond}, 1)
	w := New(d, SyncCommits)
	defer w.Close()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		payload := make([]byte, 64)
		for pb.Next() {
			w.Append(payload)
		}
	})
	b.ReportMetric(d.Stats().GroupRatio(), "records/fsync")
}
