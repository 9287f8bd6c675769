package mvstore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// labelRows is the number of consecutive versions each case commits:
// version v inserts row labelKey(v) = labelVal(v), so the state at
// version V holds exactly the rows of versions 1..V.
const labelRows = 4000

func labelKey(v uint64) string { return fmt.Sprintf("r%d", v) }
func labelVal(v uint64) string { return fmt.Sprintf("v%d", v) }

// labelWrite begins a transaction that writes version v's row.
func labelWrite(t *testing.T, s *Store, v uint64) *Tx {
	t.Helper()
	tx := mustBegin(t, s)
	if err := tx.Insert("t", labelKey(v), map[string][]byte{"v": []byte(labelVal(v))}); err != nil {
		t.Fatalf("Insert v%d: %v", v, err)
	}
	return tx
}

// checkLabel begins one snapshot and checks it against its version
// label: the row of the label's version is there, the next one is not.
// It reports whether the label lay strictly inside (0, labelRows).
func checkLabel(s *Store) (mid bool, err error) {
	tx, err := s.Begin()
	if err != nil {
		return false, err
	}
	defer tx.Abort()
	label := tx.SnapshotVersion()
	for _, v := range []uint64{label, label + 1} {
		if v == 0 || v > labelRows {
			continue
		}
		val, found, err := tx.ReadCol("t", labelKey(v), "v")
		if err != nil {
			return false, err
		}
		if want := v <= label; found != want || (found && string(val) != labelVal(v)) {
			return false, fmt.Errorf("snapshot labeled %d: row of v%d found=%v value %q", label, v, found, val)
		}
	}
	return label > 0 && label < labelRows, nil
}

// startLabelReaders runs two readers that begin snapshots back to back
// and check each against its label until the returned stop is called;
// stop reports the first mismatch of each reader. It returns once both
// readers are running.
func startLabelReaders(t *testing.T, s *Store) (stop func()) {
	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg, running sync.WaitGroup
	var reads, mid atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			running.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				inside, err := checkLabel(s)
				if err != nil {
					errs <- err
					return
				}
				reads.Add(1)
				if inside {
					mid.Add(1)
				}
				runtime.Gosched() // leave the committers their share of two CPUs
			}
		}()
	}
	running.Wait()
	return func() {
		close(done)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		t.Logf("%d snapshots checked, %d labeled mid-stream", reads.Load(), mid.Load())
	}
}

// TestBeginLabelCoversSnapshot checks that the version label Begin
// hands out names exactly the state its snapshot shows while commits
// publish around it: a label below the snapshot's content would let a
// session's causal token miss rows it read, one above would hide
// versions from certification.
func TestBeginLabelCoversSnapshot(t *testing.T) {
	// A cascade of deferred-publication commits: versions 2..labelRows
	// are installed and pending behind version 1, whose commit publishes
	// the whole run in one drain while the readers begin.
	t.Run("async", func(t *testing.T) {
		s := openInstant(t)
		var published atomic.Int64
		count := func(oc PendingOutcome) {
			if oc == PendingPublished {
				published.Add(1)
			}
		}
		for v := uint64(2); v <= labelRows; v++ {
			if err := labelWrite(t, s, v).CommitLabeledAsync(v-1, v, count); err != nil {
				t.Fatalf("CommitLabeledAsync v%d: %v", v, err)
			}
		}
		if got := s.PendingApplies(); got != labelRows-1 {
			t.Fatalf("PendingApplies = %d, want %d", got, labelRows-1)
		}
		stop := startLabelReaders(t, s)
		if err := labelWrite(t, s, 1).CommitLabeledAsync(0, 1, count); err != nil {
			t.Fatalf("CommitLabeledAsync v1: %v", err)
		}
		stop()
		if got := s.AnnouncedVersion(); got != labelRows || published.Load() != labelRows {
			t.Fatalf("after the drain: announced %d, %d published; want %d", got, published.Load(), labelRows)
		}
	})
	// Commits handed over one at a time, as the Base and Tashkent-MW
	// merger hands them: CommitLabeled, one version each, each
	// published before the next begins.
	t.Run("sync", func(t *testing.T) {
		s := openInstant(t)
		stop := startLabelReaders(t, s)
		for v := uint64(1); v <= labelRows; v++ {
			if err := labelWrite(t, s, v).CommitLabeled(v-1, v); err != nil {
				t.Fatalf("CommitLabeled v%d: %v", v, err)
			}
		}
		stop()
		if got := s.AnnouncedVersion(); got != labelRows {
			t.Fatalf("announced %d, want %d", got, labelRows)
		}
	})
}
