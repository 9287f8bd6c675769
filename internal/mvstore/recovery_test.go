package mvstore

import (
	"bytes"
	"testing"

	"tashkent/internal/core"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
)

// logImage frames commit records into a WAL image, in the order given.
func logImage(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	w := wal.New(simdisk.New(simdisk.Instant(), 0), wal.NoSync)
	defer w.Close()
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return w.CrashImage(-1)
}

func op(kind core.OpKind, key string, colvals ...string) core.WriteOp {
	o := core.WriteOp{Kind: kind, Table: "t", Key: key}
	for i := 0; i+1 < len(colvals); i += 2 {
		o.Cols = append(o.Cols, core.ColUpdate{Col: colvals[i], Value: []byte(colvals[i+1])})
	}
	return o
}

func rec(from, to uint64, ops ...core.WriteOp) []byte {
	return encodeCommitRecord(from, to, &core.Writeset{Ops: ops})
}

// TestReplayOrdersByLabel: recovery replays labeled records by label,
// not by log position. Under Tashkent-API a response's records are
// logged before their installers run, so a range can be logged again
// (by the resync that re-applies a given-up install) after records of
// later versions; log-order replay would regress those.
func TestReplayOrdersByLabel(t *testing.T) {
	cases := []struct {
		name      string
		base      uint64
		image     [][]byte
		want      map[string]map[string]string // key → col → value ("" key map = row absent)
		coveredTo uint64
		gaps      int
	}{
		{
			// R(5) R(6) R(7), a give-up and a resync, R'(5), crash.
			// Log-order replay ends on k=a while the chain says 7.
			name: "stale duplicate after later versions",
			base: 4,
			image: [][]byte{
				rec(4, 5, op(core.OpUpdate, "k", "v", "a")),
				rec(5, 6, op(core.OpUpdate, "k", "v", "b")),
				rec(6, 7, op(core.OpUpdate, "j", "v", "c")),
				rec(4, 5, op(core.OpUpdate, "k", "v", "a")),
			},
			want:      map[string]map[string]string{"k": {"v": "b"}, "j": {"v": "c"}},
			coveredTo: 7,
		},
		{
			// A merged (4,7] (one row written twice inside it) logged
			// before single-version duplicates of its first two versions.
			name: "merged range beside single-version duplicates",
			base: 4,
			image: [][]byte{
				rec(4, 7,
					op(core.OpInsert, "k", "c1", "a", "c2", "x"),
					op(core.OpUpdate, "k", "c2", "y"),
					op(core.OpUpdate, "j", "v", "c")),
				rec(5, 6, op(core.OpUpdate, "k", "c2", "y")),
				rec(4, 5, op(core.OpInsert, "k", "c1", "a", "c2", "x")),
			},
			want:      map[string]map[string]string{"k": {"c1": "a", "c2": "y"}, "j": {"v": "c"}},
			coveredTo: 7,
		},
		{
			// The record beyond the gap is applied, the chain stops below
			// it, and the log order of the two does not matter.
			name: "gap",
			base: 0,
			image: [][]byte{
				rec(7, 8, op(core.OpUpdate, "g", "v", "z")),
				rec(0, 3, op(core.OpUpdate, "k", "v", "a")),
			},
			want:      map[string]map[string]string{"k": {"v": "a"}, "g": {"v": "z"}},
			coveredTo: 3,
			gaps:      1,
		},
		{
			// Unlabeled records keep their log order, around labeled ones.
			name: "unlabeled keep log order",
			base: 0,
			image: [][]byte{
				rec(0, 0, op(core.OpUpdate, "u", "v", "1")),
				rec(1, 2, op(core.OpUpdate, "k", "v", "b")),
				rec(0, 0, op(core.OpUpdate, "u", "v", "2")),
				rec(0, 1, op(core.OpUpdate, "k", "v", "a")),
			},
			want:      map[string]map[string]string{"u": {"v": "2"}, "k": {"v": "b"}},
			coveredTo: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, info, err := RecoverFromWAL(Config{}, logImage(t, tc.image...), tc.base)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if info.Records != len(tc.image) || info.CoveredTo != tc.coveredTo || info.Gaps != tc.gaps {
				t.Errorf("info = %+v, want %d records, CoveredTo %d, %d gaps", info, len(tc.image), tc.coveredTo, tc.gaps)
			}
			if got := s.AnnouncedVersion(); got != tc.coveredTo {
				t.Errorf("announced = %d, want %d", got, tc.coveredTo)
			}
			tx := mustBegin(t, s)
			defer tx.Abort()
			for key, cols := range tc.want {
				row, ok, err := tx.Read("t", key)
				if err != nil || !ok {
					t.Errorf("row %q: found=%v err=%v", key, ok, err)
					continue
				}
				if len(row) != len(cols) {
					t.Errorf("row %q = %q, want %q", key, row, cols)
				}
				for c, v := range cols {
					if string(row[c]) != v {
						t.Errorf("row %q col %q = %q, want %q", key, c, row[c], v)
					}
				}
			}
		})
	}
}

// TestLogCommitRecordsOneFsyncInOrder: a batch reaches the log in the
// order given under one fsync, its ticket serves every commit of the
// batch, and nothing is visible before the ticket is.
func TestLogCommitRecordsOneFsyncInOrder(t *testing.T) {
	disk := simdisk.New(simdisk.Instant(), 1)
	s := Open(Config{LogDisk: disk})
	reached, release := make(chan struct{}, 1), make(chan struct{})
	disk.SetHook(func(simdisk.Op, int, int) {
		select {
		case reached <- struct{}{}:
		default:
		}
		<-release
	})
	remote, own := mustBegin(t, s), mustBegin(t, s)
	if err := remote.Update("t", "r", map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := own.Update("t", "o", map[string][]byte{"v": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	logged, err := s.LogCommitRecords([]CommitRecord{
		{From: 0, To: 2, WS: remote.Writeset()},
		{From: 2, To: 3, WS: own.Writeset()},
	})
	if err != nil {
		t.Fatal(err)
	}
	outcome := make(chan PendingOutcome, 2)
	cb := func(oc PendingOutcome) { outcome <- oc }
	done := make(chan error, 2)
	go func() { done <- remote.CommitLoggedAsync(0, 2, logged, cb) }()
	go func() { done <- own.CommitLoggedAsync(2, 3, logged, cb) }()
	<-reached
	if got := s.AnnouncedVersion(); got != 0 {
		t.Errorf("announced %d while the batch's fsync was still in flight", got)
	}
	select {
	case err := <-done:
		t.Errorf("a commit finished before its record was durable: %v", err)
	default:
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if oc := <-outcome; oc != PendingPublished {
			t.Errorf("outcome = %v, want both commits published", oc)
		}
	}
	if got := s.AnnouncedVersion(); got != 3 {
		t.Errorf("announced = %d, want 3", got)
	}
	if st := disk.Stats(); st.Fsyncs != 1 || st.RecordsSynced != 2 {
		t.Errorf("%d fsyncs covering %d records, want 1 covering 2", st.Fsyncs, st.RecordsSynced)
	}
	disk.SetHook(nil)
	img, _ := s.Crash()
	payloads, err := wal.Scan(img)
	if err != nil || len(payloads) != 2 {
		t.Fatalf("log holds %d records (%v), want 2", len(payloads), err)
	}
	for i, want := range [][2]uint64{{0, 2}, {2, 3}} {
		r, err := DecodeCommitRecord(payloads[i])
		if err != nil || r.From != want[0] || r.To != want[1] {
			t.Errorf("log record %d = (%d,%d] %v, want (%d,%d]", i, r.From, r.To, err, want[0], want[1])
		}
	}
}

// FuzzDecodeCommitRecord: whatever parses as a commit record re-encodes
// to the same bytes; nothing panics.
func FuzzDecodeCommitRecord(f *testing.F) {
	for _, p := range [][]byte{
		rec(0, 0, op(core.OpUpdate, "k", "v", "a")),
		rec(4, 7, op(core.OpInsert, "k", "c1", "a", "c2", "x"), op(core.OpDelete, "j")),
		rec(1, 2),
	} {
		f.Add(p)
		f.Add(p[:len(p)-1])
		f.Add(append(p[:len(p):len(p)], 0))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeCommitRecord(payload)
		if err != nil {
			return
		}
		if again := encodeCommitRecord(r.From, r.To, r.WS); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded record differs:\n%x\n%x", again, payload)
		}
	})
}

// FuzzReplayWAL: replaying a log of arbitrary record payloads, with an
// arbitrary number of bytes torn off its tail, never panics; when it
// succeeds it accounts for every complete record and announces exactly
// the chain it reports; and labeled records with distinct labels
// recover the same state from the reverse log order.
func FuzzReplayWAL(f *testing.F) {
	f.Add(rec(4, 5, op(core.OpUpdate, "k", "v", "a")), rec(5, 6, op(core.OpUpdate, "k", "v", "b")),
		rec(4, 5, op(core.OpUpdate, "k", "v", "a")), uint8(0))
	f.Add(rec(0, 3, op(core.OpInsert, "k", "c1", "a"), op(core.OpUpdate, "k", "c2", "y")),
		rec(7, 8, op(core.OpDelete, "k")), rec(0, 0, op(core.OpUpdate, "u", "v", "1")), uint8(3))
	f.Add([]byte{}, []byte("short"), rec(1, 2), uint8(40))
	f.Fuzz(func(t *testing.T, a, b, c []byte, torn uint8) {
		image := logImage(t, a, b, c)
		if int(torn) > len(image) {
			torn = uint8(len(image))
		}
		image = image[:len(image)-int(torn)]
		s, info, err := RecoverFromWAL(Config{}, image, 0)
		if err != nil {
			return
		}
		defer s.Close()
		payloads, err := wal.Scan(image)
		if err != nil || info.Records != len(payloads) {
			t.Fatalf("recovered %d records from a log of %d (%v)", info.Records, len(payloads), err)
		}
		if s.AnnouncedVersion() != info.CoveredTo {
			t.Fatalf("announced %d, reported CoveredTo %d", s.AnnouncedVersion(), info.CoveredTo)
		}
		seen := map[uint64]bool{}
		for _, p := range payloads {
			r, _ := DecodeCommitRecord(p)
			if r.To <= r.From || seen[r.To] {
				return
			}
			seen[r.To] = true
		}
		for i, j := 0, len(payloads)-1; i < j; i, j = i+1, j-1 {
			payloads[i], payloads[j] = payloads[j], payloads[i]
		}
		rs, rinfo, err := RecoverFromWAL(Config{}, logImage(t, payloads...), 0)
		if err != nil {
			t.Fatalf("reverse log order: %v", err)
		}
		defer rs.Close()
		if rinfo != info || rs.Fingerprint() != s.Fingerprint() {
			t.Fatalf("reverse log order recovered %+v / %08x, forward %+v / %08x",
				rinfo, rs.Fingerprint(), info, s.Fingerprint())
		}
	})
}
