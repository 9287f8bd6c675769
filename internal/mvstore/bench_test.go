package mvstore

// BenchmarkParallelRead* isolate the storage engine's snapshot-read
// path from the replication stack; the CI benchmark smoke runs them once
// per push. Run with -cpu 1,2,4 to see lock-striping
// scalability; even at -cpu 1 the striped engine wins on the removed
// per-read clone and global-mutex round trip.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// benchStore builds a store preloaded with rows rows of a TPC-W-like
// shape (one fat desc column, one small stock column).
func benchStore(b *testing.B, rows int) (*Store, []string) {
	b.Helper()
	s := Open(Config{})
	b.Cleanup(s.Close)
	desc := make([]byte, 160)
	keys := make([]string, rows)
	for lo := 0; lo < rows; lo += 200 {
		tx, err := s.Begin()
		if err != nil {
			b.Fatal(err)
		}
		hi := lo + 200
		if hi > rows {
			hi = rows
		}
		for i := lo; i < hi; i++ {
			keys[i] = fmt.Sprintf("i%06d", i)
			if err := tx.Insert("items", keys[i], map[string][]byte{
				"stock": []byte("00010000"),
				"desc":  desc,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}

// BenchmarkParallelRead measures raw snapshot reads: one long-lived
// read transaction per goroutine, random row reads.
func BenchmarkParallelRead(b *testing.B) {
	s, keys := benchStore(b, 1000)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tx, err := s.Begin()
		if err != nil {
			b.Error(err)
			return
		}
		defer tx.Abort()
		r := rand.New(rand.NewSource(1))
		for pb.Next() {
			if _, ok, err := tx.Read("items", keys[r.Intn(len(keys))]); err != nil || !ok {
				b.Errorf("read: %v %v", ok, err)
				return
			}
		}
	})
}

// BenchmarkParallelReadTxn measures the full read-only transaction
// cycle the TPC-W browse mix performs: Begin, six row reads, Commit.
func BenchmarkParallelReadTxn(b *testing.B) {
	s, keys := benchStore(b, 1000)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(1))
		for pb.Next() {
			tx, err := s.Begin()
			if err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < 6; i++ {
				if _, _, err := tx.Read("items", keys[r.Intn(len(keys))]); err != nil {
					b.Error(err)
					return
				}
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelMixed is the TPC-W shopping shape at the engine
// level: 80 % six-read browse transactions, 20 % update transactions
// over disjoint per-goroutine rows.
func BenchmarkParallelMixed(b *testing.B) {
	s, keys := benchStore(b, 1000)
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		me := gid.Add(1)
		r := rand.New(rand.NewSource(me))
		stock := []byte("00009999")
		n := 0
		for pb.Next() {
			n++
			tx, err := s.Begin()
			if err != nil {
				b.Error(err)
				return
			}
			if n%5 == 0 {
				key := fmt.Sprintf("o%03d-%06d", me, n)
				if err := tx.Insert("orders", key, map[string][]byte{"detail": stock}); err != nil {
					b.Error(err)
					return
				}
			} else {
				for i := 0; i < 6; i++ {
					if _, _, err := tx.Read("items", keys[r.Intn(len(keys))]); err != nil {
						b.Error(err)
						return
					}
				}
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelBegin measures transaction open/close overhead,
// which every proxied BEGIN pays.
func BenchmarkParallelBegin(b *testing.B) {
	s, _ := benchStore(b, 10)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx, err := s.Begin()
			if err != nil {
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
