package tashkent_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tashkent"
	"tashkent/internal/core"
)

func TestPublicAPIQuickstart(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{
		Mode:     tashkent.ModeTashkentMW,
		Replicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	tx, err := db.Cluster().Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", "alice", map[string][]byte{"balance": []byte("100")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Converge(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Visible on every replica.
	for i := 0; i < db.Replicas(); i++ {
		tx, err := db.Cluster().Begin(i)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := tx.ReadCol("accounts", "alice", "balance")
		if err != nil || !ok || string(v) != "100" {
			t.Errorf("replica %d: %q %v %v", i, v, ok, err)
		}
		tx.Abort()
	}
}

func TestPublicAPIConflictSurfacesErrAborted(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentAPI, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seed, _ := db.Cluster().Begin(0)
	seed.Update("t", "k", map[string][]byte{"v": []byte("0")})
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Converge(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	a, _ := db.Cluster().Begin(0)
	b, _ := db.Cluster().Begin(1)
	// Converge said version 1 is applied on both replicas, so neither
	// write may be refused against it (eager pre-certification).
	if err := a.Update("t", "k", map[string][]byte{"v": []byte("a")}); err != nil {
		t.Fatalf("update on replica 0: %v", err)
	}
	if err := b.Update("t", "k", map[string][]byte{"v": []byte("b")}); err != nil {
		t.Fatalf("update on replica 1: %v", err)
	}
	errA, errB := a.Commit(), b.Commit()
	aborts := 0
	for _, e := range []error{errA, errB} {
		if errors.Is(e, tashkent.ErrAborted) {
			aborts++
		}
	}
	if aborts != 1 {
		t.Errorf("want exactly one ErrAborted, got errA=%v errB=%v", errA, errB)
	}
}

func TestPublicAPIAllModes(t *testing.T) {
	for _, mode := range []tashkent.Mode{tashkent.ModeBase, tashkent.ModeTashkentMW, tashkent.ModeTashkentAPI} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			db, err := tashkent.Start(tashkent.Config{Mode: mode, Replicas: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 5; i++ {
				tx, err := db.Cluster().Begin(i % 2)
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Update("t", fmt.Sprintf("k%d", i), map[string][]byte{"v": {byte(i)}}); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Converge(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if db.Replica(0).Store().Fingerprint() != db.Replica(1).Store().Fingerprint() {
				t.Error("replicas diverged")
			}
		})
	}
}

// TestOversizedKeyRefused: a key longer than a writeset's 16-bit name
// length is refused when written, and the replicas stay equal. This key
// is crafted so that, cut to its first three bytes, what follows still
// parses as the rest of the op: one column "v" whose value runs to the
// op's real end. Encoded anyway, the origin installs the long key and
// the other replica installs t/abc.
func TestOversizedKeyRefused(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentMW, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const fill = 65527 // 3 + 9 header bytes + fill = 65539, which a uint16 reads as 3
	header := binary.BigEndian.AppendUint32([]byte{0, 1, 0, 1, 'v'}, fill+10)
	key := "abc" + string(header) + strings.Repeat("z", fill)
	tx, err := db.Cluster().Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err = tx.Update("t", key, map[string][]byte{"v": []byte("x")}); err == nil {
		err = tx.Commit()
	} else {
		tx.Abort()
	}
	if !errors.Is(err, core.ErrOpTooLarge) {
		t.Errorf("a %d-byte key: %v, want core.ErrOpTooLarge", len(key), err)
	}
	if err := db.Converge(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a, b := db.Replica(0).Store().Fingerprint(), db.Replica(1).Store().Fingerprint(); a != b {
		t.Errorf("replicas diverged: fingerprints %d and %d", a, b)
	}
}

func TestPaperDisksScaling(t *testing.T) {
	full := tashkent.PaperDisks(1)
	scaled := tashkent.PaperDisks(10)
	if scaled.FsyncLatency != full.FsyncLatency/10 {
		t.Errorf("scaled fsync = %v", scaled.FsyncLatency)
	}
}
