package tashkent_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"tashkent"
	"tashkent/internal/certifier"
	"tashkent/internal/mvstore"
	"tashkent/internal/simdisk"
	"tashkent/internal/workload"
)

// TestSessionReadYourWritesAcrossReplicas commits through a session
// and immediately reads back on the next (round-robin) replica, under
// a nonzero disk profile so replicas genuinely lag: the causal token
// must make Begin wait until the chosen replica has the write. A
// background writer increments a counter meanwhile, and every read of
// the session also reads the counter, which must never go backwards
// (monotonic reads across replicas).
func TestSessionReadYourWritesAcrossReplicas(t *testing.T) {
	for _, mode := range []tashkent.Mode{tashkent.ModeTashkentMW, tashkent.ModeTashkentAPI} {
		t.Run(mode.String(), func(t *testing.T) { testSessionAcrossReplicas(t, mode) })
	}
}

func testSessionAcrossReplicas(t *testing.T, mode tashkent.Mode) {
	db, err := tashkent.Start(tashkent.Config{
		Mode:        mode,
		Replicas:    3,
		DiskProfile: tashkent.PaperDisks(16), // 500 µs fsyncs: real propagation delay
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx := context.Background()
	stopWriter := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() { writerDone <- incrementCounter(stopWriter, db.Session()) }()
	defer func() {
		close(stopWriter)
		if err := <-writerDone; err != nil {
			t.Errorf("counter writer: %v", err)
		}
	}()

	sess := db.Session() // round-robin: consecutive Begins rotate replicas
	var lastToken, lastCount uint64
	crossReplica := 0
	// readCounter reads the counter in tx's snapshot and checks it did
	// not go backwards since the session's previous read.
	readCounter := func(what string, tx *tashkent.Tx) {
		t.Helper()
		n, err := counterValue(tx)
		if err != nil {
			t.Fatalf("%s: counter read on replica %d: %v", what, tx.Replica(), err)
		}
		if n < lastCount {
			t.Fatalf("%s: counter went backwards on replica %d: %d after %d (snapshot v%d, token %d)",
				what, tx.Replica(), n, lastCount, tx.SnapshotVersion(), sess.Token())
		}
		lastCount = n
	}
	for round := 0; round < 6; round++ {
		want := fmt.Sprintf("v%d", round)
		wtx, err := sess.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := wtx.Update("t", "k", map[string][]byte{"v": []byte(want)}); err != nil {
			t.Fatal(err)
		}
		readCounter(fmt.Sprintf("round %d write", round), wtx)
		if err := wtx.Commit(ctx); err != nil {
			t.Fatal(err)
		}

		rtx, err := sess.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rtx.Replica() != wtx.Replica() {
			crossReplica++
		}
		got, ok, err := rtx.ReadCol("t", "k", "v")
		if err != nil || !ok || string(got) != want {
			t.Fatalf("round %d: read on replica %d after write on replica %d: got %q ok=%v err=%v, want %q",
				round, rtx.Replica(), wtx.Replica(), got, ok, err, want)
		}
		readCounter(fmt.Sprintf("round %d read", round), rtx)
		rtx.Abort()

		// Read-only rounds between the writes: each lands on the next
		// replica, which may lag the one before.
		for i := 0; i < 5; i++ {
			tx, err := sess.Begin(ctx, tashkent.ReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			readCounter(fmt.Sprintf("round %d read-only %d", round, i), tx)
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}

		// Monotonic reads: the causal token never moves backwards.
		if tok := sess.Token(); tok < lastToken {
			t.Fatalf("round %d: token went backwards: %d -> %d", round, lastToken, tok)
		} else {
			lastToken = tok
		}
	}
	if crossReplica == 0 {
		t.Fatal("round-robin never placed read and write on different replicas")
	}
	if lastCount == 0 {
		t.Fatal("the session never saw the background writer's counter move")
	}
}

// incrementCounter bumps the counter row through sess until stop is
// closed. It stops between transactions, never cancelling a commit in
// flight.
func incrementCounter(stop <-chan struct{}, sess *tashkent.Session) error {
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		err := sess.RunTx(context.Background(), func(tx *tashkent.Tx) error {
			n, err := counterValue(tx)
			if err != nil {
				return err
			}
			return tx.Update("t", "ctr", map[string][]byte{"n": []byte(strconv.FormatUint(n+1, 10))})
		})
		if err != nil && !tashkent.IsAborted(err) {
			return err
		}
	}
}

// counterValue reads the counter row in tx's snapshot (0 before the
// first increment).
func counterValue(tx *tashkent.Tx) (uint64, error) {
	v, ok, err := tx.ReadCol("t", "ctr", "n")
	if err != nil || !ok {
		return 0, err
	}
	return strconv.ParseUint(string(v), 10, 64)
}

// TestRunTxRetriesCertificationAborts injects certification aborts and
// checks RunTx retries exactly maxRetries+1 times before giving up,
// then succeeds in one attempt once the fault is cleared.
func TestRunTxRetriesCertificationAborts(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentMW, Replicas: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx := context.Background()
	db.Cluster().SetAbortRate(1.0)
	sess := db.Session(
		tashkent.WithMaxRetries(3),
		tashkent.WithBackoff(time.Millisecond, 4*time.Millisecond),
	)
	attempts := 0
	err = sess.RunTx(ctx, func(tx *tashkent.Tx) error {
		attempts++
		return tx.Update("t", "k", map[string][]byte{"v": []byte("x")})
	})
	if !errors.Is(err, tashkent.ErrAborted) {
		t.Fatalf("want ErrAborted after exhausting retries, got %v", err)
	}
	if attempts != 4 {
		t.Fatalf("want maxRetries+1 = 4 attempts, got %d", attempts)
	}

	db.Cluster().SetAbortRate(0)
	attempts = 0
	err = sess.RunTx(ctx, func(tx *tashkent.Tx) error {
		attempts++
		return tx.Update("t", "k", map[string][]byte{"v": []byte("y")})
	})
	if err != nil || attempts != 1 {
		t.Fatalf("after clearing aborts: err=%v attempts=%d", err, attempts)
	}
}

// TestRunTxHonorsContextCancellation: with every commit aborting and a
// long backoff, RunTx must give up with the context's error as soon as
// the deadline fires rather than burning through the retry budget.
func TestRunTxHonorsContextCancellation(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentMW, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	db.Cluster().SetAbortRate(1.0)
	sess := db.Session(
		tashkent.WithMaxRetries(1000),
		tashkent.WithBackoff(50*time.Millisecond, 50*time.Millisecond),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	err = sess.RunTx(ctx, func(tx *tashkent.Tx) error {
		return tx.Update("t", "k", map[string][]byte{"v": []byte("x")})
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestCommitHonorsCancelledContextAllModes: a commit handed an
// already-cancelled context must return ctx.Err() in every commit
// strategy, and the session must remain usable afterwards.
func TestCommitHonorsCancelledContextAllModes(t *testing.T) {
	for _, mode := range []tashkent.Mode{tashkent.ModeBase, tashkent.ModeTashkentMW, tashkent.ModeTashkentAPI} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			db, err := tashkent.Start(tashkent.Config{Mode: mode, Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			sess := db.Session()
			tx, err := sess.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Update("t", "k", map[string][]byte{"v": []byte("x")}); err != nil {
				t.Fatal(err)
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if err := tx.Commit(cancelled); !errors.Is(err, context.Canceled) {
				t.Fatalf("Commit with cancelled ctx: want context.Canceled, got %v", err)
			}

			// The abort released the balancer slot; the session still works.
			err = sess.RunTx(context.Background(), func(tx *tashkent.Tx) error {
				return tx.Update("t", "k2", map[string][]byte{"v": []byte("y")})
			})
			if err != nil {
				t.Fatalf("session unusable after cancelled commit: %v", err)
			}
		})
	}
}

// steerFunc adapts a function to transport.Interposer.
type steerFunc func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error)

func (f steerFunc) Call(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
	return f(from, to, method, req, deliver)
}

// TestCloseWithCancelledCommitInFlight: a commit whose context is
// cancelled mid-certification leaves its round to finish detached, and
// the round takes the certifier's answer whenever it comes. Here it comes
// after Close has begun. The round has no client to tell that the proxy
// closed under the commit, so it must not wait for the store to go down
// — the store goes down only after Close has waited for the round — and
// Close returns at once instead of sleeping out a 30 s wait.
func TestCloseWithCancelledCommitInFlight(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentMW, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	db.Cluster().Fabric().SetInterposer(steerFunc(func(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
		if method == certifier.MethodCertify {
			once.Do(func() { close(held) })
			select {
			case <-release:
			case <-time.After(5 * time.Second):
			}
		}
		return deliver()
	}))

	tx, err := db.Session().Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", "k", map[string][]byte{"v": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	committed := make(chan error, 1)
	go func() { committed <- tx.Commit(ctx) }()
	<-held
	cancel()
	if err := <-committed; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled commit returned %v, want context.Canceled", err)
	}

	done := make(chan struct{})
	go func() {
		db.Close()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // Close has stopped the proxy
	close(release)
	select {
	case <-done:
		closed = true
	case <-time.After(time.Second):
		t.Fatal("db.Close did not return within 1 s of the held answer's release")
	}
}

// TestRunTxPanicReleasesResources: a panic in fn must settle the
// transaction on its way out — no leaked in-flight charge skewing
// load-sensitive routing, no row locks held until the lock timeout.
func TestRunTxPanicReleasesResources(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentMW, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx := context.Background()
	sess := db.Session()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of RunTx")
			}
		}()
		_ = sess.RunTx(ctx, func(tx *tashkent.Tx) error {
			if err := tx.Update("t", "k", map[string][]byte{"v": []byte("x")}); err != nil {
				return err
			}
			panic("application bug")
		})
	}()

	// The write lock on "k" was released: another session's update on
	// the same key commits immediately instead of hitting the lock
	// timeout or a deadlock kill.
	err = db.Session().RunTx(ctx, func(tx *tashkent.Tx) error {
		return tx.Update("t", "k", map[string][]byte{"v": []byte("y")})
	})
	if err != nil {
		t.Fatalf("update after panicked RunTx: %v", err)
	}
}

// TestCommitAsyncPipelinesCommits opens several transactions on
// disjoint keys in one session and commits them concurrently —
// ModeTashkentAPI's ordered-concurrent commit path must land them all.
func TestCommitAsyncPipelinesCommits(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentAPI, Replicas: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx := context.Background()
	sess := db.Session()
	const n = 8
	txs := make([]*tashkent.Tx, n)
	for i := range txs {
		tx, err := sess.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("t", fmt.Sprintf("k%d", i), map[string][]byte{"v": {byte(i)}}); err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	chans := make([]<-chan error, n)
	for i, tx := range txs {
		chans[i] = tx.CommitAsync(ctx)
	}
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatalf("pipelined commit %d: %v", i, err)
		}
	}

	// Every write is visible through the same session.
	err = sess.RunTx(ctx, func(tx *tashkent.Tx) error {
		for i := 0; i < n; i++ {
			v, ok, err := tx.ReadCol("t", fmt.Sprintf("k%d", i), "v")
			if err != nil || !ok || v[0] != byte(i) {
				return fmt.Errorf("k%d: got %v ok=%v err=%v", i, v, ok, err)
			}
		}
		return nil
	}, tashkent.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
}

// TestPooledPopulateThroughOneSession loads TPC-W's catalog and TPC-B's
// branches through one session's WorkloadBegin: the loader's pool opens
// its transactions on that one session concurrently (round-robin over
// the replicas, the causal token rising under it), and every replica
// ends with exactly the rows a standalone store gets from the same load.
func TestPooledPopulateThroughOneSession(t *testing.T) {
	gens := []workload.Generator{
		&workload.TPCW{Items: 1800},
		&workload.TPCB{Branches: 12, TellersPerBranch: 3, AccountsPerBranch: 20},
	}
	ctx := context.Background()
	alone := mvstore.Open(mvstore.Config{})
	defer alone.Close()
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeBase, Replicas: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	begin := db.Session().WorkloadBegin()
	for _, gen := range gens {
		if err := gen.Populate(ctx, workload.Plain(func() (workload.PlainTx, error) { return alone.Begin() })); err != nil {
			t.Fatal(err)
		}
		if err := gen.Populate(ctx, begin); err != nil {
			t.Fatalf("%s through a session: %v", gen.Name(), err)
		}
	}
	if err := db.Cluster().ConvergeAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, fp := range db.Cluster().Fingerprints() {
		if want := alone.Fingerprint(); fp != want {
			t.Errorf("replica %d fingerprint %08x, standalone load %08x", i, fp, want)
		}
	}
}

// TestSessionMixedLoadKeepsBreakersClosed drives the TPC-W shopping mix
// — snapshot reads of well under a millisecond beside updates that each
// pay certification and a 5 ms log flush — through two sessions over
// two healthy Base replicas. Neither replica's breaker may open: the
// router judges a replica's reads against its peer's reads and its
// updates against its peer's updates, so the mix itself never looks
// like a gray replica.
func TestSessionMixedLoadKeepsBreakersClosed(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{
		Mode:             tashkent.ModeBase,
		Replicas:         2,
		DiskProfile:      simdisk.Profile{FsyncLatency: 5 * time.Millisecond},
		DedicatedLogDisk: true,
		Seed:             42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	gen := &workload.TPCW{Items: 400, CPUWork: 200}
	begins := []workload.BeginFunc{db.Session().WorkloadBegin(), db.Session().WorkloadBegin()}
	if err := gen.Populate(ctx, begins[0]); err != nil {
		t.Fatal(err)
	}
	const clientsPerSession, txnsPerClient = 4, 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	var opened []string
	for s := range begins {
		for cl := 0; cl < clientsPerSession; cl++ {
			s, cl := s, cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(s<<8 | cl)))
				for k := 0; k < txnsPerClient; k++ {
					run, readOnly := gen.Next(r, s, cl)
					tx, err := begins[s](ctx, readOnly)
					if err != nil {
						t.Error(err)
						return
					}
					if err := run(tx); err != nil {
						tx.Abort()
					} else if err := tx.Commit(ctx); err != nil && !tashkent.IsAborted(err) {
						t.Error(err)
						return
					}
					for i := 0; i < db.Replicas(); i++ {
						if state, _, _, _ := db.RouterCounters().Health(i); state != "closed" {
							mu.Lock()
							opened = append(opened, fmt.Sprintf("replica %d %s after transaction %d of client %d/%d", i, state, k, s, cl))
							mu.Unlock()
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	if len(opened) > 0 {
		t.Errorf("%d breaker readings not closed under a healthy mix; first: %s", len(opened), opened[0])
	}
	for i := 0; i < db.Replicas(); i++ {
		state, readLat, updateLat, errRate := db.RouterCounters().Health(i)
		t.Logf("replica %d: %s, read EWMA %v, update EWMA %v, error rate %.2f", i, state, readLat, updateLat, errRate)
	}
}

// TestSessionAbortAndFailedBeginMoveNoLatency: the router's latency
// averages hear only outcomes the replica answers for. An explicit
// Abort is the client's choice and reports nothing; a Begin that fails
// on a crashed replica moves its error rate and no latency.
func TestSessionAbortAndFailedBeginMoveNoLatency(t *testing.T) {
	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentMW, Replicas: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	sess := db.Session()
	for k := 0; k < 4; k++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("t", "k", map[string][]byte{"v": []byte("1")}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		tx.Abort()
	}
	for i := 0; i < db.Replicas(); i++ {
		if _, readLat, updateLat, errRate := db.RouterCounters().Health(i); readLat != 0 || updateLat != 0 || errRate != 0 {
			t.Errorf("aborts moved replica %d's score: read %v, update %v, error rate %.2f", i, readLat, updateLat, errRate)
		}
	}

	db.Cluster().CrashReplica(0)
	for k := 0; k < 2; k++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if tx.Replica() != 1 {
			t.Fatalf("Begin landed on crashed replica %d", tx.Replica())
		}
		tx.Abort()
	}
	_, readLat, updateLat, errRate := db.RouterCounters().Health(0)
	if errRate == 0 {
		t.Error("a failed Begin on the crashed replica did not count as a failure")
	}
	if readLat != 0 || updateLat != 0 {
		t.Errorf("a failed Begin moved replica 0's latency EWMAs to %v / %v", readLat, updateLat)
	}
}
