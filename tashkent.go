// Package tashkent is a from-scratch Go reproduction of the
// replicated database system from "Tashkent: Uniting Durability with
// Transaction Ordering for High-Performance Scalable Database
// Replication" (Elnikety, Dropsho, Pedone — EuroSys 2006).
//
// It provides a fully replicated snapshot-isolated database: every
// transaction, read-only or update, runs on a single replica; a
// replicated certifier decides the global commit order of update
// transactions via writeset certification (generalized snapshot
// isolation). Three commit strategies are available, matching the
// paper's three systems:
//
//   - ModeBase — ordering in the middleware, durability in the
//     database: commits serialize, one fsync each (the bottleneck the
//     paper identifies).
//   - ModeTashkentMW — durability moves into the certifier's
//     group-committed log; replica commits are in-memory.
//   - ModeTashkentAPI — the database's commit API takes the global
//     order (COMMIT <seq>), so commits submit concurrently and share
//     fsyncs while announcing in order.
//
// Clients do not address replicas directly: as in the paper's
// architecture, a load balancer routes every transaction. Open a
// Session — its routing policy picks a replica per transaction and its
// causal token guarantees monotonic reads and read-your-writes across
// replicas — and run transactions through the auto-retrying executor:
//
//	db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentMW, Replicas: 3})
//	defer db.Close()
//	sess := db.Session(tashkent.WithPolicy(tashkent.LeastInFlight()))
//	err = sess.RunTx(ctx, func(tx *tashkent.Tx) error {
//		return tx.Update("accounts", "alice", map[string][]byte{"balance": []byte("100")})
//	})
//
// RunTx transparently retries the benign certification aborts inherent
// to generalized snapshot isolation; any other error surfaces
// immediately. For explicit control, Session.Begin returns a *Tx whose
// Commit takes a context and whose CommitAsync pipelines commits
// (exploiting ModeTashkentAPI's concurrent ordered commit).
//
// See README.md for a quickstart, DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-figure reproductions.
package tashkent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/cluster"
	"tashkent/internal/proxy"
	"tashkent/internal/replica"
	"tashkent/internal/router"
	"tashkent/internal/simdisk"
	"tashkent/internal/workload"
)

// Mode selects the commit strategy (the paper's three systems).
type Mode = proxy.Mode

// The available modes.
const (
	ModeBase        = proxy.Base
	ModeTashkentMW  = proxy.TashkentMW
	ModeTashkentAPI = proxy.TashkentAPI
)

// ErrAborted is returned from a commit when certification found a
// write-write conflict; retry the transaction against a fresh
// snapshot (RunTx does so automatically).
var ErrAborted = proxy.ErrCertificationAbort

// IsAborted reports whether an error from a transaction operation or
// commit is a benign snapshot-isolation abort — a certification
// conflict, a local first-committer-wins conflict, a deadlock victim,
// or a middleware kill in favour of a remote writeset. Such
// transactions can simply be retried against a fresh snapshot.
func IsAborted(err error) bool { return workload.IsAbort(err) }

// ErrOverloaded is returned from a commit the certifier shed under
// admission control. It is retryable — RunTx retries it automatically,
// honoring the server's retry-after hint as its backoff floor.
var ErrOverloaded = certifier.ErrOverloaded

// OverloadedError is the concrete shed error: errors.As against it
// recovers the server's RetryAfter hint (how long the certification
// queue is expected to take to drain).
type OverloadedError = certifier.OverloadedError

// ErrDegraded is returned from a commit when the certifier group has
// lost quorum and the client breaker opened: writes fail fast instead
// of hanging for the full retry budget. Not retryable by RunTx — the
// outage is expected to outlast a retry cycle. Snapshot reads keep
// working throughout (see ErrReadOnlyDegraded).
var ErrDegraded = certifier.ErrDegraded

// ErrReadOnlyDegraded wraps write failures while a replica is degraded
// to read-only service: the certifier tier is unreachable, so the
// replica keeps serving snapshot reads at its last merged version and
// rejects updates immediately with this error.
var ErrReadOnlyDegraded = proxy.ErrReadOnlyDegraded

// IsDegraded reports whether an error means the certifier tier is
// unreachable and the system is in read-only degraded service.
func IsDegraded(err error) bool {
	return errors.Is(err, ErrDegraded) || errors.Is(err, ErrReadOnlyDegraded)
}

// Config configures a database. The zero value of optional fields
// picks sensible defaults (3 certifiers, instant disks, optimizations
// on).
type Config struct {
	// Mode is the commit strategy (required).
	Mode Mode
	// Replicas is the number of database replicas (default 1).
	Replicas int
	// Certifiers sizes the certifier group (default 3).
	Certifiers int
	// DiskProfile models the disks; zero means instant (in-memory
	// speed). Use simdisk.Paper() (exposed as PaperDisks) to get the
	// paper's 8 ms-fsync disk.
	DiskProfile simdisk.Profile
	// DedicatedLogDisk puts database files on ramdisk so the disk
	// serves only the log.
	DedicatedLogDisk bool
	// StalenessBound makes idle replicas pull updates after this long
	// (default 1 s; 0 keeps the default, negative disables).
	StalenessBound time.Duration
	// CertTimeout bounds how long a commit keeps failing over between
	// certifier nodes before the group is reported unreachable and the
	// session's degradation breaker starts counting (0 = 10 s).
	CertTimeout time.Duration
	// AdmitTimeout is the certifier's admission budget: a commit
	// request expected to wait longer than this in the certification
	// queue is shed with ErrOverloaded and a retry-after hint instead
	// of queueing unboundedly (0 = 1 s default; negative disables
	// shedding).
	AdmitTimeout time.Duration
	// Seed fixes all simulated randomness.
	Seed int64
}

// PaperDisks returns the disk latency profile of the paper's testbed
// (8 ms fsync), optionally scaled down by div to run sweeps quickly.
func PaperDisks(div int) simdisk.Profile {
	p := simdisk.Paper()
	if div > 1 {
		p = p.Scaled(div)
	}
	return p
}

// DB is a running replicated database.
type DB struct {
	c *cluster.Cluster

	// counters is the shared per-replica in-flight accounting every
	// session's balancer charges, so load-sensitive policies see the
	// cluster's true load rather than one session's.
	counters *router.Counters

	defOnce sync.Once
	defSess *Session
}

// Start builds and starts the replicated system.
func Start(cfg Config) (*DB, error) {
	sb := cfg.StalenessBound
	if sb == 0 {
		sb = time.Second
	} else if sb < 0 {
		sb = 0
	}
	c, err := cluster.New(cluster.Config{
		Mode:             cfg.Mode,
		Replicas:         cfg.Replicas,
		Certifiers:       cfg.Certifiers,
		IOProfile:        cfg.DiskProfile,
		DedicatedIO:      cfg.DedicatedLogDisk,
		StalenessBound:   sb,
		CertTimeout:      cfg.CertTimeout,
		CertAdmitTimeout: cfg.AdmitTimeout,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{c: c, counters: router.NewCounters(c.Replicas())}
	// A crashed replica's open transactions are gone with it: drop
	// their routing charges so load-sensitive policies see the replica
	// as idle when it rejoins.
	c.OnReplicaCrash(db.counters.Reset)
	return db, nil
}

// Replicas returns the replica count.
func (db *DB) Replicas() int { return db.c.Replicas() }

// Replica exposes a replica node (crash/recovery, stats, dumps); nil
// if i is out of range.
func (db *DB) Replica(i int) *replica.Replica { return db.c.Replica(i) }

// Cluster exposes the underlying cluster for advanced orchestration
// (failure injection, certifier access, convergence helpers).
func (db *DB) Cluster() *cluster.Cluster { return db.c }

// RouterCounters exposes the shared per-replica routing state —
// in-flight accounting and circuit-breaker health scores — for harness
// output and tests.
func (db *DB) RouterCounters() *router.Counters { return db.counters }

// Converge brings every replica up to the current global version —
// useful before consistency checks or snapshots.
func (db *DB) Converge(timeout time.Duration) error {
	return db.c.ConvergeAll(timeout)
}

// Close shuts the system down.
func (db *DB) Close() { db.c.Close() }

// --- Routing policies ---

// Policy decides which replica each session transaction begins on; see
// RoundRobin, LeastInFlight and ReadWriteSplit.
type Policy = router.Policy

// RoundRobin returns the uniform rotation policy (the default).
func RoundRobin() Policy { return router.NewRoundRobin() }

// LeastInFlight returns the policy that begins each transaction on the
// replica with the fewest open transactions, absorbing load skew.
func LeastInFlight() Policy { return router.NewLeastInFlight() }

// ReadWriteSplit returns the policy that fans read-only transactions
// out across all replicas while confining updates to the first
// writers replicas, shrinking the certification conflict window.
// Declare reads with the ReadOnly option for the split to apply.
func ReadWriteSplit(writers int) Policy { return router.NewReadWriteSplit(writers) }

// --- Sessions ---

// SessionOption customizes a Session.
type SessionOption func(*sessionOpts)

type sessionOpts struct {
	policy     Policy
	maxRetries int
	backoff    time.Duration
	backoffCap time.Duration
}

// WithPolicy selects the session's routing policy (default
// RoundRobin).
func WithPolicy(p Policy) SessionOption {
	return func(o *sessionOpts) { o.policy = p }
}

// WithMaxRetries bounds how many times RunTx retries a benign abort
// before giving up (default 8; 0 disables retries).
func WithMaxRetries(n int) SessionOption {
	return func(o *sessionOpts) { o.maxRetries = n }
}

// WithBackoff sets RunTx's retry backoff: the first retry waits base,
// doubling up to cap (defaults 1 ms and 64 ms).
func WithBackoff(base, cap time.Duration) SessionOption {
	return func(o *sessionOpts) { o.backoff, o.backoffCap = base, cap }
}

// Session is a client's ordered view of the database. Each Begin
// routes through the session's load-balancing policy, and the
// session's causal token — the highest commit version it has observed
// — guarantees monotonic reads and read-your-writes even when
// consecutive transactions land on different replicas: Begin waits,
// bounded by its context, until the chosen replica has caught up to
// the token.
//
// Sessions are safe for concurrent use; concurrent transactions in one
// session see each other's commits only after they complete (the token
// is advanced at commit).
type Session struct {
	db    *DB
	bal   *router.Balancer
	opts  sessionOpts
	token atomic.Uint64
}

// Session opens a new session over the database's replicas.
func (db *DB) Session(opts ...SessionOption) *Session {
	o := sessionOpts{
		maxRetries: 8,
		backoff:    time.Millisecond,
		backoffCap: 64 * time.Millisecond,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.policy == nil {
		o.policy = RoundRobin()
	}
	if o.maxRetries < 0 {
		o.maxRetries = 0
	}
	if o.backoff <= 0 {
		o.backoff = time.Millisecond
	}
	if o.backoffCap < o.backoff {
		o.backoffCap = o.backoff
	}
	return &Session{
		db:   db,
		bal:  router.NewSharedBalancer(db.counters, o.policy),
		opts: o,
	}
}

// session returns the DB's shared default session (round-robin), used
// by DB.RunTx.
func (db *DB) session() *Session {
	db.defOnce.Do(func() { db.defSess = db.Session() })
	return db.defSess
}

// Token returns the session's causal token: the highest global commit
// version the session has observed.
func (s *Session) Token() uint64 { return s.token.Load() }

// observe raises the causal token to v.
func (s *Session) observe(v uint64) {
	for {
		cur := s.token.Load()
		if v <= cur || s.token.CompareAndSwap(cur, v) {
			return
		}
	}
}

// TxOption customizes one transaction.
type TxOption func(*txOpts)

type txOpts struct {
	readOnly bool
}

// ReadOnly declares the transaction read-only, letting routing
// policies (ReadWriteSplit) fan it out beyond the writer set. Purely
// advisory: a transaction that writes anyway still certifies normally.
func ReadOnly() TxOption {
	return func(o *txOpts) { o.readOnly = true }
}

// Begin opens a transaction on a replica chosen by the session's
// policy. It waits — bounded by ctx — until that replica's version
// reaches the session's causal token, so the snapshot includes
// everything the session has already observed. Replicas that fail
// (crashed, mid-recovery) are skipped and another is tried.
func (s *Session) Begin(ctx context.Context, opts ...TxOption) (*Tx, error) {
	var o txOpts
	for _, fn := range opts {
		fn(&o)
	}
	n := s.bal.N()
	var excluded []bool
	var lastErr error
	for attempt := 0; attempt < n; attempt++ {
		i, release := s.bal.Acquire(o.readOnly, excluded)
		if excluded != nil && excluded[i] {
			// Every candidate the policy may use has failed.
			release()
			break
		}
		err := s.db.c.WaitVersion(ctx, i, s.token.Load())
		var inner *proxy.Tx
		if err == nil {
			inner, err = s.db.c.Begin(i)
		}
		if err == nil {
			return &Tx{inner: inner, sess: s, replica: i, release: release, started: time.Now()}, nil
		}
		release()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// A replica that cannot even open a transaction is a failure
		// signal for its health score as well as for this attempt.
		s.db.counters.Observe(i, 0, true)
		lastErr = err
		if excluded == nil {
			excluded = make([]bool, n)
		}
		excluded[i] = true
	}
	return nil, fmt.Errorf("tashkent: no replica available: %w", lastErr)
}

// RunTx executes fn inside a transaction and commits it, retrying
// benign snapshot-isolation aborts (certification conflicts, deadlock
// victims, middleware kills) with capped exponential backoff. Any
// other error — and ctx cancellation — surfaces immediately. fn may
// run multiple times and must be side-effect free outside the
// transaction. If fn finished the transaction itself (Abort, for a
// business-level "give up"), RunTx returns fn's result without
// committing.
func (s *Session) RunTx(ctx context.Context, fn func(*Tx) error, opts ...TxOption) error {
	backoff := s.opts.backoff
	var lastErr error
	for attempt := 0; attempt <= s.opts.maxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > s.opts.backoffCap {
				backoff = s.opts.backoffCap
			}
		}
		tx, err := s.Begin(ctx, opts...)
		if err != nil {
			return err
		}
		err = s.runAttempt(ctx, tx, fn)
		if err == nil {
			return nil
		}
		if !IsAborted(err) {
			if ra, ok := certifier.RetryAfter(err); ok {
				// Load shed by the certifier: retryable, but never
				// faster than the server's retry-after hint — hammering
				// an overloaded certifier is how goodput collapses.
				if ra > backoff {
					backoff = ra
				}
				lastErr = err
				continue
			}
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("tashkent: transaction aborted %d times, giving up: %w",
		s.opts.maxRetries+1, lastErr)
}

// runAttempt executes one RunTx attempt: fn, then commit unless fn
// already settled the transaction. The deferred abort fires only when
// fn panics — every normal path finishes the transaction — so a panic
// unwinding through application code cannot leak the balancer's
// in-flight charge or leave row locks held until the lock timeout.
func (s *Session) runAttempt(ctx context.Context, tx *Tx, fn func(*Tx) error) error {
	defer func() {
		if !tx.isFinished() {
			tx.Abort()
		}
	}()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	if tx.isFinished() {
		return nil // fn resolved the transaction itself
	}
	return tx.Commit(ctx)
}

// RunTx runs fn through the database's default (round-robin) session;
// see Session.RunTx.
func (db *DB) RunTx(ctx context.Context, fn func(*Tx) error, opts ...TxOption) error {
	return db.session().RunTx(ctx, fn, opts...)
}

// WorkloadBegin adapts the session to the internal workload driver,
// forwarding each transaction's read-only classification to the
// routing policy. The driver cannot import this package (cycle), so
// the one adapter lives here for the harness and examples to share.
func (s *Session) WorkloadBegin() workload.BeginFunc {
	return func(ctx context.Context, readOnly bool) (workload.Tx, error) {
		if readOnly {
			return s.Begin(ctx, ReadOnly())
		}
		return s.Begin(ctx)
	}
}

// --- Transactions ---

// Tx is a session transaction. Reads and writes execute against the
// chosen replica's snapshot; Commit runs the replication protocol
// (certification and globally ordered commit) and honors its context.
type Tx struct {
	inner   *proxy.Tx
	sess    *Session
	replica int
	release func()
	started time.Time
	done    atomic.Bool
}

// Replica returns the replica index this transaction was routed to.
func (t *Tx) Replica() int { return t.replica }

// finish settles session bookkeeping exactly once: the causal token
// advances to the commit version (the snapshot's observed ceiling for
// reads and aborts — the session saw that much state) and the
// balancer's in-flight charge is released.
func (t *Tx) finish() {
	if !t.done.CompareAndSwap(false, true) {
		return
	}
	if v := t.inner.CommitVersion(); v > 0 {
		t.sess.observe(v)
	} else {
		t.sess.observe(t.inner.ObservedVersion())
	}
	t.release()
}

// isFinished reports whether Commit or Abort already ran.
func (t *Tx) isFinished() bool { return t.done.Load() }

// Read returns the row visible in the transaction snapshot. The map
// is a shared immutable row version (see mvstore.Tx.Read); callers
// must not modify it.
func (t *Tx) Read(table, key string) (map[string][]byte, bool, error) {
	return t.inner.Read(table, key)
}

// ReadCol returns one column.
func (t *Tx) ReadCol(table, key, col string) ([]byte, bool, error) {
	return t.inner.ReadCol(table, key, col)
}

// Insert writes a full row.
func (t *Tx) Insert(table, key string, cols map[string][]byte) error {
	return t.inner.Insert(table, key, cols)
}

// Update modifies columns.
func (t *Tx) Update(table, key string, cols map[string][]byte) error {
	return t.inner.Update(table, key, cols)
}

// Delete removes a row.
func (t *Tx) Delete(table, key string) error {
	return t.inner.Delete(table, key)
}

// observeOutcome feeds the shared router health score with this
// transaction's end-to-end latency. Only replica-attributable failures
// count against the replica: certification aborts are workload
// contention, overload/degradation is the certifier tier's state, and
// a cancellation is the caller's doing — ejecting a healthy replica
// for any of those would amplify the incident instead of containing
// it.
func (t *Tx) observeOutcome(ctx context.Context, err error) {
	if t.started.IsZero() || t.done.Load() {
		return
	}
	failed := err != nil && !IsAborted(err) && !IsDegraded(err) &&
		!errors.Is(err, ErrOverloaded) && (ctx == nil || ctx.Err() == nil)
	t.sess.db.counters.Observe(t.replica, time.Since(t.started), failed)
}

// Abort rolls the transaction back. The session still observes the
// snapshot version, keeping reads monotonic.
func (t *Tx) Abort() error {
	err := t.inner.Abort()
	t.observeOutcome(nil, nil)
	t.finish()
	return err
}

// Commit certifies and commits the transaction. Read-only
// transactions commit locally and immediately. ctx bounds the
// certification round trip: on cancellation Commit returns ctx.Err(),
// the outcome is unknown (the certifier may still commit the
// writeset), and the proxy resolves it in the background.
func (t *Tx) Commit(ctx context.Context) error {
	err := t.inner.CommitCtx(ctx)
	t.observeOutcome(ctx, err)
	t.finish()
	return err
}

// CommitAsync starts Commit in the background and returns a channel
// that delivers its result. Under ModeTashkentAPI concurrent commits
// share fsyncs while announcing in global order, so pipelining commits
// this way raises a single session's update throughput.
func (t *Tx) CommitAsync(ctx context.Context) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- t.Commit(ctx) }()
	return ch
}

// CommitVersion returns the transaction's position in the global
// commit order (zero until a successful Commit).
func (t *Tx) CommitVersion() uint64 { return t.inner.CommitVersion() }

// SnapshotVersion returns the global version this transaction's
// snapshot was taken at.
func (t *Tx) SnapshotVersion() uint64 { return t.inner.SnapshotVersion() }

// ObservedVersion returns the freshest version the replica had applied
// when the snapshot was taken — with SnapshotVersion, the staleness
// window the chaos checker's SI invariant verifies reads against.
func (t *Tx) ObservedVersion() uint64 { return t.inner.ObservedVersion() }

// ensure the session transaction satisfies the workload driver's
// client interface (compile-time check; workload cannot import this
// package).
var _ workload.Tx = (*Tx)(nil)
