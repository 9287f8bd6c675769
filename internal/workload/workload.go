// Package workload implements the paper's three benchmarks (§9.1) as
// transaction-level models plus the closed-loop client driver:
//
//   - AllUpdates: back-to-back short non-conflicting update
//     transactions, average writeset 54 bytes — the worst case for a
//     replicated system.
//   - TPC-B: small read+write transactions over the branch / teller /
//     account / history schema, average writeset 158 bytes, with
//     genuine write-write conflicts on the hot branch rows (the source
//     of the ~35 % artificial-conflict rate the paper measures for
//     Tashkent-API).
//   - TPC-W (shopping mix): 80 % read-only / 20 % update transactions
//     over an online bookstore, average writeset 275 bytes, with
//     CPU-heavy reads so processing, not the disk, is the bottleneck.
package workload

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"time"

	"tashkent/internal/metrics"
	"tashkent/internal/mvstore"
	"tashkent/internal/proxy"
)

// Tx is the client-visible transaction interface, matching the public
// session API's transactions (context-aware commit). Storage-layer
// handles with context-free commits adapt through Plain.
type Tx interface {
	Read(table, key string) (map[string][]byte, bool, error)
	ReadCol(table, key, col string) ([]byte, bool, error)
	Insert(table, key string, cols map[string][]byte) error
	Update(table, key string, cols map[string][]byte) error
	Delete(table, key string) error
	Commit(ctx context.Context) error
	Abort() error
}

// BeginFunc opens one transaction at some endpoint. readOnly passes
// the workload's classification of the upcoming transaction so
// session routing policies can split reads from updates.
type BeginFunc func(ctx context.Context, readOnly bool) (Tx, error)

// PlainTx is the context-free transaction shape of the storage and
// proxy layers (*mvstore.Tx, *proxy.Tx).
type PlainTx interface {
	Read(table, key string) (map[string][]byte, bool, error)
	ReadCol(table, key, col string) ([]byte, bool, error)
	Insert(table, key string, cols map[string][]byte) error
	Update(table, key string, cols map[string][]byte) error
	Delete(table, key string) error
	Commit() error
	Abort() error
}

// plainTx adapts a PlainTx to the context-aware Tx interface.
type plainTx struct{ PlainTx }

// Commit honors already-expired contexts, then delegates.
func (t plainTx) Commit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		t.PlainTx.Abort()
		return err
	}
	return t.PlainTx.Commit()
}

// Plain adapts a context-free begin (standalone store, pinned replica)
// to a BeginFunc, ignoring the routing hint.
func Plain(begin func() (PlainTx, error)) BeginFunc {
	return func(ctx context.Context, _ bool) (Tx, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inner, err := begin()
		if err != nil {
			return nil, err
		}
		return plainTx{inner}, nil
	}
}

// Generator produces the transactions of one benchmark.
type Generator interface {
	// Name identifies the benchmark.
	Name() string
	// Populate loads the initial database through the given endpoint.
	Populate(ctx context.Context, begin BeginFunc) error
	// Next returns the body of the next transaction for a client.
	// readOnly classifies the transaction for response-time splits.
	Next(r *rand.Rand, replicaID, clientID int) (run func(Tx) error, readOnly bool)
}

// IsAbort classifies errors that count as benign transaction aborts
// (snapshot-isolation conflicts, certification aborts, middleware
// kills); a closed-loop client counts them and moves on.
func IsAbort(err error) bool {
	return errors.Is(err, proxy.ErrCertificationAbort) ||
		errors.Is(err, mvstore.ErrWriteConflict) ||
		errors.Is(err, mvstore.ErrTxKilled) ||
		errors.Is(err, mvstore.ErrDeadlock) ||
		errors.Is(err, mvstore.ErrLockTimeout)
}

// --- Initial load ---

// loaders is how many of a Populate's insert batches commit at once. The
// batches touch disjoint keys, so they never conflict; committing a few
// side by side lets them share certifier and replica fsyncs the way
// client commits do, instead of paying one disk flush each.
const loaders = 8

// loadBatches commits every batch as one transaction opened through
// begin, at most width at a time, and returns the first error. No batch
// starts after an error or once ctx is cancelled; batches already
// running finish.
func loadBatches(ctx context.Context, begin BeginFunc, width int, batches []func(Tx) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
	)
	// take hands out the next batch to start, or nil when the load is over.
	take := func() func(Tx) error {
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = ctx.Err()
		}
		if first != nil || next == len(batches) {
			return nil
		}
		next++
		return batches[next-1]
	}
	var wg sync.WaitGroup
	for w := 0; w < width && w < len(batches); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for load := take(); load != nil; load = take() {
				if err := loadBatch(ctx, begin, load); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// loadBatch runs one batch in a transaction of its own.
func loadBatch(ctx context.Context, begin BeginFunc, load func(Tx) error) error {
	tx, err := begin(ctx, false)
	if err != nil {
		return err
	}
	if err := load(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit(ctx)
}

// --- AllUpdates ---

// AllUpdates is the paper's synthetic worst case: every transaction is
// one update; keys are partitioned per client so there are no
// conflicts.
type AllUpdates struct {
	// RowsPerClient bounds each client's key range (default 64).
	RowsPerClient int
	// ZipfTheta switches key selection from per-client disjoint ranges
	// to a zipfian draw over one shared keyspace of SharedKeys rows, so
	// concurrent clients collide on hot keys — the adversarial input
	// for dependency-tracked parallel apply. Must be > 1 to take effect
	// (the stdlib zipf generator's constraint); 0 keeps the paper's
	// conflict-free workload.
	ZipfTheta float64
	// SharedKeys sizes the shared zipfian keyspace (default 1024).
	SharedKeys int
}

// allUpdatesValueLen pads the single updated value so the encoded
// writeset is 54 bytes, matching the paper's reported average.
const allUpdatesValueLen = 24

// Name implements Generator.
func (*AllUpdates) Name() string { return "AllUpdates" }

func (g *AllUpdates) rows() int {
	if g.RowsPerClient <= 0 {
		return 64
	}
	return g.RowsPerClient
}

func (g *AllUpdates) sharedKeys() uint64 {
	if g.SharedKeys <= 0 {
		return 1024
	}
	return uint64(g.SharedKeys)
}

// Populate implements Generator. AllUpdates needs no preloaded rows:
// updates create rows on first touch.
func (*AllUpdates) Populate(context.Context, BeginFunc) error { return nil }

// Next implements Generator.
func (g *AllUpdates) Next(r *rand.Rand, replicaID, clientID int) (func(Tx) error, bool) {
	var key string
	if g.ZipfTheta > 1 {
		z := rand.NewZipf(r, g.ZipfTheta, 1, g.sharedKeys()-1)
		key = fmt.Sprintf("zk%06d", z.Uint64())
	} else {
		key = fmt.Sprintf("r%02dc%02dk%03d", replicaID, clientID, r.Intn(g.rows()))
	}
	val := make([]byte, allUpdatesValueLen)
	r.Read(val)
	return func(tx Tx) error {
		return tx.Update("au", key, map[string][]byte{"v": val})
	}, false
}

// --- TPC-B ---

// TPCB models the TPC-B transaction profile: read an account balance,
// then update the account, its teller and its branch, and insert a
// history row. Branch rows are hot and conflict.
type TPCB struct {
	// Branches is the number of branch rows (default 8). Fewer
	// branches raise the conflict rate.
	Branches int
	// TellersPerBranch and AccountsPerBranch size the schema
	// (defaults 10 and 1000).
	TellersPerBranch  int
	AccountsPerBranch int
}

func (g *TPCB) dims() (b, t, a int) {
	b, t, a = g.Branches, g.TellersPerBranch, g.AccountsPerBranch
	if b <= 0 {
		b = 8
	}
	if t <= 0 {
		t = 10
	}
	if a <= 0 {
		a = 1000
	}
	return b, t, a
}

// Name implements Generator.
func (*TPCB) Name() string { return "TPC-B" }

// Populate implements Generator.
func (g *TPCB) Populate(ctx context.Context, begin BeginFunc) error {
	return loadBatches(ctx, begin, loaders, g.batches())
}

// batches returns the initial database as insert batches over
// disjoint keys, moderate in size to keep writesets bounded: per branch,
// its row with its tellers, then its accounts 250 at a time.
func (g *TPCB) batches() []func(Tx) error {
	b, tl, acc := g.dims()
	zero := []byte("00000000")
	var batches []func(Tx) error
	for i := 0; i < b; i++ {
		i := i
		batches = append(batches, func(tx Tx) error {
			if err := tx.Insert("branches", fmt.Sprintf("b%03d", i),
				map[string][]byte{"balance": zero}); err != nil {
				return err
			}
			for j := 0; j < tl; j++ {
				if err := tx.Insert("tellers", fmt.Sprintf("b%03dt%03d", i, j),
					map[string][]byte{"balance": zero}); err != nil {
					return err
				}
			}
			return nil
		})
		for lo := 0; lo < acc; lo += 250 {
			lo := lo
			hi := lo + 250
			if hi > acc {
				hi = acc
			}
			batches = append(batches, func(tx Tx) error {
				for k := lo; k < hi; k++ {
					if err := tx.Insert("accounts", fmt.Sprintf("b%03da%06d", i, k),
						map[string][]byte{"balance": zero}); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	return batches
}

// Next implements Generator.
func (g *TPCB) Next(r *rand.Rand, replicaID, clientID int) (func(Tx) error, bool) {
	b, tl, acc := g.dims()
	branch := r.Intn(b)
	teller := r.Intn(tl)
	account := r.Intn(acc)
	delta := r.Intn(10000)
	histKey := fmt.Sprintf("h%08x", r.Uint32())
	pad := make([]byte, 4) // history filler sizes the writeset to ~158 B
	r.Read(pad)
	return func(tx Tx) error {
		aKey := fmt.Sprintf("b%03da%06d", branch, account)
		bal, _, err := tx.ReadCol("accounts", aKey, "balance")
		if err != nil {
			return err
		}
		_ = bal
		v := []byte(fmt.Sprintf("%04d", delta))
		if err := tx.Update("accounts", aKey, map[string][]byte{"balance": v}); err != nil {
			return err
		}
		if err := tx.Update("tellers", fmt.Sprintf("b%03dt%03d", branch, teller),
			map[string][]byte{"balance": v}); err != nil {
			return err
		}
		if err := tx.Update("branches", fmt.Sprintf("b%03d", branch),
			map[string][]byte{"balance": v}); err != nil {
			return err
		}
		return tx.Insert("history", histKey, map[string][]byte{"rec": pad})
	}, false
}

// --- TPC-W (shopping mix) ---

// TPCW models the TPC-W shopping mix: 80 % read-only browsing
// transactions with CPU-heavy processing, 20 % order-placement
// updates.
type TPCW struct {
	// Items sizes the catalog (default 1000).
	Items int
	// ReadsPerBrowse is the number of item lookups per browsing
	// transaction (default 6).
	ReadsPerBrowse int
	// CPUWork is the per-read CPU spin amount (default 2000 CRC
	// rounds) making processing the bottleneck, as in the paper.
	CPUWork int
	// UpdateFraction is the update-transaction share (default 0.2,
	// the shopping mix).
	UpdateFraction float64
}

func (g *TPCW) items() int {
	if g.Items <= 0 {
		return 1000
	}
	return g.Items
}

func (g *TPCW) updateFraction() float64 {
	if g.UpdateFraction <= 0 {
		return 0.2
	}
	return g.UpdateFraction
}

func (g *TPCW) reads() int {
	if g.ReadsPerBrowse <= 0 {
		return 6
	}
	return g.ReadsPerBrowse
}

func (g *TPCW) cpu() int {
	if g.CPUWork <= 0 {
		return 2000
	}
	return g.CPUWork
}

// Name implements Generator.
func (*TPCW) Name() string { return "TPC-W" }

// Populate implements Generator.
func (g *TPCW) Populate(ctx context.Context, begin BeginFunc) error {
	return loadBatches(ctx, begin, loaders, g.batches())
}

// batches returns the catalog as insert batches of 200 items.
func (g *TPCW) batches() []func(Tx) error {
	n := g.items()
	desc := make([]byte, 160) // bookstore rows are comparatively fat
	var batches []func(Tx) error
	for lo := 0; lo < n; lo += 200 {
		lo := lo
		hi := lo + 200
		if hi > n {
			hi = n
		}
		batches = append(batches, func(tx Tx) error {
			for i := lo; i < hi; i++ {
				if err := tx.Insert("items", fmt.Sprintf("i%06d", i), map[string][]byte{
					"stock": []byte("00010000"),
					"desc":  desc,
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return batches
}

// spin burns CPU deterministically, modelling the paper's
// "heavy-weight transactions [that] make CPU processing the
// bottleneck".
func spin(rounds int) uint32 {
	var buf [64]byte
	var acc uint32
	for i := 0; i < rounds; i++ {
		buf[i%64]++
		acc ^= crc32.ChecksumIEEE(buf[:])
	}
	return acc
}

// Next implements Generator.
func (g *TPCW) Next(r *rand.Rand, replicaID, clientID int) (func(Tx) error, bool) {
	n := g.items()
	if r.Float64() >= g.updateFraction() {
		// Browsing: several item reads, each with CPU processing.
		keys := make([]string, g.reads())
		for i := range keys {
			keys[i] = fmt.Sprintf("i%06d", r.Intn(n))
		}
		cpu := g.cpu()
		return func(tx Tx) error {
			for _, k := range keys {
				if _, _, err := tx.Read("items", k); err != nil {
					return err
				}
				spin(cpu)
			}
			return nil
		}, true
	}
	// Order placement: read the cart items, update stock, insert the
	// order (~275 B writeset).
	item1 := fmt.Sprintf("i%06d", r.Intn(n))
	item2 := fmt.Sprintf("i%06d", r.Intn(n))
	orderKey := fmt.Sprintf("o%02d%02d%08x", replicaID, clientID, r.Uint32())
	payload := make([]byte, 150)
	r.Read(payload)
	stock := []byte(fmt.Sprintf("%08d", r.Intn(10000)))
	cpu := g.cpu()
	return func(tx Tx) error {
		for _, k := range []string{item1, item2} {
			if _, _, err := tx.Read("items", k); err != nil {
				return err
			}
			spin(cpu / 2)
		}
		if err := tx.Update("items", item1, map[string][]byte{"stock": stock}); err != nil {
			return err
		}
		if err := tx.Update("items", item2, map[string][]byte{"stock": stock}); err != nil {
			return err
		}
		return tx.Insert("orders", orderKey, map[string][]byte{"detail": payload})
	}, false
}

// --- Closed-loop runner ---

// RunConfig parameterizes a measurement run.
type RunConfig struct {
	// ClientsPerReplica closed-loop clients drive each replica.
	ClientsPerReplica int
	// Warmup runs before measurement starts; Measure is the window.
	Warmup  time.Duration
	Measure time.Duration
	// ExecTime models the replica-side execution cost of one
	// transaction (parsing, reads, writes — the work a real database
	// does before COMMIT). The paper's replicas spend most of each
	// transaction here; it is what bounds a replica's offered load
	// ("each replica is driven at 85% of the standalone peak"). It is
	// simulated as latency, not CPU burn, so a single test machine can
	// host many replicas.
	ExecTime time.Duration
	// Seed fixes the client random streams.
	Seed int64
}

// Result summarizes a run.
type Result struct {
	Workload   string
	Duration   time.Duration
	Committed  int64
	Aborted    int64
	Throughput float64 // committed transactions per second (goodput)
	RT         metrics.Summary
	ReadRT     metrics.Summary
	UpdateRT   metrics.Summary
}

// AbortRate returns aborted / attempted.
func (r Result) AbortRate() float64 {
	total := r.Committed + r.Aborted
	if total == 0 {
		return 0
	}
	return float64(r.Aborted) / float64(total)
}

// Run drives the generator against one endpoint per replica (or per
// session, when routing is delegated) with the configured closed-loop
// clients and returns measured goodput and response times. begins[i]
// opens transactions for client group i; ctx cancellation stops all
// clients early.
func Run(ctx context.Context, gen Generator, begins []BeginFunc, cfg RunConfig) Result {
	if cfg.ClientsPerReplica <= 0 {
		cfg.ClientsPerReplica = 10
	}
	var (
		wg        sync.WaitGroup
		committed metrics.Counter
		aborted   metrics.Counter
		allRT     = metrics.NewLatency(0)
		readRT    = metrics.NewLatency(0)
		updateRT  = metrics.NewLatency(0)
	)
	warmupEnd := time.Now().Add(cfg.Warmup)
	deadline := warmupEnd.Add(cfg.Measure)
	var measured metrics.Interval

	for rep := range begins {
		for cl := 0; cl < cfg.ClientsPerReplica; cl++ {
			rep, cl := rep, cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(cfg.Seed ^ int64(rep)<<20 ^ int64(cl)<<8))
				begin := begins[rep]
				for {
					now := time.Now()
					if now.After(deadline) || ctx.Err() != nil {
						return
					}
					run, readOnly := gen.Next(r, rep, cl)
					start := time.Now()
					tx, err := begin(ctx, readOnly)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						time.Sleep(time.Millisecond)
						continue
					}
					if cfg.ExecTime > 0 {
						time.Sleep(cfg.ExecTime)
					}
					if err = run(tx); err == nil {
						err = tx.Commit(ctx)
					} else {
						tx.Abort()
					}
					elapsed := time.Since(start)
					inWindow := start.After(warmupEnd) && time.Now().Before(deadline)
					switch {
					case err == nil:
						if inWindow {
							committed.Add(1)
							allRT.Observe(elapsed)
							if readOnly {
								readRT.Observe(elapsed)
							} else {
								updateRT.Observe(elapsed)
							}
						}
					case IsAbort(err):
						if inWindow {
							aborted.Add(1)
						}
					default:
						// Unexpected error (e.g. mid-crash experiment):
						// back off briefly and continue.
						time.Sleep(time.Millisecond)
					}
				}
			}()
		}
	}
	// Open the measurement window precisely.
	time.Sleep(time.Until(warmupEnd))
	measured.Start()
	wg.Wait()
	measured.Stop()

	res := Result{
		Workload:  gen.Name(),
		Duration:  measured.Elapsed(),
		Committed: committed.Value(),
		Aborted:   aborted.Value(),
		RT:        allRT.Summarize(),
		ReadRT:    readRT.Summarize(),
		UpdateRT:  updateRT.Summarize(),
	}
	if d := res.Duration.Seconds(); d > 0 {
		res.Throughput = float64(res.Committed) / d
	}
	return res
}

// WritesetSize reports the encoded writeset size one transaction of
// the generator produces, measured against a scratch standalone store
// — used by tests to pin the paper's 54/158/275-byte averages.
func WritesetSize(gen Generator, samples int) (float64, error) {
	ctx := context.Background()
	st := mvstore.Open(mvstore.Config{})
	defer st.Close()
	begin := Plain(func() (PlainTx, error) { return st.Begin() })
	if err := gen.Populate(ctx, begin); err != nil {
		return 0, err
	}
	r := rand.New(rand.NewSource(7))
	var total, n int
	for i := 0; i < samples; i++ {
		run, readOnly := gen.Next(r, 1, 1)
		tx, err := st.Begin()
		if err != nil {
			return 0, err
		}
		if err := run(plainTx{tx}); err != nil {
			tx.Abort()
			if IsAbort(err) {
				continue
			}
			return 0, err
		}
		if !readOnly {
			total += tx.Writeset().Size()
			n++
		}
		if err := tx.Commit(); err != nil && !IsAbort(err) {
			return 0, err
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(total) / float64(n), nil
}
