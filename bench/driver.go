package main

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/workload"
)

// Transaction kinds and outcomes of one sample.
const (
	kindUpdate = iota
	kindRead
)

const (
	outCommitted = iota
	outAborted   // snapshot-isolation / certification abort: a correct outcome
	outFailed    // anything else: error, timeout, overload shed
)

// sample is one transaction attempt, timed at the three points where
// the client crosses into the system. The four stamps are contiguous,
// so the begin, exec and commit spans tile the transaction exactly.
// Times are nanoseconds since the run's epoch.
type sample struct {
	start   int64 // open loop: the instant the request was due
	begun   int64 // Begin returned
	execd   int64 // transaction body returned
	done    int64 // Commit (or Abort) returned: the ack
	kind    uint8
	outcome uint8
	traced  bool
}

// write is one row a transaction wrote, kept to read it back later.
type write struct {
	table, key string
	cols       map[string][]byte
	acked      int64 // when its commit was acknowledged
}

// recTx records the last row the transaction body writes.
type recTx struct {
	workload.Tx
	last *write
}

func (t recTx) Insert(table, key string, cols map[string][]byte) error {
	*t.last = write{table: table, key: key, cols: cols}
	return t.Tx.Insert(table, key, cols)
}

func (t recTx) Update(table, key string, cols map[string][]byte) error {
	*t.last = write{table: table, key: key, cols: cols}
	return t.Tx.Update(table, key, cols)
}

// client is one load-generating goroutine's private state: nothing in
// it is shared until the run has stopped.
type client struct {
	d       *driver
	group   int
	id      int
	rng     *rand.Rand
	samples []sample
	// acked is the last row this client wrote in a transaction whose
	// commit was acknowledged; the post-run check reads it on every
	// replica.
	acked write
}

// driver runs one workload's clients against a booted system.
type driver struct {
	s     spec
	e     *env
	gen   workload.Generator
	epoch time.Time
	ctx   context.Context
	stop  atomic.Bool
	// tracing is read once per transaction; traced samples become
	// client spans.
	tracing atomic.Bool

	clients []*client
	wg      sync.WaitGroup

	// Open loop only. The generator goroutine is the single writer of
	// everything but inflight; readers wait for halt. inflight counts the
	// outstanding requests, queued and executing.
	inflight    atomic.Int64
	inflightMax int64
	genLate     []int64 // how late each request left the generator, ns
	genDue      []int64 // its due time, for window attribution
	dropped     []int64 // due times of requests dropped at openBacklog
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

// sampleCap preallocates each client's sample buffer so steady-state
// recording allocates nothing (the benchmark's own allocations would
// otherwise leak into allocs_per_txn).
const sampleCap = 1 << 14

// start launches the load. Inputs derive from seed alone: each closed-
// loop client owns a stream seeded from (seed, group, client), and the
// open loop draws every request from one stream in due order.
func (d *driver) start(seed int64) {
	if d.s.openRate > 0 {
		d.startOpen(seed)
		return
	}
	for g := range d.e.begins {
		for k := 0; k < d.s.clientsPerReplica; k++ {
			c := &client{
				d: d, group: g, id: k,
				rng:     rand.New(rand.NewSource(seed ^ int64(g+1)<<20 ^ int64(k+1)<<8)),
				samples: make([]sample, 0, sampleCap),
			}
			d.clients = append(d.clients, c)
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				for !d.stop.Load() {
					run, readOnly := d.gen.Next(c.rng, c.group, c.id)
					c.transact(d.now(), run, readOnly)
				}
			}()
		}
	}
}

// halt stops the load and waits for every in-flight transaction.
func (d *driver) halt() {
	d.stop.Store(true)
	d.wg.Wait()
}

// transact runs one generated transaction on the client's endpoint —
// begin, body, commit (abort if the body failed) — records the sample
// and, if an update committed, remembers the last row it wrote.
func (c *client) transact(start int64, run func(workload.Tx) error, readOnly bool) {
	d := c.d
	sm := sample{start: start, kind: kindUpdate, traced: d.tracing.Load()}
	if readOnly {
		sm.kind = kindRead
	}
	tx, err := d.e.begins[c.group](d.ctx, readOnly)
	sm.begun = d.now()
	if err != nil {
		sm.execd, sm.done, sm.outcome = sm.begun, sm.begun, outFailed
		c.samples = append(c.samples, sm)
		time.Sleep(time.Millisecond) // do not spin on a refusing endpoint
		return
	}
	var last write
	err = run(recTx{tx, &last})
	sm.execd = d.now()
	if err == nil {
		err = tx.Commit(d.ctx)
	} else {
		tx.Abort()
	}
	sm.done = d.now()
	switch {
	case err == nil:
		sm.outcome = outCommitted
		if last.key != "" {
			last.acked = sm.done
			c.acked = last
		}
	case workload.IsAbort(err):
		sm.outcome = outAborted
	default:
		sm.outcome = outFailed
	}
	c.samples = append(c.samples, sm)
}

// rowHas reports whether row carries every column value in want.
func rowHas(row, want map[string][]byte) bool {
	for col, v := range want {
		if !bytes.Equal(row[col], v) {
			return false
		}
	}
	return true
}

// --- open loop ---

// request is one open-loop transaction, generated ahead of dispatch.
type request struct {
	due      int64
	group    int
	run      func(workload.Tx) error
	readOnly bool
}

const (
	// openBacklog bounds the open loop's outstanding requests, queued and
	// executing together: 13 s of the offered load. A request due beyond
	// it is dropped and counted as failed.
	openBacklog = 4096
	// keySlots spreads consecutive open-loop requests over this many
	// AllUpdates key ranges per replica, so requests executing at the
	// same time never touch the same row.
	keySlots = 256
)

// startOpen offers openRate evenly spaced transactions per second over a
// pool of openConns connections. One generator goroutine draws request i
// for replica i mod N on its due time, whatever the system is doing, and
// queues it; each connection executes one request at a time, in due
// order. A request that finds every connection busy waits in the queue,
// and its response time counts that wait, because it runs from the due
// time. The loop never silently under-offers: it reports how late the
// generator ran, how many requests were outstanding at most, and drops
// (as failed) only what is due beyond openBacklog.
func (d *driver) startOpen(seed int64) {
	queue := make(chan request, openBacklog) // sized to the cap: a send never blocks
	for w := 0; w < d.s.openConns; w++ {
		c := &client{d: d, id: w, samples: make([]sample, 0, sampleCap)}
		d.clients = append(d.clients, c)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for rq := range queue {
				c.group = rq.group
				c.transact(rq.due, rq.run, rq.readOnly)
				d.inflight.Add(-1)
			}
		}()
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer close(queue)
		rng := rand.New(rand.NewSource(seed))
		groups := len(d.e.begins)
		gap := float64(time.Second) / d.s.openRate
		first := d.now()
		for i := 0; !d.stop.Load(); i++ {
			due := first + int64(float64(i)*gap)
			if wait := due - d.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			g := i % groups
			run, readOnly := d.gen.Next(rng, g, i%keySlots)
			late := d.now() - due
			d.genDue = append(d.genDue, due)
			d.genLate = append(d.genLate, late)
			n := d.inflight.Add(1)
			if n > openBacklog {
				d.inflight.Add(-1)
				d.dropped = append(d.dropped, due)
				continue
			}
			if n > d.inflightMax {
				d.inflightMax = n
			}
			queue <- request{due: due, group: g, run: run, readOnly: readOnly}
		}
	}()
}
