// Package wal implements a write-ahead log with group commit on top of
// a simulated disk channel (internal/simdisk).
//
// The log is the meeting point of the two functions the Tashkent paper
// is about: *ordering* (records are appended in a single total order)
// and *durability* (a record is durable once an fsync covering it has
// completed). A single writer goroutine drains all pending appends
// into one fsync — the group-commit optimization. Whether that
// grouping can actually happen is decided by the callers: a proxy that
// submits commits serially (Base) never has more than one record
// pending, while the certifier (Tashkent-MW) and the ordered-commit
// database (Tashkent-API) keep many records in flight.
//
// Log contents are kept in memory as a realistic CRC-framed byte image
// so crash/recovery behaviour — including torn trailing records — can
// be exercised deterministically.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"tashkent/internal/simdisk"
)

// Mode selects the durability behaviour of Append.
type Mode uint8

const (
	// SyncCommits makes Append block until the record is covered by a
	// completed fsync (standalone-database behaviour; Base and
	// Tashkent-API replicas; the certifier log).
	SyncCommits Mode = iota + 1
	// NoSync makes Append return as soon as the record is buffered in
	// the (volatile) OS cache; nothing is fsynced unless SyncNow is
	// called. This is the "disable all WAL synchronous writes" option
	// Tashkent-MW uses on its replicas (paper §7.1 case 1).
	NoSync
)

// Frame layout: uint32 payload length, uint32 CRC-32(payload), payload.
const frameHeader = 8

// ErrClosed reports an append to a closed log.
var ErrClosed = errors.New("wal: closed")

// ErrCorrupt reports a framing violation in a log image (only possible
// via torn writes; recovery treats it as end-of-log).
var ErrCorrupt = errors.New("wal: corrupt frame")

type appendReq struct {
	payload []byte
	barrier bool // no payload; done closes once prior records are durable
	// done closes once the record is durable. The records of one batch
	// sit contiguously in pending and the writer takes pending whole, so
	// a batch carries one channel, on its last record; the others are nil.
	done chan struct{}
}

// WAL is a single log file. It is safe for concurrent use.
type WAL struct {
	mu            sync.Mutex
	cond          *sync.Cond
	disk          *simdisk.Disk
	mode          Mode
	buf           []byte // full appended image, stable prefix + volatile suffix
	stable        int    // bytes known flushed to media
	records       int    // total records appended
	stableRecords int
	pending       []appendReq
	closed        bool
	writerDone    chan struct{}
}

// New creates a log on the given disk channel and starts its writer
// goroutine. Close must be called to stop it.
func New(disk *simdisk.Disk, mode Mode) *WAL {
	if mode != SyncCommits && mode != NoSync {
		panic(fmt.Sprintf("wal: invalid mode %d", mode))
	}
	w := &WAL{disk: disk, mode: mode, writerDone: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.writerLoop()
	return w
}

// Append adds one record to the log: a one-record AppendBatchAsync and
// its wait. In SyncCommits mode it returns only after the record is
// durable; any records queued by concurrent callers in the meantime
// share the same fsync (group commit). In NoSync mode it returns
// immediately after buffering.
func (w *WAL) Append(payload []byte) error {
	wait, err := w.AppendBatchAsync([][]byte{payload})
	if err != nil {
		return err
	}
	return wait()
}

// appendFrameLocked encodes payload into the volatile image.
func (w *WAL) appendFrameLocked(payload []byte) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc(payload))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.records++
}

// writerLoop is the single log-writer thread: it drains every pending
// append into one fsync, exactly like the paper's certifier writer
// thread ("a single writer thread ... batching all outstanding
// writesets to disk via a single fsync call").
func (w *WAL) writerLoop() {
	defer close(w.writerDone)
	for {
		w.mu.Lock()
		for len(w.pending) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.pending) == 0 && w.closed {
			w.mu.Unlock()
			return
		}
		batch := w.pending
		w.pending = nil
		var bytes, recs int
		for i := range batch {
			if batch[i].barrier {
				continue
			}
			w.appendFrameLocked(batch[i].payload)
			bytes += frameHeader + len(batch[i].payload)
			recs++
		}
		target := len(w.buf)
		targetRecords := w.records
		needFsync := target > w.stable
		w.mu.Unlock()

		// The fsync happens outside the lock so new appends can queue
		// behind this group while the disk is busy. A batch of only
		// barriers on an already-stable log flushes nothing.
		if needFsync {
			w.disk.Fsync(recs, bytes)
		}

		w.mu.Lock()
		if target > w.stable {
			w.stable = target
			w.stableRecords = targetRecords
		}
		w.mu.Unlock()
		for i := range batch {
			if batch[i].done != nil {
				close(batch[i].done)
			}
		}
	}
}

// AppendBatchAsync adds several records as one unit and returns as soon
// as they occupy their slots in the log order; the returned wait
// function blocks until every one of them is durable. In SyncCommits
// mode the records are queued together, so the writer covers the whole
// batch (plus any concurrent appends) with a single fsync: a paxos
// follower persisting the entries of one replication round pays one
// disk flush, not N. A caller that must keep consecutive batches in log
// order without serializing on fsync completion (a replication leader
// persisting back-to-back rounds, a replica logging the commit records
// of one certifier response) enqueues each batch in order and waits
// afterwards — batches still share fsyncs through the writer's group
// commit. wait is the batch's one durability ticket: any number of
// goroutines may call it, any number of times.
func (w *WAL) AppendBatchAsync(payloads [][]byte) (wait func() error, err error) {
	if len(payloads) == 0 {
		return func() error { return nil }, nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if w.mode == NoSync {
		for _, p := range payloads {
			w.appendFrameLocked(p)
		}
		w.mu.Unlock()
		return func() error { return nil }, nil
	}
	for _, p := range payloads {
		w.pending = append(w.pending, appendReq{payload: p})
	}
	done := make(chan struct{})
	w.pending[len(w.pending)-1].done = done
	w.cond.Signal()
	w.mu.Unlock()
	return func() error {
		<-done
		return nil
	}, nil
}

// Barrier returns a function that blocks until every record appended
// before the call is durable — trivially immediate in NoSync mode or
// on a clean log. A replication follower acking a round it already
// holds in memory uses this to avoid vouching for records whose fsync
// is still in flight.
func (w *WAL) Barrier() (wait func() error, err error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if w.mode == NoSync || (w.stable == len(w.buf) && len(w.pending) == 0) {
		w.mu.Unlock()
		return func() error { return nil }, nil
	}
	req := appendReq{barrier: true, done: make(chan struct{})}
	w.pending = append(w.pending, req)
	w.cond.Signal()
	w.mu.Unlock()
	return func() error {
		<-req.done
		return nil
	}, nil
}

// SyncNow forces an fsync covering everything appended so far. It is
// how a NoSync log persists checkpoint markers (paper §7.1 case 2
// behaviour) and how tests pin down durability boundaries.
func (w *WAL) SyncNow() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	// The byte and record deltas must come from one critical section: a
	// concurrent writer-loop flush between two separate lock
	// acquisitions could otherwise make the record delta negative. (A
	// flush racing the Fsync below can still report the same records
	// twice — that mirrors the genuinely redundant device flush, and
	// never goes negative.)
	target := len(w.buf)
	targetRecords := w.records
	pendingBytes := target - w.stable
	pendingRecords := targetRecords - w.stableRecords
	w.mu.Unlock()
	if pendingBytes <= 0 {
		return nil
	}
	w.disk.Fsync(pendingRecords, pendingBytes)
	w.mu.Lock()
	if target > w.stable {
		w.stable = target
		w.stableRecords = targetRecords
	}
	w.mu.Unlock()
	return nil
}

// Close stops the writer goroutine after draining queued appends.
func (w *WAL) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.writerDone
}

// Records returns the total number of records appended (durable or
// not).
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// StableRecords returns the number of records covered by completed
// fsyncs.
func (w *WAL) StableRecords() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stableRecords
}

// Size returns the appended image size in bytes.
func (w *WAL) Size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// CrashImage simulates a machine crash and returns the byte image that
// would survive on media: the stable prefix plus up to torn extra bytes
// of the volatile suffix (modelling a partially completed device
// write). torn < 0 keeps the entire volatile suffix, modelling a crash
// where the OS cache happened to reach the disk (recovery must cope
// either way).
func (w *WAL) CrashImage(torn int) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	end := w.stable
	if torn < 0 {
		end = len(w.buf)
	} else {
		end += torn
		if end > len(w.buf) {
			end = len(w.buf)
		}
	}
	img := make([]byte, end)
	copy(img, w.buf[:end])
	return img
}

// Scan decodes a log image into its complete records. A torn or
// corrupt trailing frame terminates the scan without error — exactly
// what database recovery does with a partially written tail. Corruption
// *before* the last frame is impossible under the append-only
// discipline and is reported as ErrCorrupt.
func Scan(image []byte) ([][]byte, error) {
	var out [][]byte
	pos := 0
	for pos < len(image) {
		if pos+frameHeader > len(image) {
			return out, nil // torn header at tail
		}
		n := int(binary.BigEndian.Uint32(image[pos : pos+4]))
		sum := binary.BigEndian.Uint32(image[pos+4 : pos+8])
		if pos+frameHeader+n > len(image) {
			return out, nil // torn payload at tail
		}
		payload := image[pos+frameHeader : pos+frameHeader+n]
		if crc(payload) != sum {
			if pos+frameHeader+n == len(image) {
				return out, nil // corrupted tail record: drop it
			}
			return out, fmt.Errorf("%w: bad CRC at offset %d (not at tail)", ErrCorrupt, pos)
		}
		cp := make([]byte, n)
		copy(cp, payload)
		out = append(out, cp)
		pos += frameHeader + n
	}
	return out, nil
}

func crc(p []byte) uint32 {
	// IEEE CRC-32 via the stdlib table; small wrapper for call sites.
	return crc32IEEE(p)
}
