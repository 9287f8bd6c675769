package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/chaos"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
	"tashkent/internal/paxos"
	"tashkent/internal/router"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
	"tashkent/internal/wal"
	"tashkent/internal/workload"
)

// The probe suite times each layer alone, through its exported
// functions only, on inputs drawn from the same seeded generators the
// workloads use. Every disk is instant: a probe reports the layer's
// processor cost, which the 5 ms fsync hides in the workloads. Each
// probe runs a fixed number of iterations per round and reports the
// median round.

// probeRounds is the default number of rounds per probe.
const probeRounds = 5

// probe runs round, which returns the time it spent and the operations
// it performed, rounds times and returns the median cost per operation
// in nanoseconds.
func probe(rounds int, round func() (time.Duration, int, error)) (float64, error) {
	var per []float64
	for i := 0; i < rounds; i++ {
		d, ops, err := round()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d)/float64(ops))
	}
	return percentile(per, 50), nil
}

// loop times n calls of f.
func loop(n int, f func(i int) error) func() (time.Duration, int, error) {
	return func() (time.Duration, int, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), n, nil
	}
}

// writesets runs n update transactions of gen against a scratch store
// and returns the writesets they produce. Client ids rotate so the
// AllUpdates keys of neighbouring writesets are disjoint.
func writesets(gen workload.Generator, seed int64, n int) ([]*core.Writeset, error) {
	ctx := context.Background()
	st := mvstore.Open(mvstore.Config{})
	defer st.Close()
	var cur *mvstore.Tx
	begin := workload.Plain(func() (workload.PlainTx, error) {
		tx, err := st.Begin()
		cur = tx
		return tx, err
	})
	if err := gen.Populate(ctx, begin); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	var out []*core.Writeset
	for i := 0; len(out) < n; i++ {
		run, readOnly := gen.Next(r, i%3, i%256)
		if readOnly {
			continue
		}
		tx, err := begin(ctx, false)
		if err != nil {
			return nil, err
		}
		if err := run(tx); err != nil {
			return nil, err
		}
		out = append(out, cur.Writeset().Clone())
		tx.Abort()
	}
	return out, nil
}

// runProbes emits every P metric.
func runProbes(m *metricSet, seed int64, rounds int) error {
	au, err := writesets(&workload.AllUpdates{}, seed, 4096)
	if err != nil {
		return fmt.Errorf("probe inputs: %w", err)
	}
	tpcb, err := writesets(tpcbGen(), seed, 1024)
	if err != nil {
		return fmt.Errorf("probe inputs: %w", err)
	}
	emit := func(name, unit string, scale float64, round func() (time.Duration, int, error)) error {
		v, err := probe(rounds, round)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		m.add(name, v/scale, unit)
		return nil
	}

	// router: one routing decision of the default policy, with its
	// in-flight charge and release.
	bal := router.NewBalancer(2, router.NewRoundRobin())
	if err := emit("router.pick_ns", "ns", 1, loop(200000, func(int) error {
		_, release := bal.Acquire(false, nil)
		release()
		return nil
	})); err != nil {
		return err
	}

	// mvstore: a TPC-W browse (six snapshot reads) and the two labeled
	// installs the proxies use.
	if err := probeStore(emit, seed, au); err != nil {
		return err
	}

	// wal: eight records appended in order, then the barrier that makes
	// them durable.
	log := wal.New(simdisk.New(simdisk.Instant(), 1), wal.SyncCommits)
	records := make([][]byte, 8)
	for i := range records {
		records[i] = au[i].Encode(nil)
	}
	err = emit("wal.append_barrier_us", "us", 1e3, loop(2000, func(int) error {
		wait, err := log.AppendBatchAsync(records)
		if err != nil {
			return err
		}
		if err := wait(); err != nil {
			return err
		}
		if wait, err = log.Barrier(); err != nil {
			return err
		}
		return wait()
	}))
	log.Close()
	if err != nil {
		return err
	}

	// certifier: the certify request on the binary fast path.
	req := &certifier.Request{Origin: 1, StartVersion: 1000, ReplicaVersion: 1000, WSBytes: au[0].Encode(nil), Deadline: 1}
	wire, err := transport.EncodeMessage(req)
	if err != nil {
		return err
	}
	m.add("certifier.codec_request_bytes", float64(len(wire)), "bytes")
	if err := emit("certifier.codec_encode_ns", "ns", 1, loop(100000, func(int) error {
		_, err := transport.EncodeMessage(req)
		return err
	})); err != nil {
		return err
	}
	if err := emit("certifier.codec_decode_ns", "ns", 1, loop(100000, func(int) error {
		var out certifier.Request
		return transport.DecodeMessage(wire, &out)
	})); err != nil {
		return err
	}

	// transport: the gob fallback that the 2PC control messages still
	// take (a prepare request carrying one TPC-B slice), and one echo
	// round trip on each fabric.
	prep := &certifier.PrepareRequest{GID: 7, Origin: 1, StartVersion: 1000, Involved: []int{0, 1}, WSBytes: tpcb[0].Encode(nil), ReplicaVersion: 1000}
	gobWire, err := transport.EncodeMessage(prep)
	if err != nil {
		return err
	}
	if err := emit("transport.encode_ns", "ns", 1, loop(20000, func(int) error {
		_, err := transport.EncodeMessage(prep)
		return err
	})); err != nil {
		return err
	}
	if err := emit("transport.decode_ns", "ns", 1, loop(10000, func(int) error {
		var out certifier.PrepareRequest
		return transport.DecodeMessage(gobWire, &out)
	})); err != nil {
		return err
	}
	echo := func(_ string, b []byte) ([]byte, error) { return b, nil }
	srv, err := transport.ServeTCP("127.0.0.1:0", echo, 0)
	if err != nil {
		return err
	}
	tcp := transport.DialTCP(srv.Addr())
	err = emit("transport.tcp_rtt_us", "us", 1e3, loop(3000, func(int) error {
		_, err := tcp.Call("echo", wire)
		return err
	}))
	tcp.Close()
	srv.Close()
	if err != nil {
		return err
	}
	fab := transport.NewLocalFabric(0)
	fab.Serve("echo", echo)
	local := fab.Dial("echo")
	if err := emit("transport.local_rtt_ns", "ns", 1, loop(200000, func(int) error {
		_, err := local.Call("echo", wire)
		return err
	})); err != nil {
		return err
	}

	// core: certification of workload writesets eight versions behind the
	// head of a 10 000-entry log, and the writeset wire form.
	eng := core.NewEngine()
	for i := 0; i < 10000; i++ {
		eng.Certify(eng.SystemVersion(), au[i%len(au)], 1)
	}
	if err := emit("core.certify_ns", "ns", 1, loop(20000, func(i int) error {
		eng.Certify(eng.SystemVersion()-8, au[i%len(au)], 1)
		return nil
	})); err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	if err := emit("core.writeset_encode_ns", "ns", 1, loop(200000, func(i int) error {
		buf = au[i%len(au)].Encode(buf[:0])
		return nil
	})); err != nil {
		return err
	}

	// paxos: one proposal replicated and committed by three nodes.
	if err := probePaxos(emit, wire); err != nil {
		return err
	}

	// partition: a TPC-B writeset split over two groups, and two group
	// streams merged back into one order.
	pm := partition.Map{N: 2}
	if err := emit("partition.split_ns", "ns", 1, loop(50000, func(i int) error {
		pm.Split(tpcb[i%len(tpcb)])
		return nil
	})); err != nil {
		return err
	}
	const streamLen = 2000
	raws := make([][]byte, streamLen)
	for i := range raws {
		raws[i] = certifier.EncodeEntry(certifier.Entry{Kind: core.KindData, Origin: 1, Start: uint64(i), WS: au[i%len(au)]})
	}
	return emit("partition.assembler_merge_ns", "ns", 1, func() (time.Duration, int, error) {
		t0 := time.Now()
		asm := partition.NewAssembler(2)
		for i, raw := range raws {
			for g := 0; g < 2; g++ {
				if err := asm.Offer(g, uint64(i+1), raw); err != nil {
					return 0, 0, err
				}
			}
		}
		n := 0
		for _, ok := asm.Next(); ok; _, ok = asm.Next() {
			n++
		}
		if n != 2*streamLen {
			return 0, 0, fmt.Errorf("assembler emitted %d of %d entries", n, 2*streamLen)
		}
		return time.Since(t0), n, nil
	})
}

type emitFunc func(name, unit string, scale float64, round func() (time.Duration, int, error)) error

func probeStore(emit emitFunc, seed int64, au []*core.Writeset) error {
	ctx := context.Background()
	tpcw := tpcwGen()
	items := mvstore.Open(mvstore.Config{})
	defer items.Close()
	begin := workload.Plain(func() (workload.PlainTx, error) { return items.Begin() })
	if err := tpcw.Populate(ctx, begin); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	keys := make([]string, 6*1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("i%06d", r.Intn(1000))
	}
	if err := emit("mvstore.read_txn_ns", "ns", 1, loop(20000, func(i int) error {
		tx, err := items.Begin()
		if err != nil {
			return err
		}
		for _, k := range keys[i%1024*6:][:6] {
			if _, _, err := tx.Read("items", k); err != nil {
				return err
			}
		}
		return tx.Commit()
	})); err != nil {
		return err
	}

	st := mvstore.Open(mvstore.Config{WALMode: wal.SyncCommits})
	defer st.Close()
	var version uint64
	install := func(i int) (*mvstore.Tx, error) {
		tx, err := st.Begin()
		if err != nil {
			return nil, err
		}
		return tx, tx.ApplyWriteset(au[i%len(au)])
	}
	if err := emit("mvstore.commit_labeled_us", "us", 1e3, loop(5000, func(i int) error {
		tx, err := install(i)
		if err != nil {
			return err
		}
		version++
		return tx.CommitLabeled(version-1, version)
	})); err != nil {
		return err
	}
	// The async form returns before publication; a round ends when the
	// store has announced its last version.
	return emit("mvstore.commit_labeled_async_us", "us", 1e3, func() (time.Duration, int, error) {
		const n = 5000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tx, err := install(i)
			if err != nil {
				return 0, 0, err
			}
			version++
			if err := tx.CommitLabeledAsync(version-1, version, func(mvstore.PendingOutcome) {}); err != nil {
				return 0, 0, err
			}
		}
		if err := st.WaitAnnounced(version, 10*time.Second); err != nil {
			return 0, 0, err
		}
		return time.Since(t0), n, nil
	})
}

func probePaxos(emit emitFunc, data []byte) error {
	fab := transport.NewLocalFabric(0)
	nodes := make([]*paxos.Node, 3)
	name := func(i int) string { return fmt.Sprintf("paxos-%d", i) }
	for i := range nodes {
		peers := make(map[int]transport.Client)
		for j := range nodes {
			if j != i {
				peers[j] = fab.Dial(name(j))
			}
		}
		nodes[i] = paxos.NewNode(paxos.Config{
			ID: i, Peers: peers,
			Disk:            simdisk.New(simdisk.Instant(), int64(i)),
			ElectionTimeout: 50 * time.Millisecond,
			Seed:            int64(i) + 1,
		})
		fab.Serve(name(i), nodes[i].HandleRPC)
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	var leader *paxos.Node
	if !chaos.WaitUntil(5*time.Second, func() bool {
		for _, n := range nodes {
			if role, _ := n.Role(); role == paxos.Leader {
				leader = n
				return true
			}
		}
		return false
	}) {
		return errors.New("probe paxos.round_us: no leader elected")
	}
	return emit("paxos.round_us", "us", 1e3, loop(1000, func(int) error {
		index, term, err := leader.Propose(data)
		if err != nil {
			return err
		}
		return leader.WaitCommitted(index, term)
	}))
}
