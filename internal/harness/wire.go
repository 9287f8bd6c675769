package harness

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/cluster"
	"tashkent/internal/kvwire"
	"tashkent/internal/proxy"
	"tashkent/internal/transport"
	"tashkent/internal/workload"
)

// WirePoint is one (transport, workload) measurement of the wire
// experiment.
type WirePoint struct {
	Transport  string // "local" or "tcp"
	Throughput float64
	MeanRT     time.Duration
	Wire       transport.WireStats // zero for the in-memory transport
}

// WireReport aggregates the wire experiment: the same update-heavy and
// read-mostly sweeps run over the in-memory fabric and over real
// localhost TCP sockets, plus the codec economics of the hot certify
// path.
type WireReport struct {
	UpdateLocal WirePoint
	UpdateTCP   WirePoint
	ReadLocal   WirePoint
	ReadTCP     WirePoint

	// Codec sizes for a representative certify request carrying a
	// typical small writeset (same value through both encoders).
	BinaryRequestBytes int
	GobRequestBytes    int

	// Mean wire bytes per RPC observed during the TCP update run.
	BytesPerCall float64

	Clients  int
	Replicas int
}

// UpdateRatio returns in-memory/TCP update throughput (1.0 = parity;
// the acceptance bar is <= 2.0).
func (r WireReport) UpdateRatio() float64 {
	if r.UpdateTCP.Throughput == 0 {
		return 0
	}
	return r.UpdateLocal.Throughput / r.UpdateTCP.Throughput
}

// RunWireExperiment measures what the real wire costs: the update-heavy
// AllUpdates mix on a 3-replica Tashkent-MW cluster and the engine-bound
// TPC-W read mix on one replica, each run twice — once over the
// in-memory fabric the simulations use and once with every
// replica↔certifier and certifier↔certifier link on localhost TCP
// sockets through the framed transport. It also records the size of a
// representative certify request under the pooled binary codec versus
// gob, and the observed bytes per RPC. This is the experiment behind
// BENCH_wire.json.
func RunWireExperiment(o Options) (*WireReport, error) {
	o = o.withDefaults()
	const replicas, clients = 3, 8

	rep := &WireReport{Clients: clients, Replicas: replicas}
	fmt.Fprintf(o.Out, "\n=== wire: in-memory fabric vs localhost TCP ===\n")
	fmt.Fprintf(o.Out, "update=AllUpdates@%d replicas  read=TPC-W(engine-bound)@1 replica  clients=%d  scale=1/%d\n",
		replicas, clients, o.Scale)

	for _, tr := range []string{"local", "tcp"} {
		up, err := runWireUpdate(tr, replicas, clients, o)
		if err != nil {
			return rep, fmt.Errorf("wire update/%s: %w", tr, err)
		}
		rd, err := runWireRead(tr, clients, o)
		if err != nil {
			return rep, fmt.Errorf("wire read/%s: %w", tr, err)
		}
		if tr == "local" {
			rep.UpdateLocal, rep.ReadLocal = up, rd
		} else {
			rep.UpdateTCP, rep.ReadTCP = up, rd
		}
	}

	// Codec economics: one certify request with a typical small
	// writeset, through the tagged binary fast path and through gob.
	req := &certifier.Request{
		Origin: 3, StartVersion: 1000, ReplicaVersion: 990,
		WSBytes: bytes.Repeat([]byte{0xAB}, 120),
	}
	binB, err := transport.EncodeMessage(req)
	if err != nil {
		return rep, err
	}
	var gobB bytes.Buffer
	if err := gob.NewEncoder(&gobB).Encode(req); err != nil {
		return rep, err
	}
	rep.BinaryRequestBytes, rep.GobRequestBytes = len(binB), gobB.Len()
	if w := rep.UpdateTCP.Wire; w.Calls > 0 {
		rep.BytesPerCall = float64(w.BytesOut+w.BytesIn) / float64(w.Calls)
	}

	fmt.Fprintf(o.Out, "\ntransport\tupdate txn/s\tupdate RT(ms)\tread txn/s\tread RT(ms)\n")
	for _, row := range []struct {
		up, rd WirePoint
	}{{rep.UpdateLocal, rep.ReadLocal}, {rep.UpdateTCP, rep.ReadTCP}} {
		fmt.Fprintf(o.Out, "%s\t%.0f\t%.2f\t%.0f\t%.2f\n",
			row.up.Transport, row.up.Throughput,
			float64(row.up.MeanRT.Microseconds())/1000,
			row.rd.Throughput, float64(row.rd.MeanRT.Microseconds())/1000)
	}
	fmt.Fprintf(o.Out, "\nupdate in-memory/TCP ratio: %.2fx (bar: <=2x)\n", rep.UpdateRatio())
	fmt.Fprintf(o.Out, "certify request: binary %dB vs gob %dB (%.0f%% of gob)\n",
		rep.BinaryRequestBytes, rep.GobRequestBytes,
		100*float64(rep.BinaryRequestBytes)/float64(rep.GobRequestBytes))
	if rep.BytesPerCall > 0 {
		w := rep.UpdateTCP.Wire
		fmt.Fprintf(o.Out, "TCP update run: %d calls, %.0f B/call mean, %d redials\n",
			w.Calls, rep.BytesPerCall, w.Redials)
	}
	return rep, nil
}

// runWireUpdate measures the AllUpdates mix over one transport backend.
func runWireUpdate(tr string, replicas, clients int, o Options) (WirePoint, error) {
	c, err := cluster.New(cluster.Config{
		Mode:               proxy.TashkentMW,
		Replicas:           replicas,
		Certifiers:         3,
		Transport:          tr,
		IOProfile:          o.profile(),
		DedicatedIO:        true,
		CertMaxBatch:       o.CertMaxBatch,
		LocalCertification: true,
		EagerPreCert:       true,
		LockTimeout:        5 * time.Second,
		OrderTimeout:       10 * time.Second,
		Seed:               o.Seed,
	})
	if err != nil {
		return WirePoint{}, err
	}
	defer c.Close()
	return runWirePoint(c, tr, &workload.AllUpdates{}, replicas, clients, o)
}

// runWireRead measures the engine-bound TPC-W read mix on one replica
// over one transport backend.
func runWireRead(tr string, clients int, o Options) (WirePoint, error) {
	c, err := cluster.New(cluster.Config{
		Mode:               proxy.TashkentMW,
		Replicas:           1,
		Certifiers:         3,
		Transport:          tr,
		IOProfile:          o.profile(),
		DedicatedIO:        true,
		LocalCertification: true,
		EagerPreCert:       true,
		LockTimeout:        5 * time.Second,
		OrderTimeout:       10 * time.Second,
		Seed:               o.Seed,
	})
	if err != nil {
		return WirePoint{}, err
	}
	defer c.Close()
	return runWirePoint(c, tr, readScaleWorkload(), 1, clients, o)
}

func runWirePoint(c *cluster.Cluster, tr string, wl workload.Generator, replicas, clients int, o Options) (WirePoint, error) {
	ctx := context.Background()
	begin0 := workload.Plain(func() (workload.PlainTx, error) { return c.Begin(0) })
	if err := wl.Populate(ctx, begin0); err != nil {
		return WirePoint{}, fmt.Errorf("populate: %w", err)
	}
	if err := c.ConvergeAll(30 * time.Second); err != nil {
		return WirePoint{}, err
	}
	begins := make([]workload.BeginFunc, replicas)
	for i := 0; i < replicas; i++ {
		i := i
		begins[i] = workload.Plain(func() (workload.PlainTx, error) { return c.Begin(i) })
	}
	res := workload.Run(ctx, wl, begins, workload.RunConfig{
		ClientsPerReplica: clients,
		Warmup:            o.Warmup,
		Measure:           o.Measure,
		ExecTime:          o.ExecTime,
		Seed:              o.Seed,
	})
	return WirePoint{
		Transport:  tr,
		Throughput: res.Throughput,
		MeanRT:     res.RT.Mean,
		Wire:       c.WireStats(),
	}, nil
}

// WriteJSON records the report as BENCH_wire.json-style output.
func (r *WireReport) WriteJSON(path, command string) error {
	type tp struct {
		UpdateTxnPerS float64 `json:"update_txn_per_s"`
		UpdateRTMS    float64 `json:"update_rt_ms"`
		ReadTxnPerS   float64 `json:"read_txn_per_s"`
		ReadRTMS      float64 `json:"read_rt_ms"`
	}
	doc := struct {
		Benchmark string  `json:"benchmark"`
		Command   string  `json:"command"`
		Workload  string  `json:"workload"`
		Date      string  `json:"date"`
		Host      string  `json:"host"`
		InMemory  tp      `json:"in_memory"`
		TCP       tp      `json:"tcp"`
		Ratio     float64 `json:"update_inmemory_over_tcp_ratio"`
		Codec     struct {
			BinaryRequestBytes int     `json:"binary_request_bytes"`
			GobRequestBytes    int     `json:"gob_request_bytes"`
			BytesPerCall       float64 `json:"tcp_mean_bytes_per_call"`
		} `json:"codec"`
		Wire  transport.WireStats `json:"tcp_update_wire_stats"`
		Notes []string            `json:"notes"`
	}{
		Benchmark: "in-memory fabric vs localhost TCP transport",
		Command:   command,
		Workload: fmt.Sprintf("AllUpdates on %d replicas and engine-bound TPC-W on 1 replica, %d closed-loop clients per replica, dedicated IO; identical runs over the in-memory fabric and over framed localhost TCP with the pooled binary codec",
			r.Replicas, r.Clients),
		Date: time.Now().Format("2006-01-02"),
		Host: fmt.Sprintf("%s/%s, %d CPU, GOMAXPROCS=%d", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		InMemory: tp{
			UpdateTxnPerS: r.UpdateLocal.Throughput,
			UpdateRTMS:    float64(r.UpdateLocal.MeanRT.Microseconds()) / 1000,
			ReadTxnPerS:   r.ReadLocal.Throughput,
			ReadRTMS:      float64(r.ReadLocal.MeanRT.Microseconds()) / 1000,
		},
		TCP: tp{
			UpdateTxnPerS: r.UpdateTCP.Throughput,
			UpdateRTMS:    float64(r.UpdateTCP.MeanRT.Microseconds()) / 1000,
			ReadTxnPerS:   r.ReadTCP.Throughput,
			ReadRTMS:      float64(r.ReadTCP.MeanRT.Microseconds()) / 1000,
		},
		Ratio: r.UpdateRatio(),
		Wire:  r.UpdateTCP.Wire,
		Notes: []string{
			"Reads never cross the wire (snapshot reads are replica-local); the read sweep bounds the incidental cost of running the certification control plane over sockets.",
			"The update ratio is the acceptance metric: TCP update-heavy throughput must stay within 2x of in-memory at 8 clients.",
			"binary_request_bytes vs gob_request_bytes is one certify request carrying a 120-byte writeset through the tagged binary fast path vs gob.",
		},
	}
	doc.Codec.BinaryRequestBytes = r.BinaryRequestBytes
	doc.Codec.GobRequestBytes = r.GobRequestBytes
	doc.Codec.BytesPerCall = r.BytesPerCall
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// RunWireSmoke drives an externally launched multi-process cluster: it
// commits update transactions round-robin across the given tashd
// daemon addresses, reads one back from every daemon, then pulls every
// replica until all report the same version and asserts the
// fingerprints are identical. It is the convergence check behind
// scripts/wire_smoke.sh and the CI wire job.
func RunWireSmoke(daemons []string, o Options) error {
	o = o.withDefaults()
	if len(daemons) == 0 {
		return fmt.Errorf("wire smoke: no daemon addresses")
	}
	clients := make([]transport.Client, len(daemons))
	for i, addr := range daemons {
		clients[i] = transport.DialTCP(addr)
		defer clients[i].Close()
	}

	const commits = 60
	fmt.Fprintf(o.Out, "wire smoke: %d commits across %d daemons\n", commits, len(daemons))
	for i := 0; i < commits; i++ {
		c := clients[i%len(clients)]
		var resp kvwire.PutResp
		req := kvwire.PutReq{Table: "smoke", Key: fmt.Sprintf("k%d", i), Col: "v", Value: []byte(fmt.Sprintf("v%d", i))}
		if err := kvwire.Call(c, "kv.put", req, &resp); err != nil {
			return fmt.Errorf("wire smoke: put k%d via %s: %w", i, daemons[i%len(clients)], err)
		}
		if resp.Aborted {
			return fmt.Errorf("wire smoke: put k%d aborted", i)
		}
	}

	// Every daemon must serve a committed key (possibly after pulling).
	for i, c := range clients {
		var get kvwire.GetResp
		if err := kvwire.Call(c, "kv.get", kvwire.GetReq{Table: "smoke", Key: fmt.Sprintf("k%d", i%commits), Col: "v"}, &get); err != nil {
			return fmt.Errorf("wire smoke: get via %s: %w", daemons[i], err)
		}
	}

	// Converge: pull every replica until versions agree, then compare
	// fingerprints at that common version.
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats := make([]kvwire.StatResp, len(clients))
		same := true
		for i, c := range clients {
			var pull kvwire.PullResp
			if err := kvwire.Call(c, "admin.pull", nil, &pull); err != nil {
				return fmt.Errorf("wire smoke: pull via %s: %w", daemons[i], err)
			}
			if err := kvwire.Call(c, "admin.stat", nil, &stats[i]); err != nil {
				return fmt.Errorf("wire smoke: stat via %s: %w", daemons[i], err)
			}
			if stats[i].Version != stats[0].Version {
				same = false
			}
		}
		if same {
			for i := 1; i < len(stats); i++ {
				if stats[i].Fingerprint != stats[0].Fingerprint {
					return fmt.Errorf("wire smoke: divergence at version %d: replica %d fingerprint %08x != replica %d fingerprint %08x",
						stats[0].Version, stats[i].Replica, stats[i].Fingerprint, stats[0].Replica, stats[0].Fingerprint)
				}
			}
			fmt.Fprintf(o.Out, "wire smoke: %d daemons converged at version %d, fingerprint %08x\n",
				len(stats), stats[0].Version, stats[0].Fingerprint)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire smoke: daemons did not converge: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
