package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval. Client spans come in families of four
// sharing a txn id: a client.txn parent and its client.begin,
// client.exec and client.commit children, which tile it. RPC spans
// (rpc.<method>, with the fabric endpoints) have no parent: linking an
// RPC to the transaction that caused it needs a stage clock inside the
// program, which the benchmark must not add.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Txn     uint64 `json:"txn,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Kind    string `json:"kind,omitempty"`    // client spans: update | read
	Outcome string `json:"outcome,omitempty"` // client.txn: committed | aborted | failed
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
}

// rpcSpan is what the interposer records per call.
type rpcSpan struct {
	method, from, to string
	start, end       int64
}

// rpcTracer is a transport.Interposer that times every call on the
// local fabric and delivers it exactly once.
type rpcTracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []rpcSpan
}

func (t *rpcTracer) Call(from, to, method string, _ []byte, deliver func() ([]byte, error)) ([]byte, error) {
	start := time.Since(t.epoch)
	resp, err := deliver()
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, rpcSpan{method, from, to, int64(start), int64(end)})
	t.mu.Unlock()
	return resp, err
}

// rpcMetrics emits the I metrics from the interposer's spans. updates is
// the number of update transactions committed while the interposer was
// installed.
func rpcMetrics(m *metricSet, spans []rpcSpan, updates float64) {
	by := make(map[string][]float64)
	for _, s := range spans {
		by[s.method] = append(by[s.method], float64(s.end-s.start))
	}
	p50ms := func(method string) float64 { return percentile(by[method], 50) / 1e6 }
	m.add("certifier.certify_rpc_p50_ms", p50ms("cert.certify"), "ms")
	m.add("certifier.prepare_rpc_p50_ms", p50ms("cert.prepare"), "ms")
	m.add("certifier.resolve_rpc_p50_ms", p50ms("cert.resolve"), "ms")
	m.add("paxos.append_rpc_p50_ms", p50ms("paxos.append"), "ms")
	m.add("paxos.appends_per_txn", ratio(float64(len(by["paxos.append"])), updates), "1")
	m.add("paxos.votes", float64(len(by["paxos.vote"])), "count")
	m.add("partition.fills_per_txn", ratio(float64(len(by["cert.fill"])), updates), "1")
}

var kindNames = [...]string{kindUpdate: "update", kindRead: "read"}
var outcomeNames = [...]string{outCommitted: "committed", outAborted: "aborted", outFailed: "failed"}

// writeTrace writes the traced samples and RPC spans as one JSON
// document: {"epoch": ..., "spans": [...]}, times in nanoseconds since
// the epoch.
func writeTrace(path string, epoch time.Time, samples []sample, rpcs []rpcSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"epoch":"` + epoch.UTC().Format(time.RFC3339Nano) + `","spans":[` + "\n")
	enc := json.NewEncoder(w)
	var id uint64
	first := true
	emit := func(s span) {
		if !first {
			w.WriteString(",")
		}
		first = false
		id++
		s.ID = id
		enc.Encode(s) // writes to a bufio.Writer; its error surfaces at Flush
	}
	for i, sm := range samples {
		txn := uint64(i + 1)
		kind := kindNames[sm.kind]
		emit(span{Name: "client.txn", Txn: txn, StartNS: sm.start, EndNS: sm.done, Kind: kind, Outcome: outcomeNames[sm.outcome]})
		parent := id
		emit(span{Name: "client.begin", Parent: parent, Txn: txn, StartNS: sm.start, EndNS: sm.begun, Kind: kind})
		emit(span{Name: "client.exec", Parent: parent, Txn: txn, StartNS: sm.begun, EndNS: sm.execd, Kind: kind})
		emit(span{Name: "client.commit", Parent: parent, Txn: txn, StartNS: sm.execd, EndNS: sm.done, Kind: kind})
	}
	for _, r := range rpcs {
		emit(span{Name: "rpc." + r.method, StartNS: r.start, EndNS: r.end, From: r.from, To: r.to})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
