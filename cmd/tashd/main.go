// Command tashd runs one database replica as a TCP daemon against a
// certd group. It exposes a small key-value transaction API over the
// same framed transport the internal components use:
//
//	method "kv.get"    request: gob(kvwire.GetReq)    response: gob(kvwire.GetResp)
//	method "kv.put"    request: gob(kvwire.PutReq)    response: gob(kvwire.PutResp)
//	method "kv.txn"    request: gob(kvwire.TxnReq)    response: gob(kvwire.TxnResp)
//
// kv.txn executes a multi-operation read/update transaction atomically
// through the full replication protocol (certification, global
// ordering, writeset propagation).
//
// Two admin methods (empty request payload) support multi-process
// smoke tests and operations:
//
//	method "admin.stat"  response: gob(kvwire.StatResp)   replication state
//	method "admin.pull"  response: gob(kvwire.PullResp)   one pull round
//
// Like the embedded client's RunTx executor, write requests absorb the
// benign certification aborts of generalized snapshot isolation: the
// daemon re-executes and re-commits with capped exponential backoff,
// bounded by -txn-timeout, and reports Aborted only once the retry
// budget is spent. Commits run through the context-aware commit path,
// so a request that outlives its deadline aborts its local handle
// instead of blocking a handler goroutine.
//
// Example against a local certd group:
//
//	tashd -id 1 -listen :7200 -mode mw -certifiers localhost:7100,localhost:7101,localhost:7102
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tashkent"
	"tashkent/internal/certifier"
	"tashkent/internal/kvwire"
	"tashkent/internal/partition"
	"tashkent/internal/proxy"
	"tashkent/internal/replica"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
)

func main() {
	var (
		id         = flag.Int("id", 1, "replica id (unique across replicas)")
		listen     = flag.String("listen", ":7200", "listen address")
		modeFlag   = flag.String("mode", "mw", "commit strategy: base|mw|api")
		certifiers = flag.String("certifiers", "localhost:7100", "comma-separated certifier addresses (id order)")
		fsyncUS    = flag.Int("fsync-us", 800, "simulated fsync latency in microseconds")
		dedicated  = flag.Bool("dedicated-io", false, "database files on ramdisk; disk serves only the log")
		txnTimeout = flag.Duration("txn-timeout", 10*time.Second, "per-request deadline covering execution, commit and abort retries")
	)
	flag.Parse()

	var mode proxy.Mode
	switch *modeFlag {
	case "base":
		mode = proxy.Base
	case "mw":
		mode = proxy.TashkentMW
	case "api":
		mode = proxy.TashkentAPI
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	var clients []transport.Client
	for _, addr := range strings.Split(*certifiers, ",") {
		clients = append(clients, transport.DialTCP(strings.TrimSpace(addr)))
	}
	rep := replica.Open(replica.Config{
		ID:   *id,
		Mode: mode,
		IO: replica.IOConfig{
			Profile: simdisk.Profile{
				FsyncLatency: time.Duration(*fsyncUS) * time.Microsecond,
				FsyncJitter:  time.Duration(*fsyncUS/4) * time.Microsecond,
			},
			Dedicated: *dedicated,
			Seed:      int64(*id),
		},
		Parts:          &partition.Topology{Groups: []*certifier.Client{certifier.NewClient(clients, 10*time.Second)}},
		StalenessBound: time.Second,
	})

	srv, err := transport.ServeTCP(*listen, handler(rep, *id, *txnTimeout), 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("tashd replica %d (%s) listening on %s\n", *id, mode, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	srv.Close()
	rep.Close()
}

func handler(rep *replica.Replica, id int, txnTimeout time.Duration) transport.Handler {
	return func(method string, req []byte) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), txnTimeout)
		defer cancel()
		switch method {
		case "admin.stat":
			st := rep.Store()
			return kvwire.Encode(kvwire.StatResp{Replica: id, Version: st.AnnouncedVersion(), Fingerprint: st.Fingerprint()})
		case "admin.pull":
			if err := rep.Proxy().PullOnce(); err != nil {
				return nil, err
			}
			return kvwire.Encode(kvwire.PullResp{Version: rep.Store().AnnouncedVersion()})
		case "kv.get":
			var r kvwire.GetReq
			if err := kvwire.Decode(req, &r); err != nil {
				return nil, err
			}
			tx, err := rep.Begin()
			if err != nil {
				return nil, err
			}
			defer tx.Abort()
			v, ok, err := tx.ReadCol(r.Table, r.Key, r.Col)
			if err != nil {
				return nil, err
			}
			return kvwire.Encode(kvwire.GetResp{Value: v, Found: ok})
		case "kv.put":
			var r kvwire.PutReq
			if err := kvwire.Decode(req, &r); err != nil {
				return nil, err
			}
			aborted, err := commitRetried(ctx, rep, func(tx *proxy.Tx) error {
				return tx.Update(r.Table, r.Key, map[string][]byte{r.Col: r.Value})
			})
			if err != nil {
				return nil, err
			}
			return kvwire.Encode(kvwire.PutResp{Aborted: aborted})
		case "kv.txn":
			var r kvwire.TxnReq
			if err := kvwire.Decode(req, &r); err != nil {
				return nil, err
			}
			return runTxn(ctx, rep, r)
		default:
			return nil, fmt.Errorf("tashd: unknown method %q", method)
		}
	}
}

func runTxn(ctx context.Context, rep *replica.Replica, r kvwire.TxnReq) ([]byte, error) {
	for _, op := range r.Ops {
		switch op.Kind {
		case "read", "update", "insert", "delete":
		default:
			return nil, fmt.Errorf("tashd: bad op kind %q", op.Kind)
		}
	}
	var resp kvwire.TxnResp
	aborted, err := commitRetried(ctx, rep, func(tx *proxy.Tx) error {
		resp = kvwire.TxnResp{Reads: make([]map[string][]byte, len(r.Ops))}
		for i, op := range r.Ops {
			var err error
			switch op.Kind {
			case "read":
				resp.Reads[i], _, err = tx.Read(op.Table, op.Key)
			case "update":
				err = tx.Update(op.Table, op.Key, op.Cols)
			case "insert":
				err = tx.Insert(op.Table, op.Key, op.Cols)
			case "delete":
				err = tx.Delete(op.Table, op.Key)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	resp.Aborted = aborted
	return kvwire.Encode(resp)
}

// commitRetried is the daemon-side analogue of the session executor's
// RunTx: it runs fn in a fresh transaction and commits through the
// context-aware path, retrying benign snapshot-isolation aborts with
// capped exponential backoff. It reports aborted=true once the retry
// budget or ctx is spent, and returns non-benign errors immediately.
func commitRetried(ctx context.Context, rep *replica.Replica, fn func(*proxy.Tx) error) (aborted bool, err error) {
	const maxRetries = 8
	backoff := time.Millisecond
	const backoffCap = 64 * time.Millisecond
	for attempt := 0; ; attempt++ {
		tx, err := rep.Begin()
		if err != nil {
			return false, err
		}
		if err = fn(tx); err == nil {
			err = tx.CommitCtx(ctx)
		} else {
			tx.Abort()
		}
		switch {
		case err == nil:
			return false, nil
		case !tashkent.IsAborted(err):
			return false, err
		case attempt == maxRetries:
			return true, nil
		}
		select {
		case <-ctx.Done():
			// A deadline expiry is not a certification conflict; report
			// it as an error so the client can tell the cases apart.
			return false, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}
