// Command tashkv is a minimal CLI client for a tashd daemon, speaking
// the kv.get / kv.put / kv.txn methods over the framed transport:
//
//	tashkv -addr localhost:7200 put accounts alice balance 100
//	tashkv -addr localhost:7200 get accounts alice balance
//	tashkv -addr localhost:7200 txn update:t:k1:v=1 read:t:k1 update:t:k2:v=2
//	tashkv -addr localhost:7200 stat   # replication state (version, fingerprint)
//	tashkv -addr localhost:7200 pull   # force one writeset pull round
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tashkent/internal/kvwire"
	"tashkent/internal/transport"
)

func main() {
	addr := flag.String("addr", "localhost:7200", "tashd address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tashkv [-addr host:port] get|put|txn ...")
		os.Exit(2)
	}
	c := transport.DialTCP(*addr)
	defer c.Close()

	var err error
	switch args[0] {
	case "get":
		if len(args) != 4 {
			err = fmt.Errorf("usage: get <table> <key> <col>")
			break
		}
		var resp kvwire.GetResp
		if err = kvwire.Call(c, "kv.get", kvwire.GetReq{Table: args[1], Key: args[2], Col: args[3]}, &resp); err == nil {
			fmt.Printf("found=%v value=%s\n", resp.Found, resp.Value)
		}
	case "put":
		if len(args) != 5 {
			err = fmt.Errorf("usage: put <table> <key> <col> <value>")
			break
		}
		var resp kvwire.PutResp
		if err = kvwire.Call(c, "kv.put", kvwire.PutReq{Table: args[1], Key: args[2], Col: args[3], Value: []byte(args[4])}, &resp); err == nil {
			fmt.Printf("aborted=%v\n", resp.Aborted)
		}
	case "txn":
		ops, perr := parseOps(args[1:])
		if perr != nil {
			err = perr
			break
		}
		var resp kvwire.TxnResp
		if err = kvwire.Call(c, "kv.txn", kvwire.TxnReq{Ops: ops}, &resp); err == nil {
			fmt.Printf("aborted=%v\n", resp.Aborted)
			for i, rd := range resp.Reads {
				if ops[i].Kind == "read" {
					fmt.Printf("read %s/%s: %v\n", ops[i].Table, ops[i].Key, render(rd))
				}
			}
		}
	case "stat":
		var resp kvwire.StatResp
		if err = kvwire.Call(c, "admin.stat", nil, &resp); err == nil {
			fmt.Printf("replica=%d version=%d fingerprint=%08x\n", resp.Replica, resp.Version, resp.Fingerprint)
		}
	case "pull":
		var resp kvwire.PullResp
		if err = kvwire.Call(c, "admin.pull", nil, &resp); err == nil {
			fmt.Printf("version=%d\n", resp.Version)
		}
	default:
		err = fmt.Errorf("unknown command %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseOps turns kind:table:key[:col=val,...] words into txn ops.
func parseOps(words []string) ([]kvwire.TxnOp, error) {
	var ops []kvwire.TxnOp
	for _, w := range words {
		parts := strings.SplitN(w, ":", 4)
		if len(parts) < 3 {
			return nil, fmt.Errorf("bad op %q (want kind:table:key[:col=val,...])", w)
		}
		op := kvwire.TxnOp{Kind: parts[0], Table: parts[1], Key: parts[2]}
		if len(parts) == 4 && parts[3] != "" {
			op.Cols = map[string][]byte{}
			for _, kv := range strings.Split(parts[3], ",") {
				c, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("bad col %q in op %q", kv, w)
				}
				op.Cols[c] = []byte(v)
			}
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func render(row map[string][]byte) string {
	if row == nil {
		return "<missing>"
	}
	var parts []string
	for k, v := range row {
		parts = append(parts, fmt.Sprintf("%s=%s", k, v))
	}
	return strings.Join(parts, " ")
}
