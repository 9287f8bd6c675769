// Command certd runs one certifier node as a TCP daemon. A group of
// three gives the paper's leader + two backups deployment (§7.3).
//
// Example 3-node group on one machine:
//
//	certd -id 0 -listen :7100 -peers 0=localhost:7100,1=localhost:7101,2=localhost:7102
//	certd -id 1 -listen :7101 -peers 0=localhost:7100,1=localhost:7101,2=localhost:7102
//	certd -id 2 -listen :7102 -peers 0=localhost:7100,1=localhost:7101,2=localhost:7102
//
// Replica daemons (cmd/tashd) point at the same peer list.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
)

func main() {
	var (
		id      = flag.Int("id", 0, "this node's id within the group")
		listen  = flag.String("listen", ":7100", "listen address")
		peers   = flag.String("peers", "", "comma-separated id=host:port list for the whole group")
		fsyncMS = flag.Int("fsync-us", 800, "simulated log fsync latency in microseconds (8000 = paper disk)")
		noDur   = flag.Bool("no-durability", false, "skip disk writes (tashAPInoCERT ablation)")
	)
	flag.Parse()

	peerClients, err := parsePeers(*peers, *id)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	srv := certifier.New(certifier.Config{
		ID:    *id,
		Peers: peerClients,
		Disk: simdisk.New(simdisk.Profile{
			FsyncLatency: time.Duration(*fsyncMS) * time.Microsecond,
			FsyncJitter:  time.Duration(*fsyncMS/4) * time.Microsecond,
		}, int64(*id)),
		DisableDurability: *noDur,
		ElectionTimeout:   300 * time.Millisecond,
		Seed:              int64(*id) + 1,
	})
	ts, err := transport.ServeTCP(*listen, srv.Handle, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	// No Campaign here, unlike cluster.New: the peers are other processes
	// that may not be listening yet, so a vote round now would mostly be
	// lost. The election timeout elects whoever is up when it runs out.
	srv.Start()
	fmt.Printf("certd %d listening on %s (%d peers)\n", *id, ts.Addr(), len(peerClients))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	srv.Stop()
	ts.Close()
}

func parsePeers(s string, self int) (map[int]transport.Client, error) {
	out := make(map[int]transport.Client)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q", kv[0])
		}
		if id == self {
			continue
		}
		out[id] = transport.DialTCP(kv[1])
	}
	return out, nil
}
