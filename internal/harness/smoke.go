package harness

import (
	"fmt"
	"time"

	"tashkent/internal/kvwire"
	"tashkent/internal/transport"
)

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
