// Failover: exercise the fault-tolerance story of paper §7 end to
// end — crash and recover a Tashkent-MW replica (dump + writeset
// replay) and crash the certifier leader mid-stream (the group elects
// a new leader and no committed transaction is lost). The session API
// rides through the replica crash transparently — Begin skips the
// crashed replica. Leader loss is different: mid-election commits fail
// with transport/not-leader errors, which are not benign certification
// aborts, so RunTx surfaces them and an explicit bounded retry loop
// rides the election out.
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tashkent"
)

func main() {
	db, err := tashkent.Start(tashkent.Config{
		Mode:     tashkent.ModeTashkentMW,
		Replicas: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	sess := db.Session()

	put := func(ctx context.Context, key, val string) error {
		return sess.RunTx(ctx, func(tx *tashkent.Tx) error {
			return tx.Update("t", key, map[string][]byte{"v": []byte(val)})
		})
	}

	// Build up some state and take the periodic backup dump.
	for i := 0; i < 20; i++ {
		if err := put(ctx, fmt.Sprintf("k%02d", i), "before-dump"); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := db.Replica(0).DumpNow(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("dump taken at version", db.Replica(0).Store().AnnouncedVersion())

	// More commits after the dump — these exist only in the
	// certifier's durable log (replica WAL is disabled under MW).
	for i := 20; i < 30; i++ {
		if err := put(ctx, fmt.Sprintf("k%02d", i), "after-dump"); err != nil {
			log.Fatal(err)
		}
	}

	// Crash replica 0. The session's routing notices the dead replica
	// and keeps serving on replica 1 — no caller-side replica math.
	db.Cluster().CrashReplica(0)
	fmt.Println("replica 0 crashed; session keeps committing during the outage")
	if err := put(ctx, "during-outage", "yes"); err != nil {
		log.Fatal(err)
	}

	// Recover: restore the dump, replay writesets from the certifier.
	report, err := db.Cluster().RecoverReplica(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica 0 recovered: dump=%dB restored to v%d, %d writesets re-applied in %v\n",
		report.DumpBytes, report.RecoveredVersion, report.WritesetsApplied,
		(report.RestoreDuration + report.ResyncDuration).Round(time.Millisecond))

	// Now kill the certifier leader; a backup takes over.
	leader := db.Cluster().GroupLeader(0)
	for i := 0; i < 3; i++ {
		if db.Cluster().Certifier(i) == leader {
			db.Cluster().CrashCertifier(i)
			fmt.Printf("certifier leader %d crashed\n", i)
			break
		}
	}
	// Mid-election commits fail with transport/not-leader errors. Those
	// are not the benign certification aborts RunTx absorbs, so the
	// executor surfaces them immediately — ride the election out with
	// an explicit retry loop bounded by the context deadline.
	electCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		if err := put(electCtx, "post-failover", "yes"); err == nil {
			break
		}
		if electCtx.Err() != nil {
			log.Fatal("system did not recover from leader crash")
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("new certifier leader elected; commits flowing again")

	// Verify: both replicas converge to identical state.
	if err := db.Converge(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fp0 := db.Replica(0).Store().Fingerprint()
	fp1 := db.Replica(1).Store().Fingerprint()
	fmt.Printf("state fingerprints: replica0=%08x replica1=%08x equal=%v\n", fp0, fp1, fp0 == fp1)
	if fp0 != fp1 {
		log.Fatal("replicas diverged")
	}
	fmt.Println("no committed transaction was lost")
}
