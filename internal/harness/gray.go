package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tashkent"
	"tashkent/internal/chaos"
	"tashkent/internal/cluster"
	"tashkent/internal/metrics"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
)

// This file implements `tashbench -exp gray`: gray-failure drills.
// Unlike the chaos experiment — uniform fault probabilities and
// crash-restarts, i.e. nodes that die honestly — gray failures are
// nodes and links that stay up and keep answering but answer *slowly
// or lossily*: a degraded disk, one bad NIC, a certifier group that
// lost its quorum while the replicas stayed healthy. The drills
// validate the overload/degradation machinery this repo adds on top of
// the paper's design: router circuit breakers that eject a slow
// replica, the session-level degradation breaker that turns certifier
// quorum loss into fast typed write failures while snapshot reads keep
// flowing, and the same five safety invariants the chaos checker
// enforces — under gray fire instead of crash fire.

// buildGrayPlan derives a seeded gray-failure plan: a healthy mesh
// (no uniform fault probabilities) with localized victims — one slow
// replica→certifier link, one lossy intra-group certifier link, a
// mid-window slow-disk episode on one replica, and one asymmetric cut.
// A pure function of the seed, like buildChaosPlan.
func buildGrayPlan(seed int64, window time.Duration) chaosPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x62A7F))
	modes := []proxy.Mode{proxy.TashkentMW, proxy.TashkentAPI, proxy.Base}
	partitions := 1
	if rng.Intn(2) == 1 {
		partitions = 2
	}
	p := chaosPlan{
		seed:       seed,
		mode:       modes[rng.Intn(len(modes))],
		partitions: partitions,
		window:     window,
		links:      chaosLinks(partitions),
		// The mesh itself stays healthy; gray failures are the
		// localized victims selected below, not uniform noise.
		rules:     chaos.Rules{},
		diskDelay: time.Duration(1+rng.Intn(3)) * time.Millisecond,
	}
	nodes := partitions * chaosCertifiers
	at := func(loFrac, hiFrac float64) time.Duration {
		lo, hi := float64(window)*loFrac, float64(window)*hiFrac
		return time.Duration(lo + rng.Float64()*(hi-lo))
	}

	// Victim 1: a slow replica→certifier link — every message arrives,
	// late.
	p.gray = append(p.gray, grayOverride{
		From:  cluster.ReplicaName(rng.Intn(chaosReplicas)),
		To:    certNodeName(rng.Intn(nodes)),
		Rules: chaos.Rules{DelayProb: 1, MaxDelay: time.Duration(2+rng.Intn(5)) * time.Millisecond},
	})
	// Victim 2: a lossy intra-group certifier link — most messages
	// arrive, some vanish, none are refused: the gray middle ground
	// between healthy and cut.
	g := rng.Intn(partitions)
	from := rng.Intn(chaosCertifiers)
	to := rng.Intn(chaosCertifiers)
	if to == from {
		to = (to + 1) % chaosCertifiers
	}
	p.gray = append(p.gray, grayOverride{
		From: certNodeName(g*chaosCertifiers + from),
		To:   certNodeName(g*chaosCertifiers + to),
		Rules: chaos.Rules{
			DropProb:     0.20 + 0.20*rng.Float64(),
			DropRespProb: 0.10 + 0.10*rng.Float64(),
			DelayProb:    0.5,
			MaxDelay:     2 * time.Millisecond,
		},
	})

	// Timeline: a slow-disk episode on one replica plus one asymmetric
	// replica→certifier cut — gray while they last, healthy before and
	// after.
	p.events = append(p.events,
		faultEvent{At: at(0.15, 0.35), Dur: time.Duration(40+rng.Intn(40)) * time.Millisecond,
			Kind: "slow-disk", Node: rng.Intn(chaosReplicas)},
		faultEvent{At: at(0.40, 0.60), Dur: time.Duration(20+rng.Intn(40)) * time.Millisecond, Kind: "cut",
			From: cluster.ReplicaName(rng.Intn(chaosReplicas)),
			To:   certNodeName(rng.Intn(nodes))},
		faultEvent{At: at(0.30, 0.50), Kind: "dump", Node: rng.Intn(chaosReplicas)},
	)
	sort.Slice(p.events, func(i, j int) bool { return p.events[i].At < p.events[j].At })
	return p
}

// RunGraySeed executes one seeded gray-failure run — slow and lossy
// victims under client fire — and verifies the full chaos invariant
// set (durability of acked commits, SI consistency of every read,
// convergence) against the certifier log.
func RunGraySeed(seed int64, o Options) (ChaosResult, error) {
	return runChaosPlan(buildGrayPlan(seed, 300*time.Millisecond), o)
}

// RunGrayExperiment runs every seed and prints a per-seed table, like
// RunChaosExperiment but over gray plans. The returned error lists the
// failing seeds.
func RunGrayExperiment(seeds []int64, o Options) ([]ChaosResult, error) {
	o = o.withDefaults()
	fmt.Fprintf(o.Out, "\n=== gray: seeded gray-failure drills + invariant check ===\n")
	fmt.Fprintf(o.Out, "seed\tmode\tparts\tdigest\tacked\taborted\tunknown\treads\tlog\tdrops\tdelays\tcuts\tverdict\n")
	var results []ChaosResult
	var failing []int64
	for _, seed := range seeds {
		res, err := RunGraySeed(seed, o)
		if err != nil {
			res.Violations = append(res.Violations, err)
		}
		results = append(results, res)
		verdict := "PASS"
		if !res.Passed() {
			verdict = "FAIL"
			failing = append(failing, seed)
		}
		fmt.Fprintf(o.Out, "%d\t%s\t%d\t%016x\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			res.Seed, res.Mode, res.Partitions, res.Digest, res.Acked, res.Aborted, res.Unknown, res.Reads,
			res.LogEntries, res.Faults.DroppedReqs+res.Faults.DroppedResps,
			res.Faults.Delayed, res.Faults.CutDrops, verdict)
		for _, v := range res.Violations {
			fmt.Fprintf(o.Out, "  seed %d: %v\n", res.Seed, v)
		}
	}
	if len(failing) > 0 {
		return results, fmt.Errorf("gray: %d/%d seeds failed invariants: %v (replay with -exp gray -seed S)",
			len(failing), len(seeds), failing)
	}
	return results, nil
}

// --- Slow-disk drill: router breaker ejection ---

// SlowDiskDrillResult reports the router circuit breaker's reaction to
// one replica going gray (alive but with stalling disks).
type SlowDiskDrillResult struct {
	Seed          int64
	EjectAfter    time.Duration // hook install → breaker open
	PostP99       time.Duration // commit p99 while the victim is ejected
	PostSlowShare float64       // fraction of post-ejection commits still on the victim (probes)
	PostCommits   int64
	Recovered     bool // breaker closed again after the disk healed
}

const (
	grayTable     = "gray"
	grayCol       = "v"
	grayDiskStall = 20 * time.Millisecond
)

// RunSlowDiskDrill makes one replica's disks stall on every operation
// — the node keeps answering, slowly — and verifies the session
// router's latency breaker ejects it: commit traffic shifts to the
// healthy replicas, post-ejection p99 stays below one disk stall, and
// once the disk heals a half-open probe folds the replica back in.
func RunSlowDiskDrill(seed int64, o Options) (SlowDiskDrillResult, error) {
	o = o.withDefaults()
	res := SlowDiskDrillResult{Seed: seed}
	const (
		slowReplica = 1
		workers     = 6
	)
	db, err := tashkent.Start(tashkent.Config{
		Mode:     tashkent.ModeTashkentAPI,
		Replicas: 3,
		Seed:     seed,
	})
	if err != nil {
		return res, err
	}
	defer db.Close()

	// Worker fire: pure updates, one key per worker (no cert
	// conflicts), round-robin routing so every replica — including the
	// victim — keeps sampling.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var phase atomic.Int32 // 0 warm, 1 measuring post-ejection, 2 done measuring
	postLat := metrics.NewLatency(0)
	var postAll, postSlow atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.Session(tashkent.WithPolicy(tashkent.RoundRobin()))
			key := fmt.Sprintf("sd%d", w)
			n := 0
			for ctx.Err() == nil {
				n++
				tctx, tcancel := context.WithTimeout(ctx, time.Second)
				tx, err := sess.Begin(tctx)
				if err != nil {
					tcancel()
					continue
				}
				rep := tx.Replica()
				t0 := time.Now()
				if err := tx.Update(grayTable, key, map[string][]byte{grayCol: []byte(fmt.Sprintf("%d", n))}); err != nil {
					tx.Abort()
					tcancel()
					continue
				}
				err = tx.Commit(tctx)
				el := time.Since(t0)
				tcancel()
				if err != nil {
					continue
				}
				if phase.Load() == 1 {
					postAll.Add(1)
					if rep == slowReplica {
						postSlow.Add(1)
					}
					postLat.Observe(el)
				}
			}
		}()
	}

	// Warm every replica's latency EWMA past the breaker's minimum
	// sample count, then go gray.
	time.Sleep(300 * time.Millisecond)
	r := db.Replica(slowReplica)
	hook := func(simdisk.Op, int, int) { time.Sleep(grayDiskStall) }
	r.DataDisk().SetHook(hook)
	r.LogDisk().SetHook(hook)
	heal := func() {
		r.DataDisk().SetHook(nil)
		r.LogDisk().SetHook(nil)
	}
	defer heal() // a failed drill must not shut down through the stalled disk
	t0 := time.Now()
	ejected := chaos.WaitUntil(10*time.Second, func() bool {
		state, _, _, _ := db.RouterCounters().Health(slowReplica)
		return state == "open"
	})
	res.EjectAfter = time.Since(t0)
	if !ejected {
		return res, fmt.Errorf("slow-disk drill: replica %d was never ejected", slowReplica)
	}

	// Measure a post-ejection window: traffic should avoid the victim
	// (half-open probes excepted) and commit p99 should sit below a
	// single disk stall.
	phase.Store(1)
	time.Sleep(400 * time.Millisecond)
	phase.Store(2)
	res.PostCommits = postAll.Load()
	res.PostP99 = postLat.Summarize().P99
	if res.PostCommits > 0 {
		res.PostSlowShare = float64(postSlow.Load()) / float64(res.PostCommits)
	}

	// Heal the disk; a half-open probe should fold the replica back.
	heal()
	res.Recovered = chaos.WaitUntil(10*time.Second, func() bool {
		state, _, _, _ := db.RouterCounters().Health(slowReplica)
		return state == "closed"
	})
	cancel()
	wg.Wait()
	return res, nil
}

// --- Degraded-mode drill: certifier quorum loss ---

// DegradedDrillResult reports the read-only degradation drill.
type DegradedDrillResult struct {
	FailsBeforeDegraded int           // slow failures before the breaker opened
	DegradedFailFast    time.Duration // latency of the first breaker-fast write failure
	ReadsOKDuring       bool          // snapshot reads kept working while degraded
	WriteRecovered      bool          // writes resumed after the certifiers healed
}

// RunDegradedDrill kills the certifier group's quorum (two of three
// nodes) and verifies graceful read-only degradation: after a bounded
// number of slow failover attempts, writes fail *fast* with the typed
// degraded error; snapshot reads keep serving the last merged version
// throughout; and once the certifiers recover, a half-open probe
// restores write service without a restart.
func RunDegradedDrill(o Options) (DegradedDrillResult, error) {
	o = o.withDefaults()
	var res DegradedDrillResult
	db, err := tashkent.Start(tashkent.Config{
		Mode:        tashkent.ModeTashkentMW,
		Replicas:    2,
		Certifiers:  3,
		CertTimeout: 150 * time.Millisecond,
		Seed:        o.Seed,
	})
	if err != nil {
		return res, err
	}
	defer db.Close()
	ctx := context.Background()
	sess := db.Session()

	commitOnce := func(cctx context.Context, val string) error {
		tx, err := sess.Begin(cctx)
		if err != nil {
			return err
		}
		if err := tx.Update(grayTable, "k", map[string][]byte{grayCol: []byte(val)}); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit(cctx)
	}

	// Prime: one committed value every replica has merged.
	if err := commitOnce(ctx, "v1"); err != nil {
		return res, fmt.Errorf("degraded drill: prime write: %w", err)
	}
	if err := db.Converge(10 * time.Second); err != nil {
		return res, err
	}

	// Kill the quorum: the leader and one follower. The surviving node
	// answers — it is gray, not dead — but can never win an election.
	cl := db.Cluster()
	li := cl.GroupLeaderIndex(0)
	if li < 0 {
		li = 0
	}
	// b is a follower of the leader's own group.
	size := cl.Certifiers() / cl.Groups()
	a, b := li, li/size*size+(li%size+1)%size
	imgA := cl.CrashCertifier(a)
	imgB := cl.CrashCertifier(b)

	// Writes: a bounded number of slow failover failures, then the
	// degradation breaker opens and failures become fast and typed.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		wctx, wcancel := context.WithTimeout(ctx, 2*time.Second)
		t0 := time.Now()
		err := commitOnce(wctx, "v2")
		el := time.Since(t0)
		wcancel()
		if err == nil {
			continue // a straggler batch may still drain; keep pushing
		}
		if tashkent.IsDegraded(err) {
			res.DegradedFailFast = el
			break
		}
		res.FailsBeforeDegraded++
	}
	if res.DegradedFailFast == 0 {
		return res, fmt.Errorf("degraded drill: the typed degraded error never surfaced")
	}

	// Reads: still served, at the last merged version.
	rtx, err := sess.Begin(ctx, tashkent.ReadOnly())
	if err == nil {
		v, ok, rerr := rtx.ReadCol(grayTable, "k", grayCol)
		rtx.Abort()
		res.ReadsOKDuring = rerr == nil && ok && string(v) == "v1"
	}

	// Heal: recover both certifiers and wait for a half-open probe to
	// restore write service.
	if err := cl.RecoverCertifier(a, imgA); err != nil {
		return res, err
	}
	if err := cl.RecoverCertifier(b, imgB); err != nil {
		return res, err
	}
	res.WriteRecovered = chaos.WaitUntil(15*time.Second, func() bool {
		wctx, wcancel := context.WithTimeout(ctx, time.Second)
		defer wcancel()
		return commitOnce(wctx, "v3") == nil
	})
	return res, nil
}
