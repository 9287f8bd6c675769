package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"tashkent/internal/chaos"
	"tashkent/internal/cluster"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
	"tashkent/internal/workload"
)

// This file implements `tashbench -exp chaos`: seeded, deterministic
// fault-schedule runs against a full cluster, with every client-visible
// outcome recorded and verified by the chaos invariant checker.
//
// One seed fully determines the plan: the system mode, the injector's
// per-link fault probabilities and decision streams, and the fault
// event timeline (partitions, link cuts, crash-restarts of a replica
// and a certifier, a concurrent dump). The plan digest printed per
// seed is a pure function of the seed, so a failing run is replayed
// with `tashbench -exp chaos -seed S`.

// chaosReplicas and chaosCertifiers size every chaos cluster.
const (
	chaosReplicas   = 3
	chaosCertifiers = 3
)

// faultEvent is one planned fault. Kind selects the action; Node and
// From/To target it; Dur is how long until the heal/restart.
type faultEvent struct {
	At   time.Duration
	Dur  time.Duration
	Kind string // "cut" | "partition-cert" | "crash-replica" | "crash-certifier" | "crash-group-leader" | "dump"
	Node int
	From string
	To   string
}

// chaosPlan is everything a seed determines up front.
type chaosPlan struct {
	seed       int64
	mode       proxy.Mode
	partitions int // certifier groups (1 = classic single-group system)
	rules      chaos.Rules
	window     time.Duration
	events     []faultEvent
	links      []string

	// Gray-failure extensions (see gray.go): per-link rule overrides —
	// slow or lossy victim links in an otherwise healthy mesh — and
	// the per-op stall a "slow-disk" event injects through the
	// victim replica's simdisk hooks.
	gray      []grayOverride
	diskDelay time.Duration
}

// grayOverride is one victim link's degraded rules.
type grayOverride struct {
	From, To string
	Rules    chaos.Rules
}

// applyGray installs the plan's per-link overrides on an injector.
func (p chaosPlan) applyGray(inj *chaos.Injector) {
	for _, g := range p.gray {
		inj.SetLinkRules(g.From, g.To, g.Rules)
	}
}

// certNodeName names flat certifier node i.
func certNodeName(i int) string {
	return cluster.GroupCertifierName(i/chaosCertifiers, i%chaosCertifiers)
}

// chaosLinks enumerates every fabric link of the cluster topology.
// Partitioned topologies have no certifier links across groups — the
// groups are independent paxos clusters.
func chaosLinks(partitions int) []string {
	nodes := partitions * chaosCertifiers
	var out []string
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if i != j && i/chaosCertifiers == j/chaosCertifiers {
				out = append(out, certNodeName(i)+"→"+certNodeName(j))
			}
		}
	}
	for r := 0; r < chaosReplicas; r++ {
		for i := 0; i < nodes; i++ {
			out = append(out, cluster.ReplicaName(r)+"→"+certNodeName(i))
		}
	}
	return out
}

// buildChaosPlan derives the full fault plan from the seed — a pure
// function, so two runs of the same seed execute the identical
// schedule.
func buildChaosPlan(seed int64, window time.Duration) chaosPlan {
	rng := rand.New(rand.NewSource(seed ^ 0xC4A05))
	modes := []proxy.Mode{proxy.TashkentMW, proxy.TashkentAPI, proxy.Base}
	// Half the seeds run partitioned certification (2 or 4 groups); the
	// rest keep the classic single-group system under fire.
	partitions := 1
	if rng.Intn(2) == 1 {
		partitions = []int{2, 4}[rng.Intn(2)]
	}
	p := chaosPlan{
		seed:       seed,
		mode:       modes[rng.Intn(len(modes))],
		partitions: partitions,
		window:     window,
		links:      chaosLinks(partitions),
		rules: chaos.Rules{
			DropProb:     0.01 + 0.03*rng.Float64(),
			DropRespProb: 0.01 + 0.02*rng.Float64(),
			DupProb:      0.01 + 0.02*rng.Float64(),
			DelayProb:    0.05 + 0.10*rng.Float64(),
			MaxDelay:     time.Duration(1+rng.Intn(4)) * time.Millisecond,
		},
	}
	nodes := partitions * chaosCertifiers
	at := func(loFrac, hiFrac float64) time.Duration {
		lo, hi := float64(window)*loFrac, float64(window)*hiFrac
		return time.Duration(lo + rng.Float64()*(hi-lo))
	}
	dur := func() time.Duration {
		return time.Duration(20+rng.Intn(40)) * time.Millisecond
	}

	// Mandatory coverage per seed: one replica crash-restart, one
	// certifier crash-restart, one certifier partition, one asymmetric
	// replica→certifier cut. Crash windows are placed apart so at most
	// one certifier is ever down (a group needs its majority).
	// Partitioned plans crash a *group leader* picked at run time — the
	// schedule fixes which group loses its leader, the cluster decides
	// who that is.
	if partitions > 1 {
		p.events = append(p.events,
			faultEvent{At: at(0.10, 0.30), Dur: dur(), Kind: "crash-group-leader", Node: rng.Intn(partitions)})
	} else {
		p.events = append(p.events,
			faultEvent{At: at(0.10, 0.30), Dur: dur(), Kind: "crash-certifier", Node: rng.Intn(nodes)})
	}
	p.events = append(p.events,
		faultEvent{At: at(0.55, 0.75), Dur: dur(), Kind: "crash-replica", Node: rng.Intn(chaosReplicas)},
		faultEvent{At: at(0.20, 0.60), Dur: dur(), Kind: "partition-cert", Node: rng.Intn(nodes)},
		faultEvent{
			At: at(0.20, 0.60), Dur: dur(), Kind: "cut",
			From: cluster.ReplicaName(rng.Intn(chaosReplicas)),
			To:   certNodeName(rng.Intn(nodes)),
		},
		faultEvent{At: at(0.30, 0.50), Kind: "dump", Node: rng.Intn(chaosReplicas)},
	)
	// A few extra random cuts for asymmetry variety (within a group —
	// cross-group certifier links do not exist).
	for n := rng.Intn(3); n > 0; n-- {
		g := rng.Intn(partitions)
		from := g*chaosCertifiers + rng.Intn(chaosCertifiers)
		to := g*chaosCertifiers + rng.Intn(chaosCertifiers)
		if from == to {
			continue
		}
		p.events = append(p.events, faultEvent{
			At: at(0.10, 0.70), Dur: dur(), Kind: "cut",
			From: certNodeName(from), To: certNodeName(to),
		})
	}
	sort.Slice(p.events, func(i, j int) bool { return p.events[i].At < p.events[j].At })
	return p
}

// Digest fingerprints the planned fault schedule: the event timeline
// plus the injector's per-link decision streams. Identical for two
// runs of the same seed.
func (p chaosPlan) Digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "mode=%d parts=%d window=%d rules=%+v\n", p.mode, p.partitions, p.window, p.rules)
	for _, e := range p.events {
		fmt.Fprintf(h, "%d %s n%d %s->%s %d\n", e.At, e.Kind, e.Node, e.From, e.To, e.Dur)
	}
	for _, g := range p.gray {
		fmt.Fprintf(h, "gray %s->%s %+v\n", g.From, g.To, g.Rules)
	}
	if p.diskDelay > 0 {
		fmt.Fprintf(h, "diskDelay=%d\n", p.diskDelay)
	}
	inj := chaos.NewInjector(p.seed, p.rules)
	p.applyGray(inj)
	fmt.Fprintf(h, "plan=%x\n", inj.PlanDigest(p.links, 512))
	return h.Sum64()
}

// ChaosResult is one seed's outcome.
type ChaosResult struct {
	Seed       int64
	Mode       proxy.Mode
	Partitions int
	Digest     uint64
	Acked      int
	Aborted    int
	Unknown    int
	Reads      int
	LogEntries int
	Faults     chaos.Stats
	Violations []error
}

// Passed reports whether every invariant held.
func (r ChaosResult) Passed() bool { return len(r.Violations) == 0 }

// chaosTable and chaosCol are the workload schema of the chaos
// drivers.
const (
	chaosTable = "chaos"
	chaosCol   = "v"
	chaosKeys  = 48
)

// RunChaosSeed executes one seeded chaos run and verifies the
// invariants. The returned error reports infrastructure failures
// (cluster refused to start, never converged); invariant violations
// are in the result.
func RunChaosSeed(seed int64, o Options) (ChaosResult, error) {
	return runChaosPlan(buildChaosPlan(seed, 300*time.Millisecond), o)
}

// runChaosPlan executes one fault plan against a fresh cluster.
func runChaosPlan(plan chaosPlan, o Options) (ChaosResult, error) {
	o = o.withDefaults()
	seed := plan.seed
	window := plan.window
	res := ChaosResult{Seed: seed, Mode: plan.mode, Partitions: plan.partitions, Digest: plan.Digest()}

	checker := chaos.NewChecker()
	c, err := cluster.New(cluster.Config{
		Mode:       plan.mode,
		Replicas:   chaosReplicas,
		Certifiers: chaosCertifiers,
		Partitions: plan.partitions,
		IOProfile: simdisk.Profile{
			FsyncLatency: 200 * time.Microsecond,
			FsyncJitter:  100 * time.Microsecond,
		},
		LockTimeout:    time.Second,
		CertTimeout:    2 * time.Second,
		StalenessBound: 100 * time.Millisecond,
		// The chaos suite doubles as the dependency scheduler's
		// crash/resync soak.
		ApplyWorkers: 8,
		Seed:         seed,
	})
	if err != nil {
		return res, err
	}
	defer c.Close()

	inj := chaos.NewInjector(seed, plan.rules)
	plan.applyGray(inj)
	c.Fabric().SetInterposer(inj)

	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	var mu sync.Mutex // guards the tallies below
	acked, aborted, unknown := 0, 0, 0

	inj.Enable()
	for w := 0; w < 2*chaosReplicas; w++ {
		w := w
		workers.Add(1)
		go func() {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
			rep := w % chaosReplicas
			n := 0
			for ctx.Err() == nil {
				origin := rep + 1 // proxy origin id of the chosen replica
				tx, err := c.Begin(rep)
				if err != nil {
					rep = (rep + 1) % chaosReplicas // replica down: roam
					continue
				}
				key := fmt.Sprintf("k%02d", rng.Intn(chaosKeys))
				if rng.Float64() < 0.25 {
					val, found, rerr := tx.ReadCol(chaosTable, key, chaosCol)
					if rerr == nil {
						checker.RecordRead(chaos.Read{
							Worker: w, Snapshot: tx.SnapshotVersion(),
							Table: chaosTable, Key: key, Col: chaosCol,
							Value: string(val), Found: found,
						})
					}
					tx.Abort()
					continue
				}
				n++
				val := fmt.Sprintf("w%d-%d", w, n)
				keys := []string{key}
				if plan.partitions > 1 && rng.Float64() < 0.25 {
					// Multi-key update: with multiple keys the writeset
					// usually spans partitions, exercising the prepare/
					// resolve path under fire.
					k2 := fmt.Sprintf("k%02d", rng.Intn(chaosKeys))
					if k2 != key {
						keys = append(keys, k2)
					}
				}
				abortedWrite := false
				for _, k := range keys {
					if err := tx.Update(chaosTable, k, map[string][]byte{chaosCol: []byte(val)}); err != nil {
						tx.Abort()
						abortedWrite = true
						break
					}
				}
				if abortedWrite {
					continue
				}
				switch err := tx.Commit(); {
				case err == nil:
					for ki, k := range keys {
						// Every key of a multi-key commit is durably in the
						// log at the same merged version; give extra keys a
						// synthetic worker id so the per-worker version-
						// monotonicity check isn't tripped by duplicates.
						checker.RecordAck(chaos.Ack{
							Worker: w + ki*1000, Origin: origin, Version: tx.CommitVersion(),
							Table: chaosTable, Key: k, Col: chaosCol, Value: val,
						})
					}
					mu.Lock()
					acked++
					mu.Unlock()
				case workload.IsAbort(err):
					mu.Lock()
					aborted++
					mu.Unlock()
				default:
					// Outcome unknown: the commit may have landed (lost
					// response) or not (lost request) — either is legal,
					// the log is the arbiter.
					mu.Lock()
					unknown++
					mu.Unlock()
				}
			}
		}()
	}

	// Execute the fault timeline.
	var drills sync.WaitGroup
	start := time.Now()
	certDown := make(chan struct{}, 1) // at most one certifier down at a time
	for _, ev := range plan.events {
		ev := ev
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		switch ev.Kind {
		case "cut":
			inj.CutLink(ev.From, ev.To)
			drills.Add(1)
			time.AfterFunc(ev.Dur, func() {
				defer drills.Done()
				inj.HealLink(ev.From, ev.To)
			})
		case "partition-cert":
			// Isolate the node from its own group's peers (the only
			// certifier links that exist).
			base := (ev.Node / chaosCertifiers) * chaosCertifiers
			var peers []string
			for k := 0; k < chaosCertifiers; k++ {
				if i := base + k; i != ev.Node {
					peers = append(peers, certNodeName(i))
				}
			}
			me := certNodeName(ev.Node)
			inj.Isolate(me, peers...)
			drills.Add(1)
			time.AfterFunc(ev.Dur, func() {
				defer drills.Done()
				for _, p := range peers {
					inj.HealLink(me, p)
					inj.HealLink(p, me)
				}
			})
		case "crash-replica":
			c.CrashReplica(ev.Node)
			drills.Add(1)
			time.AfterFunc(ev.Dur, func() {
				defer drills.Done()
				chaos.WaitUntil(10*time.Second, func() bool {
					_, err := c.RecoverReplica(ev.Node)
					return err == nil
				})
			})
		case "crash-certifier", "crash-group-leader":
			node := ev.Node
			if ev.Kind == "crash-group-leader" {
				// The plan fixes which group loses its leader; the
				// cluster's current election decides who that is.
				if node = c.GroupLeaderIndex(ev.Node); node < 0 {
					continue // mid-election; skip rather than stall the plan
				}
			}
			select {
			case certDown <- struct{}{}:
			default:
				continue // another certifier is still down; keep the majority
			}
			img := c.CrashCertifier(node)
			drills.Add(1)
			time.AfterFunc(ev.Dur, func() {
				defer drills.Done()
				defer func() { <-certDown }()
				chaos.WaitUntil(10*time.Second, func() bool {
					return c.RecoverCertifier(node, img) == nil
				})
			})
		case "dump":
			if r := c.Replica(ev.Node); r != nil {
				r.DumpNow() // best effort; a concurrent crash may refuse it
			}
		case "slow-disk":
			// Gray failure: the replica stays up and keeps answering,
			// but every disk op stalls — the node is slow, not dead.
			r := c.Replica(ev.Node)
			if r == nil {
				continue
			}
			delay := plan.diskDelay
			hook := func(simdisk.Op, int, int) { time.Sleep(delay) }
			r.DataDisk().SetHook(hook)
			r.LogDisk().SetHook(hook)
			drills.Add(1)
			time.AfterFunc(ev.Dur, func() {
				defer drills.Done()
				if r := c.Replica(ev.Node); r != nil {
					r.DataDisk().SetHook(nil)
					r.LogDisk().SetHook(nil)
				}
			})
		}
	}
	if d := time.Until(start.Add(window)); d > 0 {
		time.Sleep(d)
	}

	// Heal, drain, converge.
	cancel()
	workers.Wait()
	drills.Wait()
	inj.Disable()
	inj.HealAll()
	res.Faults = inj.Stats()
	mu.Lock()
	res.Acked, res.Aborted, res.Unknown = acked, aborted, unknown
	mu.Unlock()
	res.Reads = checker.Reads()

	// ConvergeAll waits for every group's leader and finalizes a healed
	// group's unfinalized tail: a post-failover leader cannot commit the
	// previous term's entries until one of its own commits, and without
	// that the ground-truth log would exclude acked transactions. A group
	// can still gain an entry after its head was read — a detached
	// resolver's late decision marker, the barrier of a leader elected
	// after the heal; neither installs anything — and the merge of the
	// group logs then stops short of it: converge again and re-read.
	var log []chaos.LogEntry
	if !chaos.WaitUntil(20*time.Second, func() bool {
		if err = c.ConvergeAll(2 * time.Second); err == nil {
			log, err = groundTruthLog(c)
		}
		return err == nil
	}) {
		return res, fmt.Errorf("chaos seed %d: cluster never converged after healing: %w", seed, err)
	}
	// Wait for async appliers to publish; if the replicas still
	// disagree afterwards, Verify reports the divergence with the
	// fingerprints attached.
	agreed := chaos.WaitUntil(10*time.Second, func() bool {
		fps := c.Fingerprints()
		for i := 1; i < len(fps); i++ {
			if fps[i] != fps[0] {
				return false
			}
		}
		return true
	})
	if !agreed && os.Getenv("CHAOS_DIFF") != "" {
		for r := 0; r < c.Replicas(); r++ {
			fmt.Printf("STATE r%d announced=%d rv=%d stats=%+v\n",
				r, c.Replica(r).Store().AnnouncedVersion(), c.Replica(r).Proxy().ReplicaVersion(),
				c.Replica(r).Store().Stats())
		}
		dumpChaosDiff(c, log)
	}

	res.LogEntries = len(log)
	replayFP, err := replayFingerprint(log)
	if err != nil {
		return res, fmt.Errorf("chaos seed %d: replaying log: %w", seed, err)
	}
	res.Violations = checker.Verify(chaos.VerifyInput{
		Log:               log,
		Fingerprints:      c.Fingerprints(),
		ReplayFingerprint: replayFP,
	})
	if res.Acked == 0 {
		res.Violations = append(res.Violations,
			fmt.Errorf("liveness: no commit was ever acknowledged under seed %d", seed))
	}
	if len(res.Violations) > 0 && os.Getenv("CHAOS_DIFF") != "" {
		dumpChaosDiff(c, log)
	}
	return res, nil
}

// dumpChaosDiff prints, for every chaos key, each replica's value vs
// the log-derived expectation (debug aid, CHAOS_DIFF=1).
func dumpChaosDiff(c *cluster.Cluster, log []chaos.LogEntry) {
	expect := map[string]string{}
	valVer := map[string][]uint64{}
	for _, e := range log {
		for i := range e.WS.Ops {
			op := &e.WS.Ops[i]
			for _, cu := range op.Cols {
				if op.Table == chaosTable && cu.Col == chaosCol {
					expect[op.Key] = string(cu.Value)
				}
				valVer[string(cu.Value)] = append(valVer[string(cu.Value)], e.Version)
			}
		}
	}
	for k := 0; k < chaosKeys; k++ {
		key := fmt.Sprintf("k%02d", k)
		want := expect[key]
		line := ""
		bad := false
		for r := 0; r < c.Replicas(); r++ {
			tx, err := c.Begin(r)
			if err != nil {
				line += fmt.Sprintf(" r%d=ERR", r)
				continue
			}
			v, ok, _ := tx.ReadCol(chaosTable, key, chaosCol)
			tx.Abort()
			got := string(v)
			if !ok {
				got = "<absent>"
			}
			if got != want {
				bad = true
			}
			line += fmt.Sprintf(" r%d=%q(v%v)", r, got, valVer[got])
		}
		if bad {
			fmt.Printf("DIFF %s want %q(v%v):%s\n", key, want, valVer[want], line)
		}
	}
}

// groundTruthLog builds the checker's ground truth: the merged apply
// order rebuilt from the group leaders' committed logs, exactly as a
// replica's assembler would — with one group, the log in index order.
// Versions are merged versions; entries that install nothing (barrier
// and fill no-ops, prepares and markers other than a union's position)
// are omitted, so the version sequence has gaps the checker tolerates.
func groundTruthLog(c *cluster.Cluster) ([]chaos.LogEntry, error) {
	asm := partition.NewAssembler(c.Groups())
	total := 0
	for g := 0; g < c.Groups(); g++ {
		leader := c.GroupLeader(g)
		if leader == nil {
			return nil, fmt.Errorf("group %d has no leader", g)
		}
		commit := leader.Node().CommitIndex()
		_, _, entries := leader.Node().SnapshotLog()
		if uint64(len(entries)) < commit {
			return nil, fmt.Errorf("group %d log %d shorter than commit index %d", g, len(entries), commit)
		}
		for _, e := range entries[:commit] {
			if err := asm.Offer(g, e.Index, e.Data); err != nil {
				return nil, fmt.Errorf("group %d entry %d: %w", g, e.Index, err)
			}
		}
		total += int(commit)
	}
	out := make([]chaos.LogEntry, 0, total)
	emitted := 0
	for {
		act, ok := asm.Next()
		if !ok {
			break
		}
		emitted++
		if act.WS != nil {
			out = append(out, chaos.LogEntry{Version: act.MV, Origin: act.Origin, WS: act.WS})
		}
	}
	if emitted < total {
		g, idx := asm.Blocking()
		return nil, fmt.Errorf("merge stalled at %d of %d entries, waiting for group %d index %d (group heads unequal?)",
			emitted, total, g, idx)
	}
	return out, nil
}

// replayFingerprint applies the committed log to a fresh store — a
// witness that never crashed, never saw a partition, and never applied
// anything out of order — and fingerprints the result. It commits
// unlabeled, in log order: labels do not enter the fingerprint, and the
// witness must not install through the pending list the replicas use.
func replayFingerprint(log []chaos.LogEntry) (uint32, error) {
	s := mvstore.Open(mvstore.Config{})
	defer s.Close()
	for _, e := range log {
		tx, err := s.Begin()
		if err != nil {
			return 0, err
		}
		if err := tx.ApplyWriteset(e.WS); err != nil {
			tx.Abort()
			return 0, err
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	return s.Fingerprint(), nil
}

// RunChaosExperiment runs every seed and prints a per-seed table. The
// returned error lists the failing seeds (infrastructure failures and
// invariant violations alike) — the replay handle for debugging.
func RunChaosExperiment(seeds []int64, o Options) ([]ChaosResult, error) {
	o = o.withDefaults()
	fmt.Fprintf(o.Out, "\n=== chaos: seeded fault-injection + invariant check ===\n")
	fmt.Fprintf(o.Out, "seed\tmode\tparts\tdigest\tacked\taborted\tunknown\treads\tlog\tdrops\tdups\tdelays\tcuts\tverdict\n")
	var results []ChaosResult
	var failing []int64
	for _, seed := range seeds {
		res, err := RunChaosSeed(seed, o)
		if err != nil {
			res.Violations = append(res.Violations, err)
		}
		results = append(results, res)
		verdict := "PASS"
		if !res.Passed() {
			verdict = "FAIL"
			failing = append(failing, seed)
		}
		fmt.Fprintf(o.Out, "%d\t%s\t%d\t%016x\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			res.Seed, res.Mode, res.Partitions, res.Digest, res.Acked, res.Aborted, res.Unknown, res.Reads,
			res.LogEntries, res.Faults.DroppedReqs+res.Faults.DroppedResps,
			res.Faults.Duplicated, res.Faults.Delayed, res.Faults.CutDrops, verdict)
		for _, v := range res.Violations {
			fmt.Fprintf(o.Out, "  seed %d: %v\n", res.Seed, v)
		}
	}
	if len(failing) > 0 {
		return results, fmt.Errorf("chaos: %d/%d seeds failed invariants: %v (replay with -exp chaos -seed S)",
			len(failing), len(seeds), failing)
	}
	return results, nil
}
