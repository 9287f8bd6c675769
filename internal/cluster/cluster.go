// Package cluster assembles the full replicated system of the paper's
// Figure 2: N database replicas (each with its transparent proxy) and
// a certifier group (leader + backups) connected by a message fabric —
// all in one process, which is how the benchmark harness runs 1–15
// replica sweeps, or over TCP daemons via cmd/tashd and cmd/certd.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/chaos"
	"tashkent/internal/partition"
	"tashkent/internal/proxy"
	"tashkent/internal/replica"
	"tashkent/internal/simdisk"
	"tashkent/internal/transport"
)

// Config parameterizes a cluster.
type Config struct {
	// Mode selects the system under test: Base, TashkentMW or
	// TashkentAPI.
	Mode proxy.Mode
	// Replicas is the number of database replicas (1..N).
	Replicas int
	// Certifiers is the certifier group size (default 3: a leader and
	// two backups, as in the paper).
	Certifiers int
	// Partitions shards the keyspace across this many independent
	// certifier groups (see internal/partition); 0 or 1 keeps the
	// classic single-group system. Each group is its own paxos cluster
	// of Certifiers nodes with its own log disk.
	Partitions int
	// DisableCertDurability turns off certifier disk writes — the
	// tashAPInoCERT configuration of §9.2.
	DisableCertDurability bool
	// CertMaxBatch caps the certifier's batches (see
	// certifier.Config.MaxBatch).
	CertMaxBatch int
	// CertAdmitTimeout/CertQueueDepth tune the certifier's admission
	// control (see certifier.Config.AdmitTimeout/QueueDepth): requests
	// that would wait longer than the budget are shed with an
	// OVERLOADED retry-after hint instead of queueing unboundedly.
	CertAdmitTimeout time.Duration
	CertQueueDepth   int
	// IOProfile is the physical disk model shared by all nodes.
	IOProfile simdisk.Profile
	// DedicatedIO puts database files on ramdisk so the disk serves
	// only logging (the paper's dedicated-IO experiments).
	DedicatedIO bool
	// Transport selects the message fabric backend: "local" (default)
	// keeps every link an in-process call — the deterministic fabric
	// chaos interposers require — while "tcp" runs every
	// replica↔certifier and certifier↔certifier link over real
	// localhost sockets with the pooled multiplexing client. Replicas
	// themselves stay in-process either way; multi-process deployments
	// compose cmd/tashd and cmd/certd instead.
	Transport string
	// AbortRate injects certification aborts (Fig 14).
	AbortRate float64
	// CertTimeout bounds how long a replica's certifier client keeps
	// failing over before reporting the group unavailable (0 = 10 s).
	// Chaos runs shrink it so partitioned commits fail fast.
	CertTimeout time.Duration
	// SeqObserver is never called: no ordering point numbers certifier
	// responses any more. It stays only because bench/ sets it.
	SeqObserver func(replica int, epoch, seq uint64, outcome string)
	// Interposer, if set, is installed on the local fabric before the
	// certifier groups campaign, so its faults hold from the first
	// message (Fabric().SetInterposer replaces it later). Interposers
	// are local-only: New refuses one over "tcp".
	Interposer transport.Interposer
	// Storage and middleware tuning, applied to every replica.
	PageMissEvery   int
	CheckpointEvery int
	LockTimeout     time.Duration
	// OrderTimeout is ignored: a Tashkent-API local commit publishes
	// through the store's pending list, and its client waits at most
	// the proxy's ChunkWaitTimeout. It stays only because bench/ sets it.
	OrderTimeout time.Duration
	// LocalCertification and EagerPreCert are ignored: local
	// certification (with one certifier group) and eager
	// pre-certification are always on. They stay only because bench/
	// sets them.
	LocalCertification bool
	EagerPreCert       bool
	StalenessBound     time.Duration
	// ApplyWorkers is the pool size of every replica's dependency-
	// tracked remote applier, 0 = 8 (see proxy.Config.ApplyWorkers).
	ApplyWorkers int
	// Seed makes disk jitter and elections deterministic.
	Seed int64
}

// withDefaults fills unset fields.
func (cfg Config) withDefaults() Config {
	if cfg.Certifiers == 0 {
		cfg.Certifiers = 3
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return cfg
}

// Cluster is a running replicated system.
type Cluster struct {
	cfg Config
	// fabric is the backend in use; localFab/tcpFab hold the concrete
	// fabric (exactly one is non-nil) for backend-specific access.
	fabric   transport.Fabric
	localFab *transport.LocalFabric
	tcpFab   *transport.TCPFabric
	// certs holds every certifier node, flat across groups: group g
	// owns indices [g*Certifiers, (g+1)*Certifiers). The classic
	// single-group system is simply groups == 1.
	certs    []*certifier.Server
	certUp   []bool
	groups   int
	replicas []*replica.Replica

	hookMu            sync.Mutex
	replicaCrashHooks []func(i int)
}

// New builds and starts a cluster, waiting for a certifier leader.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode < proxy.Base || cfg.Mode > proxy.TashkentAPI {
		return nil, fmt.Errorf("cluster: invalid mode %d", cfg.Mode)
	}
	groups := cfg.Partitions
	if groups < 1 {
		groups = 1
	}
	c := &Cluster{cfg: cfg, groups: groups}
	switch cfg.Transport {
	case "", "local":
		c.localFab = transport.NewLocalFabric(0)
		c.localFab.SetInterposer(cfg.Interposer)
		c.fabric = c.localFab
	case "tcp":
		if cfg.Interposer != nil {
			return nil, errors.New("cluster: an interposer needs the local transport")
		}
		c.tcpFab = transport.NewTCPFabric(0)
		c.fabric = c.tcpFab
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q (want local or tcp)", cfg.Transport)
	}

	// Certifier tier: one paxos group per partition (one group total in
	// the classic system). Peer links stay within a group — the groups
	// are fully independent.
	for i := 0; i < groups*cfg.Certifiers; i++ {
		srv := c.newCertifier(i, 0)
		c.fabric.Serve(c.certName(i), srv.Handle)
		c.certs = append(c.certs, srv)
		c.certUp = append(c.certUp, true)
	}
	for _, srv := range c.certs {
		srv.Start()
	}
	// Every member of every group is serving and started, and all of them
	// are brand new: member 0 of each group campaigns at once, so the
	// group is led after one election round instead of after the shortest
	// of its jittered election timeouts (which still covers a lost round).
	// New waits for the first win each group announces, so every member
	// that can be reached has answered the leader's first append round
	// and knows its term: a voter whose request was still on its way
	// when the majority granted has caught up too.
	if err := c.eachGroup(func(g int) error {
		wins := c.announced(g) // taken before the campaign it must see
		c.certs[g*cfg.Certifiers].Node().Campaign()
		_, err := c.waitLeader(g, 5*time.Second, wins)
		return err
	}); err != nil {
		c.Close()
		return nil, err
	}

	// Replicas.
	for i := 0; i < cfg.Replicas; i++ {
		r := replica.Open(replica.Config{
			ID:   i + 1,
			Mode: cfg.Mode,
			IO: replica.IOConfig{
				Profile:   cfg.IOProfile,
				Dedicated: cfg.DedicatedIO,
				Seed:      cfg.Seed + int64(i)*104729,
			},
			Parts:           c.newTopology(i),
			PageMissEvery:   cfg.PageMissEvery,
			CheckpointEvery: cfg.CheckpointEvery,
			LockTimeout:     cfg.LockTimeout,
			StalenessBound:  cfg.StalenessBound,
			ApplyWorkers:    cfg.ApplyWorkers,
		})
		c.replicas = append(c.replicas, r)
	}
	return c, nil
}

// certName returns flat node i's fabric identity: nodes are named by
// (group, member) at any group count, so fault rules can target one group.
func (c *Cluster) certName(i int) string {
	return GroupCertifierName(i/c.cfg.Certifiers, i%c.cfg.Certifiers)
}

// GroupCertifierName returns the fabric identity of member k of
// certifier group g.
func GroupCertifierName(g, k int) string { return fmt.Sprintf("cert-g%d-%d", g, k) }

// ReplicaName returns the fabric-side identity of replica i (0-based).
func ReplicaName(i int) string { return fmt.Sprintf("replica-%d", i) }

// newTopology builds replica i's view of the certifier tier: the hash
// map plus one failover client per group — one group in the classic
// system. Each client dials its group's nodes as replica i, so
// link-level fault injection can cut individual replica→certifier paths.
func (c *Cluster) newTopology(i int) *partition.Topology {
	t := &partition.Topology{Map: partition.Map{N: c.groups}}
	for g := 0; g < c.groups; g++ {
		nodes := make([]transport.Client, c.cfg.Certifiers)
		for k := range nodes {
			nodes[k] = c.fabric.DialFrom(ReplicaName(i), GroupCertifierName(g, k))
		}
		t.Groups = append(t.Groups, certifier.NewClient(nodes, c.cfg.CertTimeout))
	}
	return t
}

// parallel runs f(0..n-1) at once, waits for all of them and returns
// the lowest-numbered error, if any.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// eachGroup runs f for every certifier group at once (see parallel).
func (c *Cluster) eachGroup(f func(g int) error) error { return parallel(c.groups, f) }

// announced returns, for each live member of group g, the channel it
// closes when it next announces an election win (paxos.Node.Announced).
func (c *Cluster) announced(g int) []<-chan struct{} {
	var out []<-chan struct{}
	for i := g * c.cfg.Certifiers; i < (g+1)*c.cfg.Certifiers; i++ {
		if c.certUp[i] {
			out = append(out, c.certs[i].Node().Announced())
		}
	}
	return out
}

// waitLeader waits up to timeout for group g to have a live leader. It
// looks again each time a member announces a win, not on a poll. Given
// the channels of announced taken before an election started, it waits
// for one of them to close before it looks at all.
func (c *Cluster) waitLeader(g int, timeout time.Duration, before []<-chan struct{}) (*certifier.Server, error) {
	expiry := time.NewTimer(timeout)
	defer expiry.Stop()
	for wins := before; ; wins = nil {
		if wins == nil {
			wins = c.announced(g)
			if leader := c.GroupLeader(g); leader != nil {
				return leader, nil
			}
		}
		cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(expiry.C)}}
		for _, ch := range wins {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)})
		}
		if chosen, _, _ := reflect.Select(cases); chosen == 0 {
			return nil, fmt.Errorf("cluster: certifier group %d has no leader", g)
		}
	}
}

// Mode returns the configured system variant.
func (c *Cluster) Mode() proxy.Mode { return c.cfg.Mode }

// Replicas returns the replica count.
func (c *Cluster) Replicas() int { return len(c.replicas) }

// Certifiers returns the number of certifier nodes across all groups:
// Groups() groups of Config.Certifiers nodes each, node i in group
// i / (Certifiers() / Groups()).
func (c *Cluster) Certifiers() int { return len(c.certs) }

// Fabric exposes the in-process message fabric so a chaos harness can
// install a fault-injecting interposer over every link. It is nil for
// a TCP-transport cluster: fault injection stays on the deterministic
// in-process fabric.
func (c *Cluster) Fabric() *transport.LocalFabric { return c.localFab }

// WireStats reports cumulative TCP wire traffic (zero value for the
// in-process fabric, which has no wire).
func (c *Cluster) WireStats() transport.WireStats {
	if c.tcpFab == nil {
		return transport.WireStats{}
	}
	return c.tcpFab.Stats()
}

// OnReplicaCrash registers f to run after CrashReplica kills a
// replica. The session layer uses it to drop the crashed replica's
// in-flight routing charges, which would otherwise bias load-sensitive
// policies against it after rejoin.
func (c *Cluster) OnReplicaCrash(f func(i int)) {
	c.hookMu.Lock()
	c.replicaCrashHooks = append(c.replicaCrashHooks, f)
	c.hookMu.Unlock()
}

// ErrNoSuchReplica reports a replica index outside [0, Replicas()).
var ErrNoSuchReplica = errors.New("cluster: no such replica")

// checkReplica validates a replica index.
func (c *Cluster) checkReplica(i int) error {
	if i < 0 || i >= len(c.replicas) {
		return fmt.Errorf("%w: index %d outside [0,%d)", ErrNoSuchReplica, i, len(c.replicas))
	}
	return nil
}

// Replica returns replica i (0-based), or nil if i is out of range.
func (c *Cluster) Replica(i int) *replica.Replica {
	if c.checkReplica(i) != nil {
		return nil
	}
	return c.replicas[i]
}

// Begin opens a client transaction on replica i.
func (c *Cluster) Begin(i int) (*proxy.Tx, error) {
	if err := c.checkReplica(i); err != nil {
		return nil, err
	}
	return c.replicas[i].Begin()
}

// WaitVersion blocks until replica i's announced version reaches v or
// ctx expires — the causal wait behind a session's monotonic-read /
// read-your-writes guarantee. The replica's merger pulls what it lacks at
// once (proxy.Proxy.WaitVersion) instead of waiting out the staleness
// bound.
func (c *Cluster) WaitVersion(ctx context.Context, i int, v uint64) error {
	if err := c.checkReplica(i); err != nil {
		return err
	}
	err := c.replicas[i].Proxy().WaitVersion(ctx, v)
	if err != nil && err != ctx.Err() {
		err = fmt.Errorf("cluster: replica %d: %w", i, err)
	}
	return err
}

// Groups returns the certifier group (partition) count.
func (c *Cluster) Groups() int { return c.groups }

// GroupLeader returns group g's current leader (nil if none).
func (c *Cluster) GroupLeader(g int) *certifier.Server {
	if i := c.GroupLeaderIndex(g); i >= 0 {
		return c.certs[i]
	}
	return nil
}

// GroupLeaderIndex returns group g's leader as a flat node index
// (usable with CrashCertifier/RecoverCertifier), or -1 if the group
// has no live leader.
func (c *Cluster) GroupLeaderIndex(g int) int {
	if g < 0 || g >= c.groups {
		return -1
	}
	for k := 0; k < c.cfg.Certifiers; k++ {
		i := g*c.cfg.Certifiers + k
		if c.certUp[i] && c.certs[i].IsLeader() {
			return i
		}
	}
	return -1
}

// Certifier returns certifier node i.
func (c *Cluster) Certifier(i int) *certifier.Server { return c.certs[i] }

// CrashReplica kills replica i (recoverable with RecoverReplica); out
// of range indices are ignored.
func (c *Cluster) CrashReplica(i int) {
	if c.checkReplica(i) != nil {
		return
	}
	c.replicas[i].Crash()
	c.hookMu.Lock()
	hooks := append([]func(int){}, c.replicaCrashHooks...)
	c.hookMu.Unlock()
	for _, f := range hooks {
		f(i)
	}
}

// RecoverReplica runs the mode's recovery procedure on replica i.
func (c *Cluster) RecoverReplica(i int) (replica.RecoveryReport, error) {
	if err := c.checkReplica(i); err != nil {
		return replica.RecoveryReport{}, err
	}
	return c.replicas[i].Recover()
}

// CrashCertifier stops certifier node i and detaches it from the
// fabric, returning its surviving log image for later recovery.
//
// The image is captured *after* Stop: between an early capture and the
// actual halt the node would keep fsyncing and acknowledging appends —
// acks that vouch durability — and restoring from the older image
// would retroactively un-persist them. That amnesia crash is
// impossible on real hardware and breaks the replication group's
// majority arithmetic (an acked commit can vanish from every live
// log). Drills that want a crash at an exact pre-fsync boundary block
// the fsync via a simdisk hook and capture the image while the node
// provably cannot ack (see the chaos mid-batch drill).
func (c *Cluster) CrashCertifier(i int) []byte {
	c.certs[i].Stop()
	img := c.certs[i].WALImage()
	c.certUp[i] = false
	return img
}

// newCertifier builds certifier node i (global index) wired to the
// peers of its group. incarnation is 0 at start-up and 1 for a node
// recovered from a crash image, which gets a disk and seeds of its own.
func (c *Cluster) newCertifier(i int, incarnation int64) *certifier.Server {
	g, k := i/c.cfg.Certifiers, i%c.cfg.Certifiers
	peers := make(map[int]transport.Client)
	for kk := 0; kk < c.cfg.Certifiers; kk++ {
		if kk != k {
			peers[kk] = c.fabric.DialFrom(c.certName(i), c.certName(g*c.cfg.Certifiers+kk))
		}
	}
	return certifier.New(certifier.Config{
		ID:                k,
		Peers:             peers,
		Disk:              simdisk.New(c.cfg.IOProfile, c.cfg.Seed+int64(i)*7919+incarnation),
		DisableDurability: c.cfg.DisableCertDurability,
		AbortRate:         c.cfg.AbortRate,
		MaxBatch:          c.cfg.CertMaxBatch,
		AdmitTimeout:      c.cfg.CertAdmitTimeout,
		QueueDepth:        c.cfg.CertQueueDepth,
		ElectionTimeout:   200 * time.Millisecond,
		Seed:              c.cfg.Seed + int64(i) + 1000*incarnation,
	})
}

// RecoverCertifier restarts certifier node i from a crash image; it
// rejoins its group and catches up from that group's leader.
func (c *Cluster) RecoverCertifier(i int, img []byte) error {
	srv := c.newCertifier(i, 1)
	if err := srv.RestoreFromImage(img); err != nil {
		return err
	}
	c.fabric.Serve(c.certName(i), srv.Handle)
	srv.Start()
	c.certs[i] = srv
	c.certUp[i] = true
	return nil
}

// Barrier commits a no-op certifier entry in every group at once and
// returns the highest resulting committed index, retrying across leader
// changes until timeout. After a failover it forces the new leader to
// finalize the previous term's tail — without it, a quiet group
// under-reports its committed prefix (acked transactions stay
// invisible to pulls until the next commit).
func (c *Cluster) Barrier(timeout time.Duration) (uint64, error) {
	idx := make([]uint64, c.groups)
	err := c.eachGroup(func(g int) (err error) {
		idx[g], err = c.BarrierGroup(g, timeout)
		return err
	})
	if err != nil {
		return 0, err
	}
	return slices.Max(idx), nil
}

// BarrierGroup commits a no-op entry in group g and returns the
// resulting committed index.
func (c *Cluster) BarrierGroup(g int, timeout time.Duration) (uint64, error) {
	// Barrier() itself condition-waits on the commit; the retry loop
	// only rides out election churn, so the cheap WaitUntil poll is the
	// whole wait.
	var idx uint64
	ok := chaos.WaitUntil(timeout, func() bool {
		leader := c.GroupLeader(g)
		if leader == nil {
			return false
		}
		i, err := leader.Barrier()
		if err != nil {
			return false
		}
		idx = i
		return true
	})
	if !ok {
		return 0, fmt.Errorf("cluster: certifier barrier never committed in group %d", g)
	}
	return idx, nil
}

// SetAbortRate updates the injected abort rate on every certifier.
func (c *Cluster) SetAbortRate(r float64) {
	for i, s := range c.certs {
		if c.certUp[i] {
			s.SetAbortRate(r)
		}
	}
}

// ConvergeAll drives a quiesced cluster to one common state and waits
// for every replica to announce it — used between a measurement and a
// state comparison. Every group's committed head is read at once, and
// every replica waits, all at once, for the merged version of the last
// group's entry at the highest head H. The deterministic merge emits only
// up to the shortest group, so a replica's merger pads short idle groups
// level with the highest as it pulls (see proxy's merger.loop).
func (c *Cluster) ConvergeAll(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	deadline, _ := ctx.Deadline()
	heads := make([]uint64, c.groups)
	err := c.eachGroup(func(g int) (err error) {
		heads[g], err = c.groupHead(g, time.Until(deadline))
		return err
	})
	if err != nil {
		return err
	}
	target := partition.Map{N: c.groups}.MergedVersion(c.groups-1, slices.Max(heads))
	return parallel(len(c.replicas), func(i int) error {
		if err := c.WaitVersion(ctx, i, target); err != nil {
			return fmt.Errorf("cluster: converging replica %d to version %d: %w", i, target, err)
		}
		return nil
	})
}

// groupHead returns group g's committed head, waiting up to timeout for
// a leader. A leader whose commit index is below its log length holds a
// tail it cannot finalize until an entry of its own term commits — the
// previous term's, after a failover — so only that group pays a barrier;
// a healthy group is read for free.
func (c *Cluster) groupHead(g int, timeout time.Duration) (uint64, error) {
	leader, err := c.waitLeader(g, timeout, nil)
	if err != nil {
		return 0, err
	}
	if head := leader.Node().CommitIndex(); head == leader.Node().LogLength() {
		return head, nil
	}
	return c.BarrierGroup(g, timeout)
}

// Fingerprints returns each replica's state fingerprint.
func (c *Cluster) Fingerprints() []uint32 {
	out := make([]uint32, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.Store().Fingerprint()
	}
	return out
}

// Close shuts everything down.
func (c *Cluster) Close() {
	for _, r := range c.replicas {
		r.Close()
	}
	for i, s := range c.certs {
		if c.certUp[i] {
			s.Stop()
		}
	}
	if c.tcpFab != nil {
		c.tcpFab.Close()
	}
}
