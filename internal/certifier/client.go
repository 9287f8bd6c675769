package certifier

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"tashkent/internal/transport"
)

// ErrNoCertifier reports that no certifier node accepted the request
// within the retry budget (a majority is down, §7: update transactions
// cannot be processed).
var ErrNoCertifier = errors.New("certifier: no certifier available")

// ErrDegraded reports that the client's group breaker is open: the
// whole certifier group has been unreachable long enough (consecutive
// full failover cycles exhausted) that further calls fail fast instead
// of hanging for the full retry budget. Replicas keep serving snapshot
// reads at their last merged version; writes surface this error
// immediately. A half-open probe re-tests the group periodically and
// any success closes the breaker.
var ErrDegraded = errors.New("certifier: group degraded (no quorum reachable)")

// Consecutive ErrNoCertifier outcomes that open the group breaker, and
// how often a half-open probe is let through while it is open.
const (
	degradeThreshold     = 2
	degradeProbeInterval = 200 * time.Millisecond
)

// Client is the proxy side of the certification protocol: it tracks
// the current leader across the certifier group and fails over on
// redirects and node crashes.
type Client struct {
	leader  atomic.Int64
	nodes   []transport.Client // indexed by certifier id
	timeout time.Duration

	// Group-degradation breaker state (see ErrDegraded).
	failStreak    atomic.Int32
	degradedUntil atomic.Int64 // unix-nano; 0 = closed
	probing       atomic.Bool
}

// NewClient builds a client over per-node transports (indexed by
// certifier id). timeout bounds how long one logical request keeps
// retrying before giving up (0 = 10 s).
func NewClient(nodes []transport.Client, timeout time.Duration) *Client {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	return &Client{nodes: nodes, timeout: timeout}
}

// CertifyCtx runs one commit request against the group leader, bounded
// by the caller's context: the failover loop stops at the earlier of
// ctx's deadline and the client timeout, and backoff sleeps wake on
// cancellation. Safe to retry: a cross-partition request is idempotent
// per gid, and a duplicated one-group commit only adds a log entry with
// the same absolute-valued writeset, which replicas apply idempotently.
func (c *Client) CertifyCtx(ctx context.Context, req Request) (Response, error) {
	var resp Response
	err := c.call(ctx, MethodCertify, &req, &resp)
	return resp, err
}

// Pull fetches missing remote writesets (staleness bounding).
func (c *Client) Pull(req PullRequest) (PullResponse, error) {
	var resp PullResponse
	err := c.call(context.Background(), MethodPull, &req, &resp)
	return resp, err
}

// Resolve appends a decision marker, or casts a veto, at this group's
// leader (see ResolveRequest). Safe to retry: the first record for the
// gid wins.
func (c *Client) Resolve(req ResolveRequest) (ResolveResponse, error) {
	return c.ResolveCtx(context.Background(), req)
}

// ResolveCtx is Resolve bounded by the caller's context.
func (c *Client) ResolveCtx(ctx context.Context, req ResolveRequest) (ResolveResponse, error) {
	var resp ResolveResponse
	err := c.call(ctx, MethodResolve, &req, &resp)
	return resp, err
}

// Fill asks the group leader to pad its log to at least target
// entries (deterministic-merge liveness; see Server.FillTo).
func (c *Client) Fill(target uint64) (FillResponse, error) {
	var resp FillResponse
	err := c.call(context.Background(), MethodFill, &FillRequest{Target: target}, &resp)
	return resp, err
}

// Degraded reports whether the group breaker is currently open.
func (c *Client) Degraded() bool {
	until := c.degradedUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// breakerAdmit gates a call on the group breaker. It returns an error
// when the call should fail fast, and a release func (nil when no
// probe token was taken).
func (c *Client) breakerAdmit() (func(), error) {
	until := c.degradedUntil.Load()
	if until == 0 {
		return nil, nil
	}
	if time.Now().UnixNano() < until {
		return nil, fmt.Errorf("%w: retrying in %v", ErrDegraded, time.Until(time.Unix(0, until)).Round(time.Millisecond))
	}
	// Cooldown elapsed: half-open. Admit a single probe; everyone else
	// keeps failing fast until the probe reports.
	if !c.probing.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("%w: probe in flight", ErrDegraded)
	}
	return func() { c.probing.Store(false) }, nil
}

// noteOutcome feeds the breaker: reachable leaders (success or an
// application-level error) close it, a fully exhausted failover cycle
// counts toward opening it.
func (c *Client) noteOutcome(reachable bool) {
	if reachable {
		c.failStreak.Store(0)
		c.degradedUntil.Store(0)
		return
	}
	if c.failStreak.Add(1) >= degradeThreshold {
		c.degradedUntil.Store(time.Now().Add(degradeProbeInterval).UnixNano())
	}
}

func (c *Client) call(ctx context.Context, method string, req, resp interface{}) error {
	payload, err := transport.EncodeMessage(req)
	if err != nil {
		return err
	}
	release, err := c.breakerAdmit()
	if err != nil {
		return err
	}
	if release != nil {
		defer release()
	}
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	target := int(c.leader.Load())
	var lastErr error
	backoff := time.Millisecond
	// Reusable backoff timer: time.After in the retry select would leak
	// a live timer on every ctx wakeup (same fix mvstore got in PR 3).
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if target < 0 || target >= len(c.nodes) {
			target = 0
		}
		// Propagate the retry-loop deadline: a TCP transport ships it to
		// the server (which sheds stale requests) and stops waiting
		// locally when it passes.
		respB, err := transport.CallWithDeadline(c.nodes[target], method, payload, deadline)
		if err == nil {
			c.leader.Store(int64(target))
			c.noteOutcome(true)
			return transport.DecodeMessage(respB, resp)
		}
		lastErr = err
		var rerr *transport.RemoteError
		switch {
		case errors.As(err, &rerr):
			if hint, isRedirect := parseNotLeader(rerr.Msg); isRedirect {
				if hint >= 0 && hint < len(c.nodes) && hint != target {
					target = hint
				} else {
					target = (target + 1) % len(c.nodes)
				}
			} else if ra, shed := parseOverloaded(rerr.Msg); shed {
				// Load shed by the leader. Not a failover signal —
				// only the leader certifies — so surface it with the
				// retry-after hint and let the session back off.
				c.noteOutcome(true)
				return &OverloadedError{RetryAfter: ra}
			} else if strings.Contains(rerr.Msg, "paxos:") {
				// Transient replication failure (leadership churn
				// mid-proposal): retrying is safe — a duplicated
				// certification only produces an extra log entry with
				// the same absolute-valued writeset, which replicas
				// apply idempotently.
				target = (target + 1) % len(c.nodes)
			} else {
				// Application error from the leader: surface it. The
				// leader is reachable, so the group is not degraded.
				c.noteOutcome(true)
				return err
			}
		case errors.Is(err, transport.ErrUnavailable):
			target = (target + 1) % len(c.nodes)
		default:
			target = (target + 1) % len(c.nodes)
		}
		if timer == nil {
			timer = time.NewTimer(backoff)
		} else {
			// Safe to Reset without draining: the only path that loops is
			// the one that received from timer.C below.
			timer.Reset(backoff)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.noteOutcome(false)
	return fmt.Errorf("%w: %v", ErrNoCertifier, lastErr)
}
