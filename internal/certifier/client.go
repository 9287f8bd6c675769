package certifier

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"tashkent/internal/retry"
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
// immediately. A half-open probe re-tests the group periodically; its
// success closes the breaker.
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

	// The group breaker (see ErrDegraded) and its trip rule's count.
	br         retry.Breaker
	failStreak atomic.Int32
}

// NewClient builds a client over per-node transports (indexed by
// certifier id). timeout bounds how long one logical request keeps
// retrying before giving up (0 = 10 s).
func NewClient(nodes []transport.Client, timeout time.Duration) *Client {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	return &Client{nodes: nodes, timeout: timeout, br: retry.Breaker{Cooldown: degradeProbeInterval}}
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

// noteOutcome feeds the breaker with the outcome of a call that began
// at began: a reachable leader (success or an application-level error)
// closes a breaker whose probe this call is, and a fully exhausted
// failover cycle re-opens it, or counts toward opening a closed one.
func (c *Client) noteOutcome(began time.Time, reachable bool) {
	now := time.Now()
	switch {
	case reachable:
		c.failStreak.Store(0)
		c.br.Judge(began, now, true)
	case !c.br.Judge(began, now, false) && c.failStreak.Add(1) >= degradeThreshold:
		c.br.Trip(now)
	}
}

func (c *Client) call(ctx context.Context, method string, req, resp interface{}) error {
	payload, err := transport.EncodeMessage(req)
	if err != nil {
		return err
	}
	began := time.Now()
	probeAt, ok := c.br.Claim(began)
	if !ok {
		return ErrDegraded
	}
	defer c.br.Release(probeAt)
	deadline := began.Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	target := int(c.leader.Load())
	var lastErr error
	backoff := retry.Backoff{Min: time.Millisecond, Max: 64 * time.Millisecond}
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
			c.noteOutcome(began, true)
			return transport.DecodeMessage(respB, resp)
		}
		lastErr = err
		next := (target + 1) % len(c.nodes)
		var rerr *transport.RemoteError
		if errors.As(err, &rerr) {
			if hint, isRedirect := parseNotLeader(rerr.Msg); isRedirect {
				if hint >= 0 && hint < len(c.nodes) && hint != target {
					next = hint
				}
			} else if ra, shed := parseOverloaded(rerr.Msg); shed {
				// Load shed by the leader. Not a failover signal —
				// only the leader certifies — so surface it with the
				// retry-after hint and let the session back off.
				c.noteOutcome(began, true)
				return &OverloadedError{RetryAfter: ra}
			} else if !strings.Contains(rerr.Msg, "paxos:") {
				// Application error from the leader: surface it. The
				// leader is reachable, so the group is not degraded. A
				// "paxos:" error is leadership churn mid-proposal, safe
				// to retry: a duplicated certification only adds a log
				// entry with the same absolute-valued writeset, which
				// replicas apply idempotently.
				c.noteOutcome(began, true)
				return err
			}
		}
		target = next
		if err := backoff.Wait(ctx); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.noteOutcome(began, false)
	return fmt.Errorf("%w: %v", ErrNoCertifier, lastErr)
}
