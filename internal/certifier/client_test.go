package certifier

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/transport"
)

// switchNode is a certifier node whose answer the test sets: down
// (ErrUnavailable), up (an empty pull response), or up but holding each
// call until the test lets it go.
type switchNode struct {
	calls   atomic.Int64
	down    atomic.Bool
	mu      sync.Mutex
	hold    chan struct{} // non-nil: calls block until it is closed
	entered chan struct{} // receives once per held call
}

func (n *switchNode) Call(method string, req []byte) ([]byte, error) {
	n.calls.Add(1)
	n.mu.Lock()
	hold, entered := n.hold, n.entered
	n.mu.Unlock()
	if hold != nil {
		entered <- struct{}{}
		<-hold
	}
	if n.down.Load() {
		return nil, transport.ErrUnavailable
	}
	return transport.EncodeMessage(&PullResponse{})
}

func (n *switchNode) Close() error { return nil }

// TestClientGroupBreaker: degradeThreshold exhausted failover cycles
// open the client's group breaker; while it is open calls fail fast with
// ErrDegraded and reach no node; after degradeProbeInterval exactly one
// probe goes through while concurrent calls still fail fast; a
// successful probe closes the breaker and a failed one re-opens it.
func TestClientGroupBreaker(t *testing.T) {
	node := &switchNode{}
	c := NewClient([]transport.Client{node}, 20*time.Millisecond)
	pull := func() error {
		_, err := c.Pull(PullRequest{})
		return err
	}
	// open runs degradeThreshold exhausted cycles against a down group
	// and checks that the next call fails fast.
	open := func() {
		t.Helper()
		node.down.Store(true)
		for k := 0; k < degradeThreshold; k++ {
			if err := pull(); !errors.Is(err, ErrNoCertifier) {
				t.Fatalf("cycle %d against a down group: %v, want %v", k+1, err, ErrNoCertifier)
			}
		}
		before := node.calls.Load()
		if err := pull(); !errors.Is(err, ErrDegraded) {
			t.Fatalf("after %d exhausted cycles: %v, want %v", degradeThreshold, err, ErrDegraded)
		}
		if n := node.calls.Load() - before; n != 0 {
			t.Fatalf("a call on an open breaker reached the node %d times", n)
		}
	}

	open()

	// The cooldown ends; the next call is the one probe and is held at
	// the node while others try their luck.
	time.Sleep(degradeProbeInterval + 20*time.Millisecond)
	node.down.Store(false)
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	node.mu.Lock()
	node.hold, node.entered = hold, entered
	node.mu.Unlock()
	probe := make(chan error, 1)
	go func() { probe <- pull() }()
	<-entered
	before := node.calls.Load()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- pull()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrDegraded) {
			t.Errorf("call beside the probe: %v, want %v", err, ErrDegraded)
		}
	}
	if n := node.calls.Load() - before; n != 0 {
		t.Errorf("%d calls beside the probe reached the node, want 0", n)
	}
	node.mu.Lock()
	node.hold, node.entered = nil, nil
	node.mu.Unlock()
	close(hold)
	if err := <-probe; err != nil {
		t.Fatalf("probe against a healthy group: %v", err)
	}
	if err := pull(); err != nil {
		t.Fatalf("after a successful probe: %v, want the breaker closed", err)
	}

	// A failed probe re-opens the breaker.
	open()
	time.Sleep(degradeProbeInterval + 20*time.Millisecond)
	if err := pull(); !errors.Is(err, ErrNoCertifier) {
		t.Fatalf("probe against a down group: %v, want %v", err, ErrNoCertifier)
	}
	before = node.calls.Load()
	if err := pull(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("after a failed probe: %v, want %v", err, ErrDegraded)
	}
	if n := node.calls.Load() - before; n != 0 {
		t.Fatalf("a call after a failed probe reached the node %d times", n)
	}
}
