package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/retry"
)

// --- TCP fabric ---
//
// Wire format (big-endian, both directions length-prefixed):
//
//	request:  uint32 frameLen | uint64 callID | int64 deadlineUnixNano (0 = none)
//	          | uint16 methodLen | method | payload
//	response: uint32 frameLen | uint64 callID | uint8 status | payload/error
//
// Connections are multiplexed: a connection carries any number of
// calls in flight, responses are matched to waiters by call id, so a
// slow request (a certification waiting out a batch fsync) never
// blocks the pulls and appends sharing its connection. The client
// keeps a small fixed pool of connections, reconnects lazily with
// exponential backoff, and a propagated deadline both travels to the
// server (which sheds requests already past it instead of running
// them) and bounds the local wait.

const maxFrame = 64 << 20

// Response statuses.
const (
	statusOK      byte = 0 // payload is the handler response
	statusErr     byte = 1 // payload is the handler error string
	statusExpired byte = 2 // request's propagated deadline had passed; not run
)

// reqHeaderLen is the fixed-size part of a request frame after the
// length prefix: call id + deadline + method length.
const reqHeaderLen = 8 + 8 + 2

// tcpPoolSize is how many multiplexed connections one client keeps.
const tcpPoolSize = 4

// WireStats counts a client's traffic.
type WireStats struct {
	Calls    int64
	BytesOut int64 // request frames, length prefix included
	BytesIn  int64 // response frames, length prefix included
	Redials  int64 // successful re-establishments after a drop/failure
}

type tcpServer struct {
	ln     net.Listener
	h      Handler
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	delay  time.Duration
}

// ServeTCP starts a TCP server on addr (e.g. ":7001"); delay models
// one-way LAN latency per message.
func ServeTCP(addr string, h Handler, delay time.Duration) (Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &tcpServer{ln: ln, h: h, delay: delay, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *tcpServer) Addr() string { return s.ln.Addr().String() }

func (s *tcpServer) Close() error {
	s.mu.Lock()
	s.closed = true
	// Unblock connection goroutines parked reading: clients keep idle
	// pooled connections open indefinitely.
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn demultiplexes one connection: each request runs in its own
// goroutine (handlers block — a certification waits out a batch fsync
// — and must not head-of-line-block the connection), responses are
// serialized onto the shared writer.
func (s *tcpServer) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		id, deadline, method, payload, err := readRequest(r)
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if deadline != 0 && time.Now().UnixNano() > deadline {
				// The caller has already stopped waiting: shed the
				// request instead of spending handler work on it.
				wmu.Lock()
				writeResponse(w, id, statusExpired, nil)
				wmu.Unlock()
				return
			}
			if s.delay > 0 {
				time.Sleep(s.delay)
			}
			resp, herr := s.h(method, payload)
			if s.delay > 0 {
				time.Sleep(s.delay)
			}
			status, body := statusOK, resp
			if herr != nil {
				status, body = statusErr, []byte(herr.Error())
			}
			wmu.Lock()
			writeResponse(w, id, status, body)
			wmu.Unlock()
		}()
	}
}

func readRequest(r *bufio.Reader) (id uint64, deadline int64, method string, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return
	}
	frameLen := binary.BigEndian.Uint32(lenBuf[:])
	if frameLen < reqHeaderLen || frameLen > maxFrame {
		err = fmt.Errorf("transport: bad frame length %d", frameLen)
		return
	}
	frame := make([]byte, frameLen)
	if _, err = io.ReadFull(r, frame); err != nil {
		return
	}
	id = binary.BigEndian.Uint64(frame[:8])
	deadline = int64(binary.BigEndian.Uint64(frame[8:16]))
	mlen := int(binary.BigEndian.Uint16(frame[16:18]))
	if reqHeaderLen+mlen > len(frame) {
		err = errors.New("transport: bad method length")
		return
	}
	method = string(frame[reqHeaderLen : reqHeaderLen+mlen])
	payload = frame[reqHeaderLen+mlen:]
	return
}

func writeResponse(w *bufio.Writer, id uint64, status byte, payload []byte) error {
	var hdr [13]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(8+1+len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = status
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

type tcpClient struct {
	addr   string
	nextID atomic.Uint64 // call ids and round-robin slot selection

	mu     sync.Mutex
	conns  [tcpPoolSize]*muxConn
	closed bool
	// Reconnect backoff, shared across slots: a down server fails every
	// slot, and one cooldown clock for all of them keeps a burst of
	// callers from stampeding the dial path.
	redial    retry.Backoff
	downUntil time.Time

	calls    atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
	redials  atomic.Int64
}

// DialTCP returns a pooled multiplexing client for the server at addr.
// Connections are established lazily and re-established with backoff
// after failures.
func DialTCP(addr string) Client {
	return &tcpClient{addr: addr, redial: retry.Backoff{Min: 5 * time.Millisecond, Max: 250 * time.Millisecond}}
}

// Stats reports the client's cumulative wire traffic.
func (c *tcpClient) Stats() WireStats {
	return WireStats{
		Calls:    c.calls.Load(),
		BytesOut: c.bytesOut.Load(),
		BytesIn:  c.bytesIn.Load(),
		Redials:  c.redials.Load(),
	}
}

// muxResp is one matched response.
type muxResp struct {
	status  byte
	payload []byte
}

// muxConn is one multiplexed connection: concurrent writers share the
// socket under wmu; a single reader loop matches responses to pending
// calls by id.
type muxConn struct {
	owner *tcpClient
	slot  int
	conn  net.Conn

	wmu sync.Mutex
	w   *bufio.Writer

	pmu     sync.Mutex
	pending map[uint64]chan muxResp
	dead    bool
}

func (c *tcpClient) Call(method string, req []byte) ([]byte, error) {
	return c.CallDeadline(method, req, time.Time{})
}

// CallDeadline sends the request with a propagated deadline (zero =
// none): the server sheds it if it arrives late, and the local wait is
// abandoned with ErrDeadlineExceeded when the deadline passes.
func (c *tcpClient) CallDeadline(method string, req []byte, deadline time.Time) ([]byte, error) {
	mc, err := c.conn()
	if err != nil {
		return nil, err
	}
	c.calls.Add(1)
	resp, err := mc.roundTrip(c.nextID.Add(1), method, req, deadline)
	if err != nil && !errors.Is(err, ErrDeadlineExceeded) {
		var rerr *RemoteError
		if errors.As(err, &rerr) {
			return nil, err
		}
		// Transport-level failure: retire the connection; the next call
		// on this slot redials (with backoff if the dial also fails).
		mc.fail(err)
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return resp, err
}

// conn returns a live pooled connection, dialing one if the chosen
// slot is empty. While the reconnect backoff is cooling down, calls
// fail fast with ErrUnavailable so the caller's failover logic can try
// another node instead of queueing on a dead link.
func (c *tcpClient) conn() (*muxConn, error) {
	slot := int(c.nextID.Add(1) % tcpPoolSize)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrUnavailable
	}
	if mc := c.conns[slot]; mc != nil {
		c.mu.Unlock()
		return mc, nil
	}
	// Any live connection beats dialing a new one while another slot
	// still works.
	for _, mc := range c.conns {
		if mc != nil {
			c.mu.Unlock()
			return mc, nil
		}
	}
	if !c.downUntil.IsZero() && time.Now().Before(c.downUntil) {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (reconnect backoff)", ErrUnavailable, c.addr)
	}
	wasDown := !c.downUntil.IsZero()
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.downUntil = time.Now().Add(c.redial.Next())
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	if c.closed {
		conn.Close()
		return nil, ErrUnavailable
	}
	c.redial.Reset()
	c.downUntil = time.Time{}
	if wasDown {
		c.redials.Add(1)
	}
	if mc := c.conns[slot]; mc != nil {
		// A concurrent caller filled the slot first; use theirs.
		conn.Close()
		return mc, nil
	}
	mc := &muxConn{owner: c, slot: slot, conn: conn,
		w: bufio.NewWriter(conn), pending: make(map[uint64]chan muxResp)}
	c.conns[slot] = mc
	go mc.readLoop()
	return mc, nil
}

// dropConn detaches a dead connection from its slot.
func (c *tcpClient) dropConn(mc *muxConn) {
	c.mu.Lock()
	if c.conns[mc.slot] == mc {
		c.conns[mc.slot] = nil
	}
	c.mu.Unlock()
}

// roundTrip issues one call on the connection and waits for its
// matched response or the deadline.
func (mc *muxConn) roundTrip(id uint64, method string, req []byte, deadline time.Time) ([]byte, error) {
	frameLen := reqHeaderLen + len(method) + len(req)
	if frameLen > maxFrame {
		return nil, errors.New("transport: request too large")
	}
	ch := make(chan muxResp, 1)
	mc.pmu.Lock()
	if mc.dead {
		mc.pmu.Unlock()
		return nil, ErrUnavailable
	}
	mc.pending[id] = ch
	mc.pmu.Unlock()

	var dl int64
	if !deadline.IsZero() {
		dl = deadline.UnixNano()
	}
	var hdr [4 + reqHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(frameLen))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(dl))
	binary.BigEndian.PutUint16(hdr[20:22], uint16(len(method)))
	mc.wmu.Lock()
	_, err := mc.w.Write(hdr[:])
	if err == nil {
		_, err = mc.w.WriteString(method)
	}
	if err == nil {
		_, err = mc.w.Write(req)
	}
	if err == nil {
		err = mc.w.Flush()
	}
	mc.wmu.Unlock()
	if err != nil {
		mc.unregister(id)
		return nil, err
	}
	mc.owner.bytesOut.Add(int64(4 + frameLen))

	var resp muxResp
	var ok bool
	if deadline.IsZero() {
		resp, ok = <-ch
	} else {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case resp, ok = <-ch:
		case <-timer.C:
			// Abandon the wait; a late response finds no pending entry
			// and is discarded by the read loop.
			mc.unregister(id)
			return nil, ErrDeadlineExceeded
		}
	}
	if !ok {
		return nil, ErrUnavailable // connection died under us
	}
	switch resp.status {
	case statusOK:
		return resp.payload, nil
	case statusExpired:
		return nil, ErrDeadlineExceeded
	default:
		return nil, &RemoteError{Msg: string(resp.payload)}
	}
}

func (mc *muxConn) unregister(id uint64) {
	mc.pmu.Lock()
	delete(mc.pending, id)
	mc.pmu.Unlock()
}

// readLoop matches response frames to pending calls until the
// connection dies, then fails every outstanding call.
func (mc *muxConn) readLoop() {
	r := bufio.NewReader(mc.conn)
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			mc.fail(err)
			return
		}
		frameLen := binary.BigEndian.Uint32(lenBuf[:])
		if frameLen < 9 || frameLen > maxFrame {
			mc.fail(fmt.Errorf("transport: bad response length %d", frameLen))
			return
		}
		frame := make([]byte, frameLen)
		if _, err := io.ReadFull(r, frame); err != nil {
			mc.fail(err)
			return
		}
		mc.owner.bytesIn.Add(int64(4 + frameLen))
		id := binary.BigEndian.Uint64(frame[:8])
		mc.pmu.Lock()
		ch := mc.pending[id]
		delete(mc.pending, id)
		mc.pmu.Unlock()
		if ch != nil {
			ch <- muxResp{status: frame[8], payload: frame[9:]}
		}
	}
}

// fail marks the connection dead, wakes every pending call with a
// closed channel (read as ErrUnavailable), and detaches it from the
// pool so the next call redials.
func (mc *muxConn) fail(error) {
	mc.pmu.Lock()
	if mc.dead {
		mc.pmu.Unlock()
		return
	}
	mc.dead = true
	pending := mc.pending
	mc.pending = nil
	mc.pmu.Unlock()
	mc.conn.Close()
	mc.owner.dropConn(mc)
	for _, ch := range pending {
		close(ch)
	}
}

func (c *tcpClient) Close() error {
	c.mu.Lock()
	c.closed = true
	var live []*muxConn
	for i, mc := range c.conns {
		if mc != nil {
			live = append(live, mc)
			c.conns[i] = nil
		}
	}
	c.mu.Unlock()
	for _, mc := range live {
		mc.fail(ErrUnavailable)
	}
	return nil
}

// --- TCP fabric ---

// TCPFabric mirrors LocalFabric's name-based API over real localhost
// sockets: Serve listens on an ephemeral 127.0.0.1 port and registers
// the name→address binding; DialFrom resolves the name on every call,
// so dialing before the server exists (paxos peers are dialed before
// the group is up) and server restarts both work. One pooled
// multiplexing client is shared per address.
//
// The TCP fabric does not support interposers: deterministic fault
// injection stays on the in-process fabric (see internal/chaos), where
// drops, duplicates and partitions are reproducible.
type TCPFabric struct {
	delay   time.Duration
	mu      sync.Mutex
	addrs   map[string]string
	servers map[string]Server
	clients map[string]*tcpClient // keyed by address
	closed  bool
}

// NewTCPFabric returns an empty TCP fabric; delay models one-way LAN
// latency per message, applied server-side.
func NewTCPFabric(delay time.Duration) *TCPFabric {
	return &TCPFabric{
		delay:   delay,
		addrs:   make(map[string]string),
		servers: make(map[string]Server),
		clients: make(map[string]*tcpClient),
	}
}

// Serve starts a TCP server for name on an ephemeral localhost port.
// Re-serving a name (a restarted node) closes the previous listener
// and rebinds the name to the new port.
func (f *TCPFabric) Serve(name string, h Handler) Server {
	srv, err := ServeTCP("127.0.0.1:0", h, f.delay)
	if err != nil {
		// Ephemeral localhost listens only fail when the host is out of
		// ports/fds; surface it as an always-unavailable endpoint.
		return &deadServer{name: name}
	}
	f.mu.Lock()
	if old := f.servers[name]; old != nil {
		defer old.Close()
	}
	f.servers[name] = srv
	f.addrs[name] = srv.Addr()
	f.mu.Unlock()
	return srv
}

// deadServer stands in for a listener that could not be created.
type deadServer struct{ name string }

func (s *deadServer) Addr() string { return s.name }

func (s *deadServer) Close() error { return nil }

// DialFrom returns a client for the named endpoint. Resolution happens
// per call (the from identity is unused: interposers are local-only).
func (f *TCPFabric) DialFrom(from, name string) Client {
	return &fabricClient{fabric: f, name: name}
}

// lookup returns the shared pooled client for name's current address.
func (f *TCPFabric) lookup(name string) (*tcpClient, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrUnavailable
	}
	addr, ok := f.addrs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, name)
	}
	c := f.clients[addr]
	if c == nil {
		c = &tcpClient{addr: addr}
		f.clients[addr] = c
	}
	return c, nil
}

// Stats sums wire traffic across every client the fabric has handed
// out — the bytes-on-the-wire side of the codec comparison.
func (f *TCPFabric) Stats() WireStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out WireStats
	for _, c := range f.clients {
		s := c.Stats()
		out.Calls += s.Calls
		out.BytesOut += s.BytesOut
		out.BytesIn += s.BytesIn
		out.Redials += s.Redials
	}
	return out
}

// Close shuts down every server and client the fabric created.
func (f *TCPFabric) Close() {
	f.mu.Lock()
	f.closed = true
	servers := f.servers
	clients := f.clients
	f.servers = map[string]Server{}
	f.clients = map[string]*tcpClient{}
	f.mu.Unlock()
	for _, s := range servers {
		s.Close()
	}
	for _, c := range clients {
		c.Close()
	}
}

// fabricClient is a name-addressed client over a TCPFabric.
type fabricClient struct {
	fabric *TCPFabric
	name   string
}

func (c *fabricClient) Call(method string, req []byte) ([]byte, error) {
	return c.CallDeadline(method, req, time.Time{})
}

func (c *fabricClient) CallDeadline(method string, req []byte, deadline time.Time) ([]byte, error) {
	tc, err := c.fabric.lookup(c.name)
	if err != nil {
		return nil, err
	}
	return tc.CallDeadline(method, req, deadline)
}

func (c *fabricClient) Close() error { return nil }
