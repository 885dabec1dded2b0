package daemon

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/telemetry"
)

// Transport is the connection lifecycle shared by every server speaking
// the middleware protocol: the middleware Server and the cluster router
// are its two Handlers. Create it with ServeTransport and stop it with
// Shutdown; every connection goroutine is joined on shutdown.
//
// The serving path is fault-tolerant: transient Accept errors are retried
// with capped exponential backoff, connections past the cap are answered
// with a CodeBusy error, idle connections are reaped after the idle
// timeout, oversized or corrupt frames get a typed protocol error
// response instead of a silent close, and Shutdown lets in-flight
// requests finish before closing their connections.
type Transport struct {
	ln         net.Listener
	opt        options
	newHandler func(*Conn) Handler
	start      time.Time

	mu     sync.Mutex
	closed bool
	conns  map[*Conn]struct{}

	wg   sync.WaitGroup
	stop chan struct{} // closed when Shutdown starts
	// drainNotify wakes the drain loop when a request finishes or a
	// connection goroutine exits (capacity 1: a pending token means
	// "re-check", collapsing bursts).
	drainNotify chan struct{}
	counters    transportCounters
	tel         requestTelemetry
}

// Handler serves the requests of one connection. The transport creates
// one per accepted connection and calls it only from that connection's
// serving goroutine.
type Handler interface {
	// Serve answers one decoded request. Hello never reaches it: the
	// transport negotiates the wire format itself.
	Serve(req *Request) Response
	// Subscribed reports whether the connection holds live
	// subscriptions. Such a connection idles legitimately between
	// pushes, so it is exempt from the idle deadline, and it may not
	// renegotiate its wire format under the pushes.
	Subscribed() bool
	// Close releases the handler's per-connection state once the
	// connection is closed.
	Close()
}

// Conn is one served connection as its Handler sees it: Push writes
// server-initiated frames, serialized with the transport's responses.
type Conn struct {
	t    *Transport
	conn net.Conn
	br   *bufio.Reader // serving goroutine only
	w    *connWriter
	// binary is the negotiated framing of requests (serving goroutine
	// only; the writer keeps its own copy under its lock).
	binary bool
	// takeover, when a handler sets it, runs on the serving goroutine
	// after the response is written and ends the request loop: a
	// replication stream takes the connection over.
	takeover func()

	mu       sync.Mutex
	inFlight bool
	closed   bool
}

// Push writes one frame in the connection's negotiated framing, bounded
// by the idle timeout. It reports whether the frame was written whole.
func (c *Conn) Push(resp Response) bool { return c.w.write(resp, c.t.opt.idleTimeout) }

// TraceFor resolves the trace context a request on this connection runs
// under, per the transport's WithTracing settings.
func (c *Conn) TraceFor(req *Request) telemetry.TraceContext { return c.t.opt.traceFor(req) }

func (c *Conn) beginRequest() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.inFlight = true
	return true
}

func (c *Conn) endRequest() {
	c.mu.Lock()
	c.inFlight = false
	c.mu.Unlock()
	// A draining Shutdown wakes as soon as the last in-flight request
	// finishes instead of polling.
	notifyDrain(c.t.drainNotify)
}

// notifyDrain posts a non-blocking wakeup token; a token already pending
// means a re-check is queued and nothing is lost.
func notifyDrain(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// closeIfIdle closes the connection unless a request is in flight. It
// reports whether the connection is (now) closed.
func (c *Conn) closeIfIdle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return true
	}
	if c.inFlight {
		return false
	}
	c.closed = true
	_ = c.conn.Close()
	return true
}

func (c *Conn) forceClose() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		_ = c.conn.Close()
	}
}

// connWriter serializes every frame written to one connection — responses
// from the serving goroutine and pushes from other goroutines — and owns
// the negotiated framing, so a frame is always written whole and in one
// format. This is what keeps server-initiated pushes from ever desyncing
// the request/response stream.
type connWriter struct {
	conn net.Conn

	mu       sync.Mutex
	w        *bufio.Writer
	binary   bool
	frameBuf []byte
}

// write marshals resp and writes it as one frame in the connection's
// current format, bounded by deadline (zero disables the write deadline).
// The JSON payload bytes are identical in both formats (the differential
// suite pins this); binary mode swaps the newline delimiter for a
// length+CRC header.
func (cw *connWriter) write(resp Response, deadline time.Duration) bool {
	payload, err := json.Marshal(resp)
	if err != nil {
		return false
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if deadline > 0 {
		if err := cw.conn.SetWriteDeadline(time.Now().Add(deadline)); err != nil {
			return false
		}
	}
	if cw.binary {
		framed, err := appendBinFrame(cw.frameBuf[:0], payload)
		if err != nil {
			return false
		}
		cw.frameBuf = framed[:0]
		if _, err := cw.w.Write(framed); err != nil {
			return false
		}
	} else {
		if _, err := cw.w.Write(payload); err != nil {
			return false
		}
		if err := cw.w.WriteByte('\n'); err != nil {
			return false
		}
	}
	return cw.w.Flush() == nil
}

// setBinary flips the framing after a successful hello ack. Hello is
// refused on connections with live subscriptions, so no push can race
// the switch.
func (cw *connWriter) setBinary(b bool) {
	cw.mu.Lock()
	cw.binary = b
	cw.mu.Unlock()
}

// transportCounters are the transport-level counters; ServerStats
// carries their snapshot.
type transportCounters struct {
	accepted      atomic.Int64
	acceptRetries atomic.Int64
	rejectedFull  atomic.Int64
	requests      atomic.Int64
	badRequests   atomic.Int64
	framesTooLong atomic.Int64
	idleClosed    atomic.Int64
	readErrors    atomic.Int64
}

// ServeTransport starts serving ln, answering each accepted connection's
// requests with the Handler newHandler builds for it. It takes ownership
// of ln (Shutdown closes it). Of the options, the transport honors the
// idle, connection-cap, drain, and accept-backoff tunings, WithTelemetry
// (request latency, in-flight, and transport counters), WithTracing (the
// hello ack and Conn.TraceFor), and the fence epoch the hello ack
// announces.
func ServeTransport(ln net.Listener, newHandler func(*Conn) Handler, opts ...Option) *Transport {
	opt := defaultOptions()
	for _, o := range opts {
		o(&opt)
	}
	t := newTransport(ln, newHandler, opt)
	t.serve()
	return t
}

// newTransport builds a transport that does not accept yet, so its owner
// can finish wiring up before the first connection arrives.
func newTransport(ln net.Listener, newHandler func(*Conn) Handler, opt options) *Transport {
	t := &Transport{
		ln:          ln,
		opt:         opt,
		newHandler:  newHandler,
		start:       time.Now(),
		conns:       make(map[*Conn]struct{}),
		stop:        make(chan struct{}),
		drainNotify: make(chan struct{}, 1),
		tel:         newRequestTelemetry(opt.telemetry),
	}
	t.registerTelemetryFuncs(opt.telemetry)
	return t
}

// serve starts the accept loop.
func (t *Transport) serve() {
	t.wg.Add(1)
	go t.acceptLoop()
}

// Addr returns the listener's address (useful with ephemeral ports).
func (t *Transport) Addr() net.Addr { return t.ln.Addr() }

// Shutdown stops accepting, drains in-flight requests (bounded by the
// drain timeout), closes every live connection, and waits for all
// connection goroutines to exit. It is idempotent.
func (t *Transport) Shutdown() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	close(t.stop)
	_ = t.ln.Close()
	t.mu.Unlock()

	t.drain()
	t.wg.Wait()
}

// drain closes idle connections immediately and gives connections with a
// request in flight until the drain timeout to finish responding. It is
// event-driven: finished requests and departing connection goroutines
// signal drainNotify, so the loop wakes exactly when progress is possible
// (plus one deadline timer) instead of polling.
func (t *Transport) drain() {
	timer := time.NewTimer(t.opt.drainTimeout)
	defer timer.Stop()
	for {
		t.mu.Lock()
		conns := make([]*Conn, 0, len(t.conns))
		for c := range t.conns {
			conns = append(conns, c)
		}
		t.mu.Unlock()
		if len(conns) == 0 {
			return
		}
		allClosed := true
		for _, c := range conns {
			if !c.closeIfIdle() {
				allClosed = false
			}
		}
		if allClosed {
			return
		}
		select {
		case <-timer.C:
			for _, c := range conns {
				c.forceClose()
			}
			return
		case <-t.drainNotify:
			// A request finished or a connection went away: re-check.
		}
	}
}

// draining reports whether Shutdown has started.
func (t *Transport) draining() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	backoff := t.opt.acceptBackoffMin
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.draining() || !isTemporary(err) {
				return
			}
			// Transient failure (EMFILE, ECONNABORTED, an injected fault):
			// back off and keep the server alive instead of killing the
			// accept loop permanently.
			t.counters.acceptRetries.Add(1)
			select {
			case <-t.stop:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > t.opt.acceptBackoffMax {
				backoff = t.opt.acceptBackoffMax
			}
			continue
		}
		backoff = t.opt.acceptBackoffMin
		c, st := t.track(conn)
		switch st {
		case trackClosed:
			_ = conn.Close()
			return
		case trackFull:
			t.counters.rejectedFull.Add(1)
			t.rejectBusy(conn)
			continue
		}
		t.counters.accepted.Add(1)
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

// isTemporary reports whether an Accept error is worth retrying.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// rejectBusy answers an over-cap connection with a protocol error before
// closing it, so well-behaved clients can tell overload from a crash. It
// runs on the accept loop, so the write deadline matters: it is derived
// from the configured idle timeout (capped at one second) rather than
// hardcoded, keeping a stalled over-cap client from holding up Accept
// longer than the server's own idle policy would tolerate.
func (t *Transport) rejectBusy(conn net.Conn) {
	d := t.opt.idleTimeout
	if d <= 0 || d > time.Second {
		d = time.Second
	}
	resp := errResponseCode(CodeBusy, fmt.Errorf("server at connection cap (%d)", t.opt.maxConns))
	if payload, err := json.Marshal(resp); err == nil {
		_ = conn.SetWriteDeadline(time.Now().Add(d))
		_, _ = conn.Write(append(payload, '\n'))
	}
	_ = conn.Close()
}

type trackResult int

const (
	trackOK trackResult = iota
	trackClosed
	trackFull
)

func (t *Transport) track(conn net.Conn) (*Conn, trackResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, trackClosed
	}
	if t.opt.maxConns > 0 && len(t.conns) >= t.opt.maxConns {
		return nil, trackFull
	}
	c := &Conn{
		t:    t,
		conn: conn,
		// One shared buffered reader serves both wire formats: hello is
		// read as a line, and when the connection switches to binary
		// framing any bytes the reader already buffered are still
		// consumed in order.
		br: bufio.NewReader(conn),
		w:  &connWriter{conn: conn, w: bufio.NewWriter(conn)},
	}
	t.conns[c] = struct{}{}
	return c, trackOK
}

func (t *Transport) untrack(c *Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
	notifyDrain(t.drainNotify)
}

func (t *Transport) serveConn(c *Conn) {
	defer t.wg.Done()
	defer t.untrack(c)

	readBuf := getWireBuf()
	defer putWireBuf(readBuf)
	h := t.newHandler(c)
	// This defer runs before the buffer is pooled (LIFO): closing the
	// connection unblocks a push stuck in a write, and the handler joins
	// its own goroutines before any shared state is recycled.
	defer func() {
		_ = c.conn.Close()
		h.Close()
	}()
	// role is the hello-declared connection role; follower and router
	// connections are exempt from the idle reaper (see protocol.go).
	role := ""

	for {
		if t.opt.idleTimeout > 0 {
			// A connection with live subscriptions legitimately idles
			// between pushes, and follower/router connections idle by
			// design; the idle reaper only applies to plain clients with
			// no subscriptions.
			var deadline time.Time
			if !h.Subscribed() && role != RoleFollower && role != RoleRouter {
				deadline = time.Now().Add(t.opt.idleTimeout)
			}
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return
			}
		}
		var payload []byte
		var readErr error
		if c.binary {
			payload, readErr = readBinFrame(c.br, readBuf)
		} else {
			payload, readErr = readLine(c.br, MaxLineBytes, readBuf)
		}
		if readErr != nil {
			switch {
			case errors.Is(readErr, io.EOF) || t.draining():
				// Clean disconnect, or our own shutdown close.
			case errors.Is(readErr, errLineTooLong), errors.Is(readErr, errFrameTooLong):
				// The stream cannot be re-synchronized past an unbounded
				// line or a rejected frame, but the client deserves to know
				// why it is being dropped.
				t.counters.framesTooLong.Add(1)
				c.Push(errResponseCode(CodeFrameTooLong,
					fmt.Errorf("request frame exceeds %d bytes", MaxLineBytes)))
			case errors.Is(readErr, errFrameCRC):
				// Corrupt frame: the payload length was consumed, but the
				// content cannot be trusted — and neither can anything after
				// it on this stream.
				t.counters.badRequests.Add(1)
				c.Push(errResponseCode(CodeBadRequest,
					errors.New("bad request: frame checksum mismatch")))
			case isTimeout(readErr):
				t.counters.idleClosed.Add(1)
			default:
				t.counters.readErrors.Add(1)
			}
			return
		}
		if len(payload) == 0 {
			continue
		}
		if !c.beginRequest() {
			return // shutdown closed the connection under us
		}
		t.counters.requests.Add(1)
		t.tel.inflight.Add(1)
		reqStart := t.tel.now()
		var req Request
		var resp Response
		op := "invalid"
		if err := json.Unmarshal(payload, &req); err != nil {
			t.counters.badRequests.Add(1)
			resp = errResponseCode(CodeBadRequest, fmt.Errorf("bad request: %w", err))
		} else {
			internRequest(&req)
			op = string(req.Op)
			if req.Op == OpHello {
				resp = t.hello(&req, h)
			} else {
				resp = h.Serve(&req)
			}
		}
		t.tel.requestDone(op, reqStart, resp)
		t.tel.inflight.Add(-1)
		ok := c.Push(resp)
		c.endRequest()
		if !ok || t.draining() {
			return
		}
		// The hello ack travels in the old format; everything after it in
		// the negotiated one. No push can race the switch: hello is
		// refused once the connection has subscriptions.
		if req.Op == OpHello && resp.OK {
			c.binary = resp.Format == FormatBinary
			c.w.setBinary(c.binary)
			role = req.Role
		}
		if c.takeover != nil {
			c.takeover()
			return
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// hello answers the wire-format negotiation. The trace ack is true only
// when this server can actually record spans; a client must not stamp
// trace fields without it, so peers on either side of the upgrade
// exchange identical bytes. With a fence installed the ack announces the
// fencing epoch, so routers and clients learn promotions at connect time
// without an extra stats round-trip; epoch 0 (pre-fencing) is omitted on
// the wire, keeping the ack bytes identical to older peers'.
func (t *Transport) hello(req *Request, h Handler) Response {
	if h.Subscribed() {
		return errResponse(errors.New("hello: cannot renegotiate wire format with active subscriptions"))
	}
	if !validRole(req.Role) {
		return errResponse(fmt.Errorf("hello: unknown role %q", req.Role))
	}
	format := req.Format
	switch format {
	case "":
		format = FormatJSON
	case FormatJSON, FormatBinary:
	default:
		return errResponse(fmt.Errorf("hello: unknown format %q", req.Format))
	}
	var epoch uint64
	if t.opt.fence != nil {
		epoch = t.opt.fence.Epoch()
	}
	return Response{OK: true, Format: format, Trace: req.Trace && t.opt.spanSink != nil, Epoch: epoch}
}

// validRole reports whether a hello role is known.
func validRole(role string) bool {
	switch role {
	case "", RoleClient, RoleFollower, RoleRouter:
		return true
	default:
		return false
	}
}

// registerTelemetryFuncs installs the scrape-time callbacks over the
// transport counters: they stay owned by transportCounters (one set of
// atomics, no double bookkeeping) and are read at scrape time, as are
// uptime and open connections.
func (t *Transport) registerTelemetryFuncs(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c := &t.counters
	mirror := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	mirror("ctxres_conns_accepted_total", "Connections admitted to serving.", &c.accepted)
	mirror("ctxres_accept_retries_total", "Temporary Accept errors survived via backoff.", &c.acceptRetries)
	mirror("ctxres_conns_rejected_full_total", "Connections turned away over the max-conns cap.", &c.rejectedFull)
	mirror("ctxres_requests_total", "Request lines read, including malformed ones.", &c.requests)
	mirror("ctxres_bad_requests_total", "Unparseable request lines.", &c.badRequests)
	mirror("ctxres_frames_too_long_total", "Request lines over the line-length cap.", &c.framesTooLong)
	mirror("ctxres_idle_closed_total", "Connections reaped by the idle deadline.", &c.idleClosed)
	mirror("ctxres_read_errors_total", "Connections dropped on transport read errors.", &c.readErrors)
	reg.GaugeFunc("ctxres_uptime_seconds", "Seconds since the server started serving.",
		func() float64 { return time.Since(t.start).Seconds() })
	reg.GaugeFunc("ctxres_open_connections", "Connections currently tracked by the server.",
		func() float64 {
			t.mu.Lock()
			n := len(t.conns)
			t.mu.Unlock()
			return float64(n)
		})
}
