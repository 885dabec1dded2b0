package daemon

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/middleware"
	"ctxres/internal/situation"
	"ctxres/internal/telemetry"
)

// Server serves the middleware protocol on a TCP listener. Create it with
// Serve (or ServeListener) and stop it with Shutdown. The connection
// lifecycle — accept, framing, deadlines, drain — is its Transport's; the
// Server is the Handler behind it (one serverConn per connection) plus the
// middleware-side machinery: subscriptions, replication, and periodic
// maintenance.
type Server struct {
	mw     *middleware.Middleware
	engine *situation.Engine // optional; nil disables OpSituations detail
	opt    options
	t      *Transport

	// hub routes middleware deltas to situation subscribers (subscribe.go).
	hub *hub

	done     chan struct{} // closed when Shutdown finishes
	doneOnce sync.Once
	counters serverCounters

	// Observability (see telemetry.go). reg is kept for the OpStats
	// snapshot; pushes is nil with telemetry off.
	reg    *telemetry.Registry
	pushes *telemetry.Histogram
}

// MaxLineBytes bounds a single request/response line.
const MaxLineBytes = 1 << 20

// Tuning defaults (see the With* options).
const (
	DefaultIdleTimeout      = 5 * time.Minute
	DefaultMaxConns         = 1024
	DefaultDrainTimeout     = 5 * time.Second
	DefaultAcceptBackoffMin = 5 * time.Millisecond
	DefaultAcceptBackoffMax = time.Second
)

// ErrServerClosed reports an operation on a stopped server.
var ErrServerClosed = errors.New("daemon: server closed")

type options struct {
	idleTimeout      time.Duration
	maxConns         int
	drainTimeout     time.Duration
	acceptBackoffMin time.Duration
	acceptBackoffMax time.Duration
	snapshotInterval time.Duration
	compactInterval  time.Duration
	telemetry        *telemetry.Registry
	subs             SubscriptionOptions
	replSource       ReplicationSource
	spanSink         telemetry.SpanSink
	sampler          *telemetry.Sampler
	prov             *telemetry.ProvenanceRing
	fence            FenceProvider
}

func defaultOptions() options {
	return options{
		idleTimeout:      DefaultIdleTimeout,
		maxConns:         DefaultMaxConns,
		drainTimeout:     DefaultDrainTimeout,
		acceptBackoffMin: DefaultAcceptBackoffMin,
		acceptBackoffMax: DefaultAcceptBackoffMax,
	}
}

// Option tunes the server.
type Option func(*options)

// WithIdleTimeout sets the per-connection read deadline between requests;
// a connection idle longer is closed. Zero or negative disables the
// deadline (connections may idle forever).
func WithIdleTimeout(d time.Duration) Option {
	return func(o *options) { o.idleTimeout = d }
}

// WithMaxConns caps concurrent connections; extra connections receive a
// CodeBusy error response and are closed. Zero or negative means
// unlimited.
func WithMaxConns(n int) Option {
	return func(o *options) { o.maxConns = n }
}

// WithDrainTimeout bounds how long Shutdown waits for in-flight requests
// to finish before force-closing their connections.
func WithDrainTimeout(d time.Duration) Option {
	return func(o *options) { o.drainTimeout = d }
}

// WithAcceptBackoff sets the backoff window for retrying temporary Accept
// errors (the delay starts at min and doubles up to max).
func WithAcceptBackoff(min, max time.Duration) Option {
	return func(o *options) { o.acceptBackoffMin, o.acceptBackoffMax = min, max }
}

// WithSnapshotInterval makes the server checkpoint the middleware's
// journal periodically (see middleware.Checkpoint), bounding recovery
// replay work and letting the WAL truncate obsolete segments. Zero or
// negative disables periodic checkpoints. It has no effect when the
// middleware has no journal attached.
func WithSnapshotInterval(d time.Duration) Option {
	return func(o *options) { o.snapshotInterval = d }
}

// WithCompactInterval makes the server compact the middleware's context
// pool periodically (see middleware.Compact), reclaiming memory held by
// discarded and expired entries on long runs. Zero or negative disables
// periodic compaction.
func WithCompactInterval(d time.Duration) Option {
	return func(o *options) { o.compactInterval = d }
}

// FenceProvider is the split-brain fence consulted on every
// state-changing operation. Implemented by cluster.Fence: AllowWrites
// tracks the leader lease, Epoch is the journal's fencing epoch, and
// LeaderHint is the last known current leader ("" when unknown). A
// deposed or partitioned leader sheds writes with CodeStaleLeader while
// continuing to serve reads.
type FenceProvider interface {
	AllowWrites() bool
	Epoch() uint64
	LeaderHint() string
}

// WithFence installs the split-brain fence. The hello ack then carries
// the fencing epoch, and state-changing ops (submit, batch-submit, use,
// use-latest — anything that appends journal records) are refused with
// CodeStaleLeader once the fence withdraws write permission.
func WithFence(f FenceProvider) Option {
	return func(o *options) { o.fence = f }
}

// fenceCheck refuses one state-changing op when the fence has withdrawn
// write permission. The response carries the epoch the server fenced at
// and the known-leader hint so clients can rotate to the promoted
// member instead of retrying here.
func (s *Server) fenceCheck(op Op) (Response, bool) {
	f := s.opt.fence
	if f == nil || f.AllowWrites() {
		return Response{}, false
	}
	resp := errResponseCode(CodeStaleLeader,
		fmt.Errorf("%s: leader fenced at epoch %d (lease expired or deposed)", op, f.Epoch()))
	resp.Epoch = f.Epoch()
	resp.Leader = f.LeaderHint()
	return resp, true
}

// serverCounters are the middleware-side counters; ServerStats is their
// snapshot form together with the transport's.
type serverCounters struct {
	maintErrors atomic.Int64

	// Push-delivery counters (subscribe.go).
	pushesDelivered atomic.Int64
	pushesDropped   atomic.Int64
	subscribersShed atomic.Int64
}

// ServerStats is a snapshot of the server's transport counters, exposed
// over OpStats alongside the middleware and pool counters.
type ServerStats struct {
	// Accepted counts connections admitted to serving.
	Accepted int64 `json:"accepted"`
	// AcceptRetries counts temporary Accept errors survived via backoff.
	AcceptRetries int64 `json:"acceptRetries"`
	// RejectedFull counts connections turned away over the max-conns cap.
	RejectedFull int64 `json:"rejectedFull"`
	// Requests counts request lines read (including malformed ones).
	Requests int64 `json:"requests"`
	// BadRequests counts unparseable request lines.
	BadRequests int64 `json:"badRequests"`
	// FramesTooLong counts request lines over MaxLineBytes.
	FramesTooLong int64 `json:"framesTooLong"`
	// IdleClosed counts connections reaped by the idle deadline.
	IdleClosed int64 `json:"idleClosed"`
	// ReadErrors counts connections dropped on other transport errors.
	ReadErrors int64 `json:"readErrors"`
	// UptimeSeconds is the time since the server started serving.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// MaintenanceErrors counts failed periodic checkpoints/compactions.
	MaintenanceErrors int64 `json:"maintenanceErrors"`
	// Subscribers is the number of currently registered subscriptions.
	Subscribers int64 `json:"subscribers"`
	// PushesDelivered counts event frames written to subscribers.
	PushesDelivered int64 `json:"pushesDelivered"`
	// PushesDropped counts events lost to slow-consumer shedding.
	PushesDropped int64 `json:"pushesDropped"`
	// SubscribersShed counts connections shed with CodeSubscriberLagged.
	SubscribersShed int64 `json:"subscribersShed"`
}

// Stats snapshots the transport counters.
func (s *Server) Stats() ServerStats {
	var subscribers int64
	if s.hub != nil {
		subscribers = int64(s.hub.size())
	}
	tc := &s.t.counters
	return ServerStats{
		Subscribers:       subscribers,
		PushesDelivered:   s.counters.pushesDelivered.Load(),
		PushesDropped:     s.counters.pushesDropped.Load(),
		SubscribersShed:   s.counters.subscribersShed.Load(),
		Accepted:          tc.accepted.Load(),
		AcceptRetries:     tc.acceptRetries.Load(),
		RejectedFull:      tc.rejectedFull.Load(),
		Requests:          tc.requests.Load(),
		BadRequests:       tc.badRequests.Load(),
		FramesTooLong:     tc.framesTooLong.Load(),
		IdleClosed:        tc.idleClosed.Load(),
		ReadErrors:        tc.readErrors.Load(),
		UptimeSeconds:     time.Since(s.t.start).Seconds(),
		MaintenanceErrors: s.counters.maintErrors.Load(),
	}
}

// Serve starts accepting connections on addr (e.g. "127.0.0.1:7654"; use
// port 0 for an ephemeral port) and returns the running server.
func Serve(addr string, mw *middleware.Middleware, engine *situation.Engine, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: listen %s: %w", addr, err)
	}
	return ServeListener(ln, mw, engine, opts...), nil
}

// ServeListener starts serving on an existing listener. It takes ownership
// of ln (Shutdown closes it). This is the injection point for fault
// harnesses such as internal/daemon/faultconn.
func ServeListener(ln net.Listener, mw *middleware.Middleware, engine *situation.Engine, opts ...Option) *Server {
	opt := defaultOptions()
	for _, o := range opts {
		o(&opt)
	}
	s := &Server{
		mw:     mw,
		engine: engine,
		opt:    opt,
		done:   make(chan struct{}),
		reg:    opt.telemetry,
	}
	s.t = newTransport(ln, func(c *Conn) Handler { return &serverConn{s: s, c: c} }, opt)
	s.hub = newHub(s, opt.subs)
	mw.SetDeltaHook(s.hub.notify)
	s.registerTelemetryFuncs(opt.telemetry)
	s.t.serve()
	if opt.snapshotInterval > 0 || opt.compactInterval > 0 {
		s.t.wg.Add(1)
		go s.maintenanceLoop()
	}
	return s
}

// maintenanceLoop runs the periodic durability and memory housekeeping:
// journal checkpoints (bounding recovery replay) and pool compaction.
// Both are best-effort — a failure is counted and retried at the next
// tick rather than taking the server down; a failed journal makes the
// serving path itself report errors.
func (s *Server) maintenanceLoop() {
	defer s.t.wg.Done()
	var snapC, compactC <-chan time.Time
	if s.opt.snapshotInterval > 0 {
		t := time.NewTicker(s.opt.snapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	if s.opt.compactInterval > 0 {
		t := time.NewTicker(s.opt.compactInterval)
		defer t.Stop()
		compactC = t.C
	}
	for {
		select {
		case <-s.t.stop:
			return
		case <-snapC:
			if err := s.mw.Checkpoint(); err != nil && !errors.Is(err, middleware.ErrNoJournal) {
				s.counters.maintErrors.Add(1)
			}
		case <-compactC:
			if _, err := s.mw.Compact(); err != nil {
				s.counters.maintErrors.Add(1)
			}
		}
	}
}

// Addr returns the listener's address (useful with ephemeral ports).
func (s *Server) Addr() net.Addr { return s.t.Addr() }

// Shutdown stops accepting, drains in-flight requests (bounded by the
// drain timeout), closes every live connection, and waits for all
// connection goroutines to exit. It is idempotent.
func (s *Server) Shutdown() {
	// Detach the delta hook first: no new events enqueue during drain,
	// while already-queued events are still flushed by the pushers.
	s.mw.SetDeltaHook(nil)
	s.t.Shutdown()
	s.doneOnce.Do(func() { close(s.done) })
}

// Done is closed once the server has fully stopped.
func (s *Server) Done() <-chan struct{} { return s.done }

// serverConn is the Server's per-connection Handler: the connection
// state that subscriptions and replication need around the pure handle.
type serverConn struct {
	s   *Server
	c   *Conn
	sub *subscriber // the push side, created on the first subscribe
}

func (sc *serverConn) Serve(req *Request) Response {
	if resp, bad := InvalidRequest(req); bad {
		return resp
	}
	switch req.Op {
	case OpSubscribe:
		return sc.subscribe(req)
	case OpUnsubscribe:
		if sc.sub == nil {
			return errResponse(fmt.Errorf("unsubscribe: unknown subscription %q", req.SubID))
		}
		return sc.s.hub.unsubscribe(sc.sub, req.SubID)
	}
	resp := sc.s.handle(*req)
	// A replicate ack hands the connection over to the stream: the
	// serving goroutine writes records until the follower disconnects or
	// the server stops.
	if req.Op == OpReplicate && resp.OK {
		fromSeq := req.FromSeq
		sc.c.takeover = func() { sc.s.streamReplication(sc.c, fromSeq) }
	}
	return resp
}

func (sc *serverConn) Subscribed() bool { return sc.sub != nil && sc.sub.n.Load() > 0 }

// Close deregisters the connection's subscriptions and joins its pusher;
// the transport has closed the connection, so a pusher blocked in a
// write is unblocked.
func (sc *serverConn) Close() { sc.s.detachSubscriber(sc.sub) }

func (s *Server) handle(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpReplicate:
		return s.handleReplicate(req)
	case OpSubmit:
		if resp, shed := s.fenceCheck(req.Op); shed {
			return resp
		}
		tr := s.opt.traceFor(&req)
		so := middleware.SubmitOptions{Trace: tr}
		if req.TimeoutMillis > 0 {
			so.Deadline = time.Now().Add(time.Duration(req.TimeoutMillis) * time.Millisecond)
		}
		vios, err := s.mw.SubmitOpts(req.Context, so)
		if err != nil {
			return errResponseCode(codeFor(err), err)
		}
		return Response{OK: true, Violations: toWire(vios), TraceID: tr.TraceID}
	case OpBatchSubmit:
		if resp, shed := s.fenceCheck(req.Op); shed {
			return resp
		}
		tr := s.opt.traceFor(&req)
		so := middleware.SubmitOptions{Trace: tr}
		if req.TimeoutMillis > 0 {
			so.Deadline = time.Now().Add(time.Duration(req.TimeoutMillis) * time.Millisecond)
		}
		results, err := s.mw.SubmitBatch(req.Contexts, so)
		if err != nil {
			return errResponseCode(codeFor(err), err)
		}
		out := make([]BatchResult, len(results))
		for i, r := range results {
			if r.Err != nil {
				out[i] = BatchResult{Error: r.Err.Error(), Code: codeFor(r.Err)}
			} else {
				out[i] = BatchResult{OK: true, Violations: toWire(r.Violations)}
			}
		}
		return Response{OK: true, Results: out, TraceID: tr.TraceID}
	case OpUse:
		// Use ops append journal records (usage is replicated state), so
		// they shed under the fence like submits do.
		if resp, shed := s.fenceCheck(req.Op); shed {
			return resp
		}
		tr := s.opt.traceFor(&req)
		c, err := s.mw.UseTrace(req.ID, tr)
		if err != nil {
			return errResponseCode(codeFor(err), err)
		}
		return Response{OK: true, Context: c, TraceID: tr.TraceID}
	case OpUseLatest:
		if resp, shed := s.fenceCheck(req.Op); shed {
			return resp
		}
		tr := s.opt.traceFor(&req)
		c, err := s.mw.UseLatestTrace(req.Kind, req.Subject, tr)
		if err != nil {
			return errResponseCode(codeFor(err), err)
		}
		return Response{OK: true, Context: c, TraceID: tr.TraceID}
	case OpProvenance:
		if s.opt.prov == nil {
			return errResponse(errors.New("provenance: not enabled on this server"))
		}
		return Response{OK: true, Provenance: s.opt.prov.Events(req.Limit)}
	case OpStats:
		mwStats := s.mw.Stats()
		poolStats := s.mw.Pool().Stats()
		srvStats := s.Stats()
		resStats := s.mw.Resilience()
		return Response{
			OK:         true,
			Middleware: &mwStats,
			Pool:       &poolStats,
			Daemon:     &srvStats,
			Journal:    s.mw.JournalStats(),
			Telemetry:  s.reg.Snapshot(),
			Resilience: &resStats,
			Health:     s.mw.HealthSnapshot(),
		}
	case OpSituations:
		active := make(map[string]bool)
		if s.engine != nil {
			for _, sit := range s.engine.Situations() {
				active[sit.Name] = s.engine.Active(sit.Name)
			}
		}
		return Response{OK: true, Active: active}
	case OpSubscribe, OpUnsubscribe:
		// Reached only through direct handle calls (fuzzers, tests):
		// the serving path intercepts these in serverConn.Serve, where
		// the connection state they need lives.
		return errResponse(fmt.Errorf("%s: subscriptions require a live connection", req.Op))
	default:
		return errResponse(fmt.Errorf("unknown op %q", req.Op))
	}
}

// traceFor resolves the trace context one request runs under. With no
// span sink there is nowhere to record spans, so tracing is off
// regardless of what the request carries. A request arriving with a
// trace joins it (the caller's span becomes the parent of the spans the
// server opens); an untraced request may root a fresh trace when the
// sampler elects it — that is how a single-node daemon, or a router,
// traces without a caller upstream.
func (o *options) traceFor(req *Request) telemetry.TraceContext {
	if o.spanSink == nil {
		return telemetry.TraceContext{}
	}
	if req.TraceID != "" {
		return telemetry.TraceContext{TraceID: req.TraceID, SpanID: req.SpanID}
	}
	if o.sampler.Sample() {
		return telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
	}
	return telemetry.TraceContext{}
}

// codeFor maps a middleware rejection to its protocol code, so clients
// can distinguish overload shedding (back off) and quarantine/watchdog
// drops (typed, never retried) from ordinary application errors.
func codeFor(err error) Code {
	switch {
	case errors.Is(err, middleware.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, middleware.ErrQuarantined):
		return CodeQuarantined
	case errors.Is(err, middleware.ErrCheckTimeout), errors.Is(err, middleware.ErrCheckFailed):
		return CodeCheckTimeout
	case errors.Is(err, middleware.ErrNotFound):
		return CodeNotFound
	default:
		return CodeApp
	}
}

// SetConnDeadline is a hook for tests to exercise timeout paths; the
// server manages its own per-connection deadlines via WithIdleTimeout.
func SetConnDeadline(conn net.Conn, d time.Duration) error {
	if d <= 0 {
		return conn.SetDeadline(time.Time{})
	}
	return conn.SetDeadline(time.Now().Add(d))
}
