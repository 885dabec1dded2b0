package main

import (
	"bytes"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/strategy"
	"ctxres/internal/wal"
)

// The probes time a layer from outside, at its public boundary, and
// forward everything else untouched: a listener whose connections record
// each request's residence on the server socket, a journal file that
// times writes and syncs, and a strategy decorator. Samples are kept in
// memory only while recording is switched on (the measured phase).

// clock is the run's monotonic time base; every span is nanoseconds since
// it.
var clock = time.Now()

func nowNS() int64 { return int64(time.Since(clock)) }

// span is one timed interval recorded by the traced run.
type span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Tag   string `json:"tag,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	N     int    `json:"n,omitempty"`
}

// recorder collects spans and byte counts for one layer.
type recorder struct {
	on    *atomic.Bool
	mu    sync.Mutex
	spans []span
	bytes atomic.Int64
}

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// probes are the wrappers of one traced server set.
type probes struct {
	on      atomic.Bool
	nextTag atomic.Value // string stamped on the next accepted connection
	sock    recorder     // daemon.residence
	wal     recorder     // wal.write / wal.fsync
	strat   recorder     // strategy.on_addition / on_use
	sigma   atomic.Int64 // sum of SigmaSize samples
	sigmaN  atomic.Int64
	discard atomic.Int64
}

func newProbes() *probes {
	p := &probes{}
	p.sock.on, p.wal.on, p.strat.on = &p.on, &p.on, &p.on
	p.nextTag.Store("")
	return p
}

// listener wraps a server listener so every accepted connection records
// per-request residence: from the read that delivered a request to the
// write of its response. Pushes (server-initiated frames) are not
// responses and are skipped.
type listener struct {
	net.Listener
	p *probes
}

func (l listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &probeConn{Conn: c, p: l.p, tag: l.p.nextTag.Load().(string)}, nil
}

type probeConn struct {
	net.Conn
	p     *probes
	tag   string
	start atomic.Int64 // read time of the request in flight, 0 when idle
}

var pushMarker = []byte(`"push":true`)

func (c *probeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.p.sock.bytes.Add(int64(n))
		c.start.CompareAndSwap(0, nowNS())
	}
	return n, err
}

func (c *probeConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	end := nowNS()
	c.p.sock.bytes.Add(int64(n))
	if bytes.Contains(b, pushMarker) {
		return n, err
	}
	if s := c.start.Swap(0); s != 0 {
		c.p.sock.add(span{Layer: "daemon", Name: "residence", Tag: c.tag, Start: s, End: end})
	}
	return n, err
}

// walFile wraps a journal file, timing each write and sync.
type walFile struct {
	wal.File
	p *probes
}

func (f walFile) Write(b []byte) (int, error) {
	s := nowNS()
	n, err := f.File.Write(b)
	f.p.wal.bytes.Add(int64(n))
	f.p.wal.add(span{Layer: "wal", Name: "write", Start: s, End: nowNS(), N: n})
	return n, err
}

func (f walFile) Sync() error {
	s := nowNS()
	err := f.File.Sync()
	f.p.wal.add(span{Layer: "wal", Name: "fsync", Start: s, End: nowNS()})
	return err
}

// openFile is the wal.Options.OpenFile hook of a traced server.
func (p *probes) openFile(inner func(string) (wal.File, error)) func(string) (wal.File, error) {
	return func(name string) (wal.File, error) {
		f, err := inner(name)
		if err != nil {
			return nil, err
		}
		return walFile{File: f, p: p}, nil
	}
}

// innerStrategy is what the decorator forwards to: drop-bad and every
// optional interface the middleware type-asserts on it.
type innerStrategy interface {
	strategy.Strategy
	strategy.StateSnapshotter
	strategy.BadMarkNotifier
	strategy.SigmaSizer
}

// timedStrategy decorates a strategy, timing OnAddition and OnUse and
// sampling Σ's size, and forwards every other call unchanged.
type timedStrategy struct {
	inner innerStrategy
	p     *probes
}

var (
	_ innerStrategy = (*strategy.DropBad)(nil)
	_ innerStrategy = timedStrategy{}
)

func (s timedStrategy) Name() string { return s.inner.Name() }

func (s timedStrategy) OnAddition(c *ctx.Context, vios []constraint.Violation) strategy.Outcome {
	t := nowNS()
	out := s.inner.OnAddition(c, vios)
	s.p.strat.add(span{Layer: "strategy", Name: "on_addition", Start: t, End: nowNS(), N: len(out.Discard)})
	s.sample(len(out.Discard))
	return out
}

func (s timedStrategy) OnUse(c *ctx.Context) (bool, strategy.Outcome) {
	t := nowNS()
	ok, out := s.inner.OnUse(c)
	s.p.strat.add(span{Layer: "strategy", Name: "on_use", Start: t, End: nowNS(), N: len(out.Discard)})
	s.sample(len(out.Discard))
	return ok, out
}

func (s timedStrategy) sample(discards int) {
	if !s.p.on.Load() {
		return
	}
	s.p.sigma.Add(int64(s.inner.SigmaSize()))
	s.p.sigmaN.Add(1)
	s.p.discard.Add(int64(discards))
}

func (s timedStrategy) OnExpire(c *ctx.Context) { s.inner.OnExpire(c) }
func (s timedStrategy) Reset()                  { s.inner.Reset() }
func (s timedStrategy) SigmaSize() int          { return s.inner.SigmaSize() }
func (s timedStrategy) StrategyState() (json.RawMessage, error) {
	return s.inner.StrategyState()
}
func (s timedStrategy) RestoreStrategyState(data json.RawMessage, resolve strategy.Resolver) error {
	return s.inner.RestoreStrategyState(data, resolve)
}
func (s timedStrategy) SetBadMarkHook(f func(*ctx.Context)) { s.inner.SetBadMarkHook(f) }
