package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ctxres/internal/apps/callforward"
	"ctxres/internal/apps/rfidmon"
	"ctxres/internal/cluster"
	"ctxres/internal/constraint"
	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/simspace"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
	"ctxres/internal/wal"
)

// clientTimeout bounds each request; no op of a passing run comes near it.
const clientTimeout = 30 * time.Second

// compactInterval is every server's pool compaction interval: short, so
// pools hold little beyond their live entries.
const compactInterval = time.Second

// app builds the checker, situation engine and strategy a workload's
// servers run.
type app struct {
	spec      *ServerSpec
	p         *probes // nil: no strategy decorator
	noCompact bool    // tests: compaction timing would make use outcomes racy
}

func (a app) checker() (*constraint.Checker, error) {
	switch a.spec.Checker {
	case "rfidmon":
		return rfidmon.Checker(), nil
	case "callforward":
		return callforward.Checker(simspace.OfficeFloor()), nil
	}
	return nil, fmt.Errorf("unknown checker %q", a.spec.Checker)
}

func (a app) engine() *situation.Engine {
	switch a.spec.Situations {
	case "rfidmon":
		return rfidmon.Engine()
	case "callforward":
		return callforward.Engine(simspace.OfficeFloor())
	}
	return nil
}

func (a app) strategy() strategy.Strategy {
	db := strategy.NewDropBad()
	if a.p == nil {
		return db
	}
	return timedStrategy{inner: db, p: a.p}
}

// middleware builds one middleware without a journal, plus its engine.
func (a app) middleware(opts ...middleware.Option) (*middleware.Middleware, *situation.Engine, error) {
	ch, err := a.checker()
	if err != nil {
		return nil, nil, err
	}
	eng := a.engine()
	if eng != nil {
		opts = append(opts, middleware.WithSituations(eng))
	}
	return middleware.New(ch, a.strategy(), opts...), eng, nil
}

func (a app) walOptions(dir string) (wal.Options, error) {
	policy, err := wal.ParseFsyncPolicy(a.spec.Fsync)
	if err != nil {
		return wal.Options{}, err
	}
	opt := wal.Options{Dir: dir, Fsync: policy, SegmentBytes: int64(a.spec.SegmentMB) << 20}
	if a.p != nil {
		opt.OpenFile = a.p.openFile(func(name string) (wal.File, error) { return os.Create(name) })
	}
	return opt, nil
}

// shardBasePort is where a multi-shard set listens (shard i on
// shardBasePort+i). The router's hash ring is keyed by shard address, so
// fixed addresses give every run, and the recovered set, the same split
// of sources between shards; an ephemeral port would re-deal it per run.
const shardBasePort = 47600

// shard is one served middleware with its journal.
type shard struct {
	listen string // listen address; a fixed one when a router fronts the set
	dir    string
	mw     *middleware.Middleware
	eng    *situation.Engine
	srv    *daemon.Server
}

// servers is one workload's server set: one daemon, or a router in
// front of several shard daemons.
type servers struct {
	app    app
	shards []*shard
	router *cluster.Router
}

// startServers starts a fresh server set with empty journals under dir.
func startServers(a app, dir string) (*servers, error) {
	s := &servers{app: a}
	for i := 0; i < max(a.spec.Shards, 1); i++ {
		mw, eng, err := a.middleware()
		if err != nil {
			return nil, err
		}
		sh := &shard{listen: "127.0.0.1:0", dir: filepath.Join(dir, fmt.Sprintf("shard%d", i)), mw: mw, eng: eng}
		if a.spec.Shards > 1 {
			sh.listen = fmt.Sprintf("127.0.0.1:%d", shardBasePort+i)
		}
		s.shards = append(s.shards, sh)
		if err := s.serve(sh); err != nil {
			_ = s.stop()
			return nil, err
		}
	}
	if err := s.startRouter(); err != nil {
		_ = s.stop()
		return nil, err
	}
	return s, nil
}

// serve attaches a journal on the shard's directory and serves it.
func (s *servers) serve(sh *shard) error {
	opt, err := s.app.walOptions(sh.dir)
	if err != nil {
		return err
	}
	j, err := wal.Open(opt)
	if err != nil {
		return err
	}
	if err := sh.mw.AttachJournal(j); err != nil {
		_ = j.Close()
		return err
	}
	ln, err := net.Listen("tcp", sh.listen)
	if err != nil && sh.listen != "127.0.0.1:0" {
		fmt.Fprintf(os.Stderr, "perfbench: %v; falling back to an ephemeral port, so the shard split differs from other runs\n", err)
		sh.listen = "127.0.0.1:0"
		ln, err = net.Listen("tcp", sh.listen)
	}
	if err != nil {
		_ = sh.mw.CloseJournal()
		return err
	}
	if s.app.p != nil {
		ln = listener{Listener: ln, p: s.app.p}
	}
	var opts []daemon.Option
	if !s.app.noCompact {
		opts = append(opts, daemon.WithCompactInterval(compactInterval))
	}
	sh.srv = daemon.ServeListener(ln, sh.mw, sh.eng, opts...)
	return nil
}

func (s *servers) startRouter() error {
	if len(s.shards) < 2 {
		return nil
	}
	ch, err := s.app.checker()
	if err != nil {
		return err
	}
	addrs := make([]string, len(s.shards))
	for i, sh := range s.shards {
		addrs[i] = sh.srv.Addr().String()
	}
	s.router, err = cluster.ServeRouter("127.0.0.1:0", cluster.RouterOptions{
		Shards: addrs, Checker: ch, Timeout: clientTimeout,
	})
	return err
}

// addr is where clients connect.
func (s *servers) addr() string {
	if s.router != nil {
		return s.router.Addr().String()
	}
	return s.shards[0].srv.Addr().String()
}

// submitted sums the shards' Stats().Submitted.
func (s *servers) submitted() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.mw.Stats().Submitted
	}
	return n
}

// halt stops serving (router first) but keeps the journals open, so the
// state can be fingerprinted with no maintenance running.
func (s *servers) halt() {
	if s.router != nil {
		s.router.Shutdown()
		s.router = nil
	}
	for _, sh := range s.shards {
		if sh.srv != nil {
			sh.srv.Shutdown()
			sh.srv = nil
		}
	}
}

// stop halts the servers and closes their journals.
func (s *servers) stop() error {
	s.halt()
	var errs []error
	for _, sh := range s.shards {
		if err := sh.mw.CloseJournal(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// recoverShard rebuilds one shard's middleware from its journal
// directory with middleware.Recover.
func (s *servers) recoverShard(sh *shard) (*middleware.Middleware, *situation.Engine, error) {
	var eng *situation.Engine
	var buildErr error
	m, _, err := middleware.Recover(sh.dir, func() *middleware.Middleware {
		mw, e, err := s.app.middleware()
		buildErr = err
		eng = e
		return mw
	})
	if buildErr != nil {
		return nil, nil, buildErr
	}
	return m, eng, err
}

// restart serves recovered middlewares (one per shard) again; the
// ladder runs on them.
func (s *servers) restart(recovered []*middleware.Middleware) error {
	for i, sh := range s.shards {
		sh.mw = recovered[i]
		if err := s.serve(sh); err != nil {
			return err
		}
	}
	return s.startRouter()
}

// clients are a run's two lane connections; lane b also subscribes to
// the beacon formulas.
type clients struct {
	lanes  [2]*daemon.Client
	pushes *pushLog
}

// pushLog records every activation push with its arrival time.
type pushLog struct {
	mu  sync.Mutex
	got map[string][]int64 // subscription → activation arrival times
}

func (l *pushLog) handler(subID string, ev daemon.WireEvent) {
	t := nowNS()
	if ev.Type != "activated" {
		return
	}
	l.mu.Lock()
	l.got[subID] = append(l.got[subID], t)
	l.mu.Unlock()
}

func (l *pushLog) activations(subID string) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int64(nil), l.got[subID]...)
}

// dial connects both lanes (stamping their server connections with the
// lane's tag when probed) and subscribes lane b to the beacons.
func dial(s *servers) (*clients, error) {
	cs := &clients{pushes: &pushLog{got: make(map[string][]int64)}}
	for lane := 0; lane < 2; lane++ {
		if p := s.app.p; p != nil {
			p.nextTag.Store(laneTag(lane))
		}
		cl, err := daemon.DialOptions(s.addr(), daemon.ClientOptions{
			Timeout: clientTimeout, MaxAttempts: 1, WireFormat: daemon.FormatBinary,
		})
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.lanes[lane] = cl
		if lane == 1 {
			for _, id := range []string{"a", "b"} {
				if err := cl.SubscribeFormula(id, beaconFormulas[id], cs.pushes.handler); err != nil {
					cs.close()
					return nil, fmt.Errorf("subscribe %s: %w", id, err)
				}
			}
		}
	}
	return cs, nil
}

func laneTag(lane int) string { return string(rune('a' + lane)) }

func (cs *clients) close() {
	for _, cl := range cs.lanes {
		if cl != nil {
			_ = cl.Close()
		}
	}
}
