package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
)

// routerChecker builds the differential-test constraint set: one
// provably source-local constraint (velocity over stream pairs) and one
// genuinely cross-source constraint (near-simultaneous locations of a
// subject must agree), mirroring the callforward profile's split.
func routerChecker() *constraint.Checker {
	ch := constraint.NewChecker()
	ch.MustRegister(&constraint.Constraint{
		Name: "vel-local",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Forall("b", ctx.KindLocation,
				constraint.Implies(
					constraint.And(
						constraint.SameSubject("a", "b"),
						constraint.StreamWithin("a", "b", 2),
					),
					constraint.VelocityBelow("a", "b", 1.5),
				))),
	})
	ch.MustRegister(&constraint.Constraint{
		Name: "agree-span",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Forall("b", ctx.KindLocation,
				constraint.Implies(
					constraint.And(
						constraint.SameSubject("a", "b"),
						constraint.Distinct("a", "b"),
						constraint.WithinGap("a", "b", time.Second),
					),
					constraint.DistBelow("a", "b", 4),
				))),
	})
	return ch
}

func startShard(t *testing.T) *daemon.Server {
	t.Helper()
	mw := middleware.New(routerChecker(), strategy.NewDropBad())
	srv, err := daemon.Serve("127.0.0.1:0", mw, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// srcLoc builds a location context from an explicit source.
func srcLoc(id string, source string, seq uint64, at time.Time, x float64) *ctx.Context {
	return ctx.NewLocation("peter", at, ctx.Point{X: x},
		ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource(source))
}

// TestRouterDifferential is the 2-shard equivalence test: the same
// workload — two sources owned by different shards, with within-source
// velocity violations and a cross-source agreement violation — must
// produce identical per-submission and per-use outcomes through the
// router as on a single node, and the cross-shard constraint's traffic
// must show up in the scatter counters.
func TestRouterDifferential(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	single := startShard(t)

	r, err := ServeRouter("127.0.0.1:0", RouterOptions{
		Shards:  []string{s1.Addr().String(), s2.Addr().String()},
		Checker: routerChecker(),
		Timeout: 5 * time.Second,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()

	if got := r.Spanning(); !reflect.DeepEqual(got, []string{"agree-span"}) {
		t.Fatalf("spanning constraints = %v, want [agree-span] (vel-local must be proven local)", got)
	}

	// Two sources that land on different shards, so cross-source pairs
	// genuinely span the ring.
	var srcA, srcB string
	for i := 0; srcB == ""; i++ {
		name := fmt.Sprintf("src-%d", i)
		if srcA == "" {
			srcA = name
			continue
		}
		if r.owner(name) != r.owner(srcA) {
			srcB = name
		}
	}

	via, err := daemon.Dial(r.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer via.Close()
	ref, err := daemon.Dial(single.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	subs := []*ctx.Context{
		// Source A walks plausibly...
		srcLoc("a1", srcA, 1, t0, 0),
		srcLoc("a2", srcA, 2, t0.Add(time.Second), 1),
		// ...then teleports: a within-source velocity violation.
		srcLoc("a3", srcA, 3, t0.Add(2*time.Second), 40),
		// Source B reports the subject 30 m away at (almost) the same
		// moment as a2: a violation only a cross-source check can see.
		srcLoc("b1", srcB, 1, t0.Add(1100*time.Millisecond), 31),
		srcLoc("b2", srcB, 2, t0.Add(3*time.Second), 31.5),
		// A kind no constraint quantifies over stays on the routed path.
		ctx.New("badge-read", t0.Add(4*time.Second), nil,
			ctx.WithID("r1"), ctx.WithSeq(1), ctx.WithSource(srcA), ctx.WithSubject("peter")),
		ctx.New("badge-read", t0.Add(5*time.Second), nil,
			ctx.WithID("r2"), ctx.WithSeq(1), ctx.WithSource(srcB), ctx.WithSubject("peter")),
	}
	sawViolation := false
	for _, c := range subs {
		gotV, gotErr := via.Submit(c)
		wantV, wantErr := ref.Submit(c)
		if !sameError(gotErr, wantErr) {
			t.Fatalf("submit %s: router err %v, single-node err %v", c.ID, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("submit %s: router violations %v, single-node %v", c.ID, gotV, wantV)
		}
		if len(gotV) > 0 {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Fatal("workload produced no violations; the differential proves nothing")
	}

	// use-latest must find the newest matching context wherever it lives.
	for _, probe := range []struct {
		kind    ctx.Kind
		subject string
	}{{ctx.KindLocation, "peter"}, {"badge-read", "peter"}, {ctx.KindLocation, "nobody"}} {
		gotC, gotErr := via.UseLatest(probe.kind, probe.subject)
		wantC, wantErr := ref.UseLatest(probe.kind, probe.subject)
		if !sameError(gotErr, wantErr) {
			t.Fatalf("use-latest %s/%s: router err %v, single-node err %v",
				probe.kind, probe.subject, gotErr, wantErr)
		}
		if !sameContext(gotC, wantC) {
			t.Fatalf("use-latest %s/%s: router %+v, single-node %+v",
				probe.kind, probe.subject, gotC, wantC)
		}
	}

	// Drain every remaining submission through both paths: identical
	// outcomes here mean the pools are application-equivalent.
	for _, c := range subs {
		gotC, gotErr := via.Use(c.ID)
		wantC, wantErr := ref.Use(c.ID)
		if !sameError(gotErr, wantErr) {
			t.Fatalf("use %s: router err %v, single-node err %v", c.ID, gotErr, wantErr)
		}
		if !sameContext(gotC, wantC) {
			t.Fatalf("use %s: router %+v, single-node %+v", c.ID, gotC, wantC)
		}
	}

	rs := r.Stats()
	if rs.Scattered == 0 {
		t.Fatalf("router stats %+v: spanning-kind submissions must be counted as scattered", rs)
	}
	if rs.Routed == 0 {
		t.Fatalf("router stats %+v: constraint-free-kind submissions must be counted as routed", rs)
	}
	var owned int64
	for _, shard := range rs.Shards {
		owned += shard.Owned
	}
	if owned == 0 || len(rs.Shards) != 2 {
		t.Fatalf("router shard stats incomplete: %+v", rs)
	}

	// Cluster-wide stats through the router: totals reflect the whole
	// workload (mirrors inflate per-shard counters by design, but the
	// router's merged submission count must cover at least every original
	// submission).
	mwStats, _, err := via.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if mwStats.Submitted < len(subs) {
		t.Fatalf("merged Submitted = %d, want >= %d", mwStats.Submitted, len(subs))
	}

	// Malformed requests get the single node's typed answer, code and
	// message alike. The requests share one connection, so the duplicate
	// subscription is refused as it would be on a direct connection.
	formula := `exists a: location . subjectIs(a, "peter")`
	bad := []struct {
		req  daemon.Request
		code daemon.Code // "" for a request that succeeds
	}{
		{daemon.Request{Op: daemon.OpBatchSubmit}, daemon.CodeApp},
		{daemon.Request{Op: daemon.OpSubmit}, daemon.CodeApp},
		{daemon.Request{Op: daemon.OpSubscribe, Formula: formula}, daemon.CodeBadRequest},
		{daemon.Request{Op: daemon.OpSubscribe, SubID: "both", Situation: "s", Formula: formula}, daemon.CodeBadRequest},
		{daemon.Request{Op: daemon.OpSubscribe, SubID: "neither"}, daemon.CodeBadRequest},
		{daemon.Request{Op: daemon.OpUnsubscribe}, daemon.CodeBadRequest},
		{daemon.Request{Op: daemon.OpHello, Role: "overlord"}, daemon.CodeApp},
		{daemon.Request{Op: daemon.OpHello, Format: "xml"}, daemon.CodeApp},
		{daemon.Request{Op: daemon.OpSubscribe, SubID: "dup", Formula: formula}, ""},
		{daemon.Request{Op: daemon.OpSubscribe, SubID: "dup", Formula: formula}, daemon.CodeDupSubscription},
		{daemon.Request{Op: daemon.OpUnsubscribe, SubID: "dup"}, ""},
	}
	reqs := make([]daemon.Request, len(bad))
	for i, b := range bad {
		reqs[i] = b.req
	}
	gotResps := rawExchange(t, r.Addr().String(), reqs)
	wantResps := rawExchange(t, single.Addr().String(), reqs)
	for i, b := range bad {
		if !reflect.DeepEqual(gotResps[i], wantResps[i]) {
			t.Errorf("%s %+v: router %+v, single-node %+v", b.req.Op, b.req, gotResps[i], wantResps[i])
		}
		if gotResps[i].Code != b.code {
			t.Errorf("%s %+v: code %q, want %q", b.req.Op, b.req, gotResps[i].Code, b.code)
		}
	}
}

// rawExchange sends reqs as line-JSON frames on one fresh connection and
// returns the decoded responses in order.
func rawExchange(t *testing.T, addr string, reqs []daemon.Request) []daemon.Response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	out := make([]daemon.Response, len(reqs))
	for i, req := range reqs {
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(payload, '\n')); err != nil {
			t.Fatalf("write %s: %v", req.Op, err)
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read %s response: %v", req.Op, err)
		}
		if err := json.Unmarshal(line, &out[i]); err != nil {
			t.Fatalf("decode %s response %q: %v", req.Op, line, err)
		}
	}
	return out
}

// TestRouterScatterKeepsCrossSourceDetection pins the reason the mirror
// path exists: with the cross-source pair split across shards, the
// agreement violation is only visible because spanning-kind submissions
// are mirrored. A single-shard router (everything trivially owned) must
// agree with the two-shard one.
func TestRouterScatterKeepsCrossSourceDetection(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	r, err := ServeRouter("127.0.0.1:0", RouterOptions{
		Shards:  []string{s1.Addr().String(), s2.Addr().String()},
		Checker: routerChecker(),
		Timeout: 5 * time.Second,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()

	var srcA, srcB string
	for i := 0; srcB == ""; i++ {
		name := fmt.Sprintf("s%d", i)
		if srcA == "" {
			srcA = name
			continue
		}
		if r.owner(name) != r.owner(srcA) {
			srcB = name
		}
	}
	via, err := daemon.Dial(r.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer via.Close()

	if _, err := via.Submit(srcLoc("x1", srcA, 1, t0, 0)); err != nil {
		t.Fatal(err)
	}
	vios, err := via.Submit(srcLoc("y1", srcB, 1, t0.Add(500*time.Millisecond), 30))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range vios {
		if v.Constraint == "agree-span" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations = %v, want agree-span: the cross-source violation "+
			"is invisible without the mirror path", vios)
	}
}

// TestRouterUseLatestFallsBackWhenHintGoesStale: once the newest
// (kind, subject) context expires, an older match from a different
// source may live on another shard. The remembered shard answers
// not-found after sweeping its expired copy; the router must then probe
// the ring like a hintless use-latest — matching what a single node with
// the union pool delivers — instead of returning the hint's error.
func TestRouterUseLatestFallsBackWhenHintGoesStale(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	single := startShard(t)
	r, err := ServeRouter("127.0.0.1:0", RouterOptions{
		Shards:  []string{s1.Addr().String(), s2.Addr().String()},
		Checker: routerChecker(),
		Timeout: 5 * time.Second,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()

	var srcA, srcB string
	for i := 0; srcB == ""; i++ {
		name := fmt.Sprintf("src-%d", i)
		if srcA == "" {
			srcA = name
			continue
		}
		if r.owner(name) != r.owner(srcA) {
			srcB = name
		}
	}
	via, err := daemon.Dial(r.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer via.Close()
	ref, err := daemon.Dial(single.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// badge-read: no constraint quantifies it, so copies are never
	// mirrored — the older context genuinely lives on one shard only.
	// The newer context carries a short TTL; the tick advances the clock
	// on the newer context's shard (and the single node) past it.
	older := ctx.New("badge-read", t0, nil,
		ctx.WithID("older"), ctx.WithSeq(1), ctx.WithSource(srcA), ctx.WithSubject("peter"))
	newer := ctx.New("badge-read", t0.Add(time.Second), nil,
		ctx.WithID("newer"), ctx.WithSeq(1), ctx.WithSource(srcB), ctx.WithSubject("peter"),
		ctx.WithTTL(2*time.Second))
	tick := ctx.New("badge-read", t0.Add(10*time.Second), nil,
		ctx.WithID("tick"), ctx.WithSeq(2), ctx.WithSource(srcB), ctx.WithSubject("clock"))
	for _, c := range []*ctx.Context{older, newer, tick} {
		if _, err := via.Submit(c); err != nil {
			t.Fatalf("router submit %s: %v", c.ID, err)
		}
		if _, err := ref.Submit(c); err != nil {
			t.Fatalf("single submit %s: %v", c.ID, err)
		}
	}
	if shard, ok := r.lookupLatest("badge-read", "peter"); !ok || shard != r.owner(srcB) {
		t.Fatalf("hint = (%q, %v), want the expired context's shard %q", shard, ok, r.owner(srcB))
	}

	// The hinted shard sweeps its expired copy and answers not-found; the
	// single node delivers the older context — so must the router.
	gotC, gotErr := via.UseLatest("badge-read", "peter")
	wantC, wantErr := ref.UseLatest("badge-read", "peter")
	if !sameError(gotErr, wantErr) {
		t.Fatalf("use-latest: router err %v, single-node err %v", gotErr, wantErr)
	}
	if !sameContext(gotC, wantC) {
		t.Fatalf("use-latest: router %+v, single-node %+v", gotC, wantC)
	}
	if gotC == nil || gotC.ID != "older" {
		t.Fatalf("use-latest delivered %+v, want the older context from the other shard", gotC)
	}
	if _, ok := r.lookupLatest("badge-read", "peter"); ok {
		t.Fatal("stale use-latest hint survived the not-found fallback")
	}

	// A key no shard holds stays a typed not-found on both paths.
	_, gotErr = via.UseLatest("badge-read", "ghost")
	_, wantErr = ref.UseLatest("badge-read", "ghost")
	if gotErr == nil || !sameError(gotErr, wantErr) {
		t.Fatalf("use-latest miss: router err %v, single-node err %v", gotErr, wantErr)
	}
}

// TestRouterBatchRemembersOnlyAcceptedItems pins the hint discipline: a
// batch item whose owner shard is unreachable must not poison the
// use-latest hint map with a shard that never accepted the context.
func TestRouterBatchRemembersOnlyAcceptedItems(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	r, err := ServeRouter("127.0.0.1:0", RouterOptions{
		Shards:  []string{s1.Addr().String(), s2.Addr().String()},
		Checker: routerChecker(),
		Timeout: 2 * time.Second,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()

	// One source per shard, then kill srcDead's owner.
	var srcLive, srcDead string
	for i := 0; srcLive == "" || srcDead == ""; i++ {
		name := fmt.Sprintf("src-%d", i)
		switch r.owner(name) {
		case s1.Addr().String():
			if srcLive == "" {
				srcLive = name
			}
		case s2.Addr().String():
			srcDead = name
		}
	}
	s2.Shutdown()

	via, err := daemon.Dial(r.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer via.Close()

	batch := []*ctx.Context{
		ctx.New("badge-read", t0, nil,
			ctx.WithID("ok"), ctx.WithSeq(1), ctx.WithSource(srcLive), ctx.WithSubject("alice")),
		ctx.New("badge-read", t0, nil,
			ctx.WithID("lost"), ctx.WithSeq(1), ctx.WithSource(srcDead), ctx.WithSubject("bob")),
	}
	results, err := via.SubmitBatch(batch, 0)
	if err != nil {
		t.Fatalf("batch through router: %v", err)
	}
	if len(results) != 2 || !results[0].OK || results[1].OK {
		t.Fatalf("batch results = %+v, want item 0 accepted and item 1 failed", results)
	}
	if shard, ok := r.lookupLatest("badge-read", "alice"); !ok || shard != s1.Addr().String() {
		t.Fatalf("accepted item not remembered (shard %q, ok %v)", shard, ok)
	}
	if shard, ok := r.lookupLatest("badge-read", "bob"); ok {
		t.Fatalf("failed item poisoned the hint map with shard %q", shard)
	}
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	// Remote errors compare by code and message.
	var ra, rb *daemon.RemoteError
	if errors.As(a, &ra) && errors.As(b, &rb) {
		return ra.Code == rb.Code && ra.Message == rb.Message
	}
	return a.Error() == b.Error()
}

func sameContext(a, b *ctx.Context) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.ID == b.ID && a.Kind == b.Kind && a.Source == b.Source &&
		a.Subject == b.Subject && a.Seq == b.Seq
}
