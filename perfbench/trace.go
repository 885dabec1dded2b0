package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/middleware"
	"ctxres/internal/pool"
	"ctxres/internal/situation"
	"ctxres/internal/wal"
)

// nullPhase bounds the null-target run that measures the generator's own
// lateness.
const nullPhase = 3 * time.Second

// traced is the traced run: the per-layer metrics. It measures the
// nominal phase twice, first with no probes (the reference for the
// tracing overhead, the latencies and the recovery time) and then with
// the probes installed, then replays the probed run's op stream
// in-process through the middleware and, layer by layer, through
// pool.Pool, constraint.Checker and situation.Engine.
func traced(w *WorkloadSpec, in *Inputs, workdir string, nominal time.Duration, spansPath string, out io.Writer) (*report, error) {
	plain, _, err := setupRepeated(app{spec: &w.Server}, in, filepath.Join(workdir, "plain"), 1)
	if err != nil {
		return nil, err
	}
	ref, err := plain.runPhase(w, "untraced", w.Nominal, nominal)
	var recoverTimes []float64
	if err == nil {
		recoverTimes, err = recoveryLeg(plain)
	}
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	p := newProbes()
	ss, _, err := setupRepeated(app{spec: &w.Server, p: p}, in, filepath.Join(workdir, "probed"), 1)
	if err != nil {
		return nil, err
	}
	defer func() { _ = ss.close() }()
	p.sock.bytes.Store(0)
	p.wal.bytes.Store(0)
	p.on.Store(true)
	nom, err := ss.runPhase(w, "traced", w.Nominal, nominal)
	p.on.Store(false)
	if err != nil {
		return nil, err
	}
	if nom.failed > 0 {
		return nil, fmt.Errorf("%d ops failed at the nominal rate, first %s", nom.failed, nom.firstErr)
	}
	if err := checkSubmitted(ss); err != nil {
		return nil, err
	}
	if err := gates(w, ss); err != nil {
		return nil, err
	}
	detected := 0
	for _, sh := range ss.s.shards {
		detected += sh.mw.Stats().Detected
	}
	if err := ss.close(); err != nil {
		return nil, err
	}

	late := nullLateness(in, w.Nominal, min(nominal, nullPhase))
	ops := sentOps(ss.rn, in.Warmup)
	mwRep, err := replayMiddleware(w, in, ops, filepath.Join(workdir, "replay"))
	if err != nil {
		return nil, err
	}
	if mwRep.detected != detected {
		return nil, fmt.Errorf("violation gate: live servers detected %d violations, in-process replay %d", detected, mwRep.detected)
	}
	pl, err := replayLayers(w, in, ops, mwRep)
	if err != nil {
		return nil, err
	}
	if pl.violations != detected {
		return nil, fmt.Errorf("violation gate: Checker.CheckAddition found %d violations, the middleware detected %d", pl.violations, detected)
	}

	rep := &report{attempted: ref.attempted + nom.attempted, failed: ref.failed + nom.failed}
	ctxs := float64(max(nom.contexts, 1))
	res := spanDurations(p.sock.take(), "residence")
	gap, hop, upstream := pairResidence(ss, nom, p.sock.take(), len(ss.s.shards) > 1)
	rep.add("daemon.residence_p50_ms", median(res), "ms", len(res))
	rep.add("daemon.client_gap_p50_ms", median(gap), "ms", len(gap))
	rep.add("daemon.bytes_per_ctx", float64(p.sock.bytes.Load())/ctxs, "B", nom.contexts)
	rep.add("cluster.hop_p50_ms", median(hop), "ms", len(hop))
	rep.add("cluster.upstream_per_op", upstream, "count", len(hop))
	rep.add("middleware.submit_p50_us", percentile(mwRep.submit, 0.5), "us", len(mwRep.submit))
	rep.add("middleware.submit_p99_us", percentile(mwRep.submit, 0.99), "us", len(mwRep.submit))
	rep.add("middleware.use_p50_us", percentile(mwRep.use, 0.5), "us", len(mwRep.use))
	rep.add("pool.sweep_us", mean(pl.sweep), "us", len(pl.sweep))
	rep.add("pool.snapshot_us", mean(pl.snapshot), "us", len(pl.snapshot))
	rep.add("pool.available_us", mean(pl.available), "us", len(pl.available))
	rep.add("pool.delivered_us", mean(pl.delivered), "us", len(pl.delivered))
	rep.add("pool.entries", mean(pl.entries), "count", len(pl.entries))
	rep.add("pool.live", mean(pl.live), "count", len(pl.live))
	rep.add("constraint.check_us", mean(pl.check), "us", len(pl.check))
	rep.add("constraint.violations_per_ctx", float64(pl.nominalViolations)/ctxs, "count", nom.contexts)
	strat := p.strat.take()
	onAdd, onUse := spanDurations(strat, "on_addition"), spanDurations(strat, "on_use")
	rep.add("strategy.on_addition_us", 1000*mean(onAdd), "us", len(onAdd))
	rep.add("strategy.on_use_us", 1000*mean(onUse), "us", len(onUse))
	sigma := 0.0
	if n := p.sigmaN.Load(); n > 0 {
		sigma = float64(p.sigma.Load()) / float64(n)
	}
	rep.add("strategy.sigma", sigma, "count", int(p.sigmaN.Load()))
	rep.add("strategy.discards_per_ctx", float64(p.discard.Load())/ctxs, "count", nom.contexts)
	rep.add("situation.evaluate_us", mean(pl.evaluate), "us", len(pl.evaluate))
	rep.add("push.after_ack_p50_ms", median(nom.afterAck), "ms", len(nom.afterAck))
	walSpans := p.wal.take()
	fsyncs, writes := spanDurations(walSpans, "fsync"), spanDurations(walSpans, "write")
	rep.add("wal.fsync_p50_ms", median(fsyncs), "ms", len(fsyncs))
	rep.add("wal.fsyncs_per_ctx", float64(len(fsyncs))/ctxs, "count", len(fsyncs))
	rep.add("wal.write_us_per_ctx", 1000*sum(writes)/ctxs, "us", len(writes))
	rep.add("wal.bytes_per_ctx", float64(p.wal.bytes.Load())/ctxs, "B", len(writes))
	rep.add("loadgen.late_p99_ms", percentile(late, 0.99), "ms", len(late))
	addLatencies(rep, ref)
	rep.add("middleware.recover_cpu_s", minimum(recoverTimes), "s", len(recoverTimes))
	rep.add("tail.submit_p99_ms", percentile(ref.submit, 0.99), "ms", ref.submitCtx)
	rep.add("tail.use_p99_ms", percentile(ref.use, 0.99), "ms", len(ref.use))
	rep.add("tail.push_p99_ms", percentile(ref.push, 0.99), "ms", len(ref.push))
	tracedP50, plainP50 := median(nom.submit), median(ref.submit)
	rep.add("bench.trace_overhead_pct", 100*(tracedP50-plainP50)/plainP50, "%", len(nom.submit))
	rep.add("bench.attribution", (median(gap)+percentile(mwRep.submit, 0.5)/1000)/tracedP50, "ratio", len(nom.submit))

	if err := writeSpans(spansPath, ss, nom, p); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", spansPath)
	return rep, nil
}

// spanDurations returns the durations (ms) of the spans with the name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pairResidence matches each client op of the traced phase with the
// server-side residence spans of its lane's connections that lie inside
// its round trip. The remainder is the client gap (transport, framing
// and client work); through a router it is the hop, and the number of
// matched shard requests per op is the router's upstream fan-out.
func pairResidence(ss *session, ph *phaseStats, spans []span, routed bool) (gap, hop []float64, upstream float64) {
	byTag := map[string][]span{}
	for _, s := range spans {
		byTag[s.Tag] = append(byTag[s.Tag], s)
	}
	matched := 0
	for lane := 0; lane < 2; lane++ {
		list := byTag[laneTag(lane)]
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		_, res := ss.rn.phaseResults(ph.phase, lane)
		j := 0
		for _, r := range res {
			for j < len(list) && list[j].Start < r.Sent {
				j++
			}
			inside := 0.0
			for j < len(list) && list[j].End <= r.Done {
				inside += float64(list[j].End - list[j].Start)
				matched++
				j++
			}
			g := float64(r.Done-r.Sent-int64(inside)) / 1e6
			gap = append(gap, g)
			if routed {
				hop = append(hop, g)
			}
		}
	}
	if routed && len(hop) > 0 {
		upstream = float64(matched) / float64(len(hop))
	}
	return gap, hop, upstream
}

// replayOp is one sent op in global send order.
type replayOp struct {
	op      *Op
	nominal bool
}

// sentOps merges the lanes' sent ops by send time.
func sentOps(rn *runner, warm int) []replayOp {
	type item struct {
		r  replayOp
		at int64
	}
	var items []item
	for lane := 0; lane < 2; lane++ {
		for i := 0; i < rn.pos[lane]; i++ {
			if res := &rn.results[lane][i]; res.Ran {
				items = append(items, item{replayOp{&rn.in.Lanes[lane][i], i >= warm}, res.Sent})
			}
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].at < items[j].at })
	out := make([]replayOp, len(items))
	for i, it := range items {
		out[i] = it.r
	}
	return out
}

// compactEvery spaces replay compactions like the server's compaction
// interval at the nominal rate.
func compactEvery(w *WorkloadSpec) int {
	ops := (w.Nominal.A + w.Nominal.B) * compactInterval.Seconds()
	return max(int(ops), 1)
}

// mwReplay is the in-process middleware replay's outcome.
type mwReplay struct {
	submit, use []float64 // µs per call, nominal ops only
	detected    int
	discards    [][]ctx.ID // per op
	delivered   []ctx.ID   // per op ("" when nothing was delivered)
}

// replayMiddleware drives the recorded op stream through an in-process
// middleware with the workload's settings and journal, timing each call
// and recording what it discarded and delivered.
func replayMiddleware(w *WorkloadSpec, in *Inputs, ops []replayOp, dir string) (*mwReplay, error) {
	a := app{spec: &w.Server}
	rep := &mwReplay{discards: make([][]ctx.ID, len(ops)), delivered: make([]ctx.ID, len(ops))}
	cur := -1
	mw, _, err := a.middleware(middleware.WithHooks(middleware.Hooks{
		OnDiscard: func(c *ctx.Context, _ middleware.DiscardReason) {
			if cur >= 0 {
				rep.discards[cur] = append(rep.discards[cur], c.ID)
			}
		},
		OnDeliver: func(c *ctx.Context) {
			if cur >= 0 {
				rep.delivered[cur] = c.ID
			}
		},
	}))
	if err != nil {
		return nil, err
	}
	opt, err := a.walOptions(dir)
	if err != nil {
		return nil, err
	}
	j, err := wal.Open(opt)
	if err != nil {
		return nil, err
	}
	if err := mw.AttachJournal(j); err != nil {
		_ = j.Close()
		return nil, err
	}
	defer func() { _ = mw.CloseJournal() }()
	if len(in.Preload) > 0 {
		if _, err := mw.SubmitBatch(clones(in.Preload), middleware.SubmitOptions{}); err != nil {
			return nil, err
		}
	}
	every := compactEvery(w)
	for i, ro := range ops {
		cur = i
		op := ro.op
		t0 := time.Now()
		switch op.Kind {
		case opSubmit, opBeacon:
			_, err = mw.Submit(op.Ctx.Clone())
		case opBatch:
			_, err = mw.SubmitBatch(clones(op.Batch), middleware.SubmitOptions{})
		case opUse:
			_, err = mw.Use(op.ID)
			err = nil // drop-bad outcomes are compared by the gates, not here
		case opUseLatest:
			_, err = mw.UseLatest(op.LKind, op.Subject)
		}
		us := float64(time.Since(t0)) / 1e3
		if err != nil {
			return nil, fmt.Errorf("in-process replay: %s: %w", op.Kind, err)
		}
		if ro.nominal {
			switch op.Kind {
			case opSubmit, opBatch:
				rep.submit = append(rep.submit, us)
			case opUse, opUseLatest:
				rep.use = append(rep.use, us)
			}
		}
		if (i+1)%every == 0 {
			if _, err := mw.Compact(); err != nil {
				return nil, err
			}
		}
	}
	cur = -1
	rep.detected = mw.Stats().Detected
	return rep, nil
}

func clones(cs []*ctx.Context) []*ctx.Context {
	out := make([]*ctx.Context, len(cs))
	for i, c := range cs {
		out[i] = c.Clone()
	}
	return out
}

// layerReplay holds the bench-side timings of single layers, in µs per
// call, over the nominal ops.
type layerReplay struct {
	sweep, snapshot, available, delivered, check, evaluate []float64
	entries, live                                          []float64
	violations, nominalViolations                          int
}

// replayLayers replays the op stream through a bare pool.Pool, calling
// each layer's public entry point the way the middleware does and timing
// it, and applies the discards and deliveries the middleware replay
// recorded.
func replayLayers(w *WorkloadSpec, in *Inputs, ops []replayOp, mwRep *mwReplay) (*layerReplay, error) {
	a := app{spec: &w.Server}
	checker, err := a.checker()
	if err != nil {
		return nil, err
	}
	eng := a.engine()
	p := pool.New()
	var now time.Time
	advance := func(c *ctx.Context) {
		if c.Timestamp.After(now) {
			now = c.Timestamp
		}
	}
	for _, c := range in.Preload { // nothing preloaded expires during the preload
		advance(c)
		if err := p.Add(c.Clone()); err != nil {
			return nil, err
		}
	}
	lr := &layerReplay{}
	timed := func(dst *[]float64, on bool, f func()) {
		t0 := time.Now()
		f()
		if on {
			*dst = append(*dst, float64(time.Since(t0))/1e3)
		}
	}
	every := compactEvery(w)
	for i, ro := range ops {
		op, on := ro.op, ro.nominal
		var submits []*ctx.Context
		switch op.Kind {
		case opSubmit, opBeacon:
			submits = []*ctx.Context{op.Ctx}
		case opBatch:
			submits = op.Batch
		}
		for _, orig := range submits {
			c := orig.Clone()
			advance(c)
			timed(&lr.sweep, on, func() { p.SweepExpired(now) })
			if err := p.Add(c); err != nil {
				return nil, err
			}
			if !checker.Relevant(c.Kind) {
				continue
			}
			var u *constraint.SliceUniverse
			timed(&lr.snapshot, on, func() { u = p.CheckingUniverse() })
			var vios []constraint.Violation
			timed(&lr.check, on, func() { vios = checker.CheckAddition(u, c) })
			lr.violations += len(vios)
			if on {
				lr.nominalViolations += len(vios)
			}
		}
		if op.Kind == opUse || op.Kind == opUseLatest {
			if op.Kind == opUseLatest {
				timed(&lr.sweep, on, func() { p.SweepExpired(now) })
				timed(&lr.available, on, func() { p.AvailableByKind(op.LKind) })
			}
			timed(&lr.sweep, on, func() { p.SweepExpired(now) })
		}
		for _, id := range mwRep.discards[i] {
			_ = p.Discard(id) // already gone when compaction beat the discard
		}
		if id := mwRep.delivered[i]; id != "" {
			if err := p.MarkUsed(id); err != nil {
				return nil, err
			}
			if eng != nil { // the middleware reads the delivered view only to evaluate situations
				var d []*ctx.Context
				timed(&lr.delivered, on, func() { d = p.Delivered() })
				timed(&lr.evaluate, on, func() { evaluate(eng, d, now) })
			}
		}
		if (i+1)%every == 0 {
			p.Compact()
		}
		if on {
			lr.entries = append(lr.entries, float64(p.Len()))
			if i%50 == 0 {
				lr.live = append(lr.live, float64(p.Stats().Available))
			}
		}
	}
	return lr, nil
}

func evaluate(eng *situation.Engine, delivered []*ctx.Context, now time.Time) {
	eng.Evaluate(constraint.NewSliceUniverse(delivered), now)
}

// writeSpans writes the traced phase's spans as JSON lines: one client
// span per op plus every probe span.
func writeSpans(path string, ss *session, ph *phaseStats, p *probes) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for lane := 0; lane < 2; lane++ {
		ops, res := ss.rn.phaseResults(ph.phase, lane)
		for i, r := range res {
			if err := enc.Encode(span{Layer: "client", Name: ops[i].Kind.String(), Tag: laneTag(lane),
				Start: r.Sent, End: r.Done, N: ops[i].contexts()}); err != nil {
				_ = f.Close()
				return err
			}
		}
	}
	for _, rec := range []*recorder{&p.sock, &p.wal, &p.strat} {
		for _, s := range rec.take() {
			if err := enc.Encode(s); err != nil {
				_ = f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// nullLateness runs the nominal schedule against a target that does
// nothing: the generator's own lateness.
func nullLateness(in *Inputs, rate Rate, d time.Duration) []float64 {
	rn := newRunner(in, func(int, *Op, *Result) {})
	ph, err := rn.open("null", rate, d)
	if err != nil {
		return nil
	}
	var late []float64
	for lane := 0; lane < 2; lane++ {
		_, res := rn.phaseResults(ph, lane)
		for _, r := range res {
			late = append(late, r.late())
		}
	}
	return late
}
