package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/wal"
)

// Ladder pass criteria besides the per-op p99 limits.
const (
	minAchieved   = 0.95 // achieved ÷ offered contexts per second
	maxLateGrowth = 5.0  // ms: last third's median lateness over the first third's
)

// Run parameters.
const (
	pushWait       = 3 * time.Second // how long to wait for pushes still in flight
	recoverBudget  = 6 * time.Second // stop repeating Recover once this much wall time is spent
	maxRecoverReps = 5
	preloadBatch   = daemon.MaxBatchContexts
	setupRepsLarge = 2 // set-ups per run when a set-up preloads (seconds each)
	setupRepsSmall = 9
)

// session is one live server set with its connected lanes.
type session struct {
	s     *servers
	cs    *clients
	ex    *clientExec
	rn    *runner
	first [2]int // lane positions when this server set started serving
}

func (ss *session) close() error {
	if ss.cs != nil {
		ss.cs.close()
	}
	return ss.s.stop()
}

// setup starts a fresh server set, preloads, checkpoints when the
// workload says so, and sends the warm-up ops. It is what setup_s times.
func setup(a app, in *Inputs, dir string) (*session, error) {
	s, err := startServers(a, dir)
	if err != nil {
		return nil, err
	}
	cs, err := dial(s)
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	ss := &session{s: s, cs: cs, ex: &clientExec{cs: cs, fresh: newFreshness()}}
	ss.rn = newRunner(in, ss.ex.exec)
	fail := func(err error) (*session, error) {
		_ = ss.close()
		return nil, err
	}
	for i := 0; i < len(in.Preload); i += preloadBatch {
		end := min(i+preloadBatch, len(in.Preload))
		res, err := cs.lanes[0].SubmitBatch(in.Preload[i:end], 0)
		if err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
		for _, r := range res {
			if !r.OK {
				return fail(fmt.Errorf("preload: %s", r.Error))
			}
		}
	}
	if a.spec.CheckpointAfterSetup {
		for _, sh := range s.shards {
			if err := sh.mw.Checkpoint(); err != nil {
				return fail(err)
			}
		}
	}
	var warm [2]int
	for lane := range warm {
		warm[lane] = min(in.Warmup, len(in.Lanes[lane]))
	}
	if s.router != nil && warm[0] > 0 {
		// Lane a's first op makes the router dial its shard connections;
		// send it alone so a probe can stamp them with lane a's tag.
		if p := a.p; p != nil {
			p.nextTag.Store(laneTag(0))
		}
		ss.rn.closed([2]int{1, 0})
		warm[0]--
	}
	ss.rn.closed(warm)
	return ss, nil
}

// setupRepeated sets up reps times, keeping the last set-up, and returns
// every set-up time.
func setupRepeated(a app, in *Inputs, workdir string, reps int) (*session, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(workdir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		ss, err := setup(a, in, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			return ss, times, nil
		}
		if err := ss.close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// phaseStats summarizes one phase.
type phaseStats struct {
	phase                   *phase
	name                    string
	submit, use, push       []float64 // ms: submits and uses from the intended send time, pushes from the beacon op's actual send
	submitAt, useAt, pushAt []int64   // the samples' intended send times
	afterAck                []float64 // push arrival minus the beacon's ack, ms
	submitCtx               int       // contexts behind the submit samples
	contexts                int       // contexts acked
	offered, achieved       float64   // contexts per second
	attempted, failed       int
	firstErr                string
	late                    []float64
	lateGrowth              float64
	pass                    bool
	why                     string
}

// beaconMatch pairs the beacons a server set received with the
// activation pushes of their own subscription: each beacon op is the only
// trigger of its kind's next activation, so the k-th activation of a
// kind belongs to the k-th beacon of that kind.
func (ss *session) beaconMatch() (map[*Result]int64, error) {
	byKind := map[string][]*Result{}
	for l, lane := range ss.rn.in.Lanes {
		for i := ss.first[l]; i < ss.rn.pos[l]; i++ {
			r := &ss.rn.results[l][i]
			if lane[i].Kind == opBeacon && r.Ran && r.Class == classOK {
				k := beaconSub(lane[i].Ctx.Kind)
				byKind[k] = append(byKind[k], r)
			}
		}
	}
	deadline := time.Now().Add(pushWait)
	out := make(map[*Result]int64)
	for k, beacons := range byKind {
		var acts []int64
		for {
			acts = ss.cs.pushes.activations(k)
			if len(acts) >= len(beacons) || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if len(acts) != len(beacons) {
			return nil, fmt.Errorf("push gate: %d beacons of kind %s sent, %d activations pushed", len(beacons), k, len(acts))
		}
		for i, r := range beacons {
			out[r] = acts[i]
		}
	}
	return out, nil
}

// stats summarizes a phase and applies the ladder's pass criteria.
func (ss *session) stats(w *WorkloadSpec, ph *phase, pushes map[*Result]int64) *phaseStats {
	st := &phaseStats{name: ph.name, phase: ph}
	type lateAt struct{ at, late float64 }
	var lates []lateAt
	for lane := 0; lane < 2; lane++ {
		lr := ph.lanes[lane]
		if lr.to > lr.from {
			perOp := 0
			for i := lr.from; i < lr.to; i++ {
				perOp += ss.rn.in.Lanes[lane][i].contexts()
			}
			st.offered += float64(perOp) / (float64(lr.to-lr.from) / lr.rate)
		}
		ops, res := ss.rn.phaseResults(ph, lane)
		for i, r := range res {
			op := ops[i]
			st.attempted++
			lates = append(lates, lateAt{float64(r.Intended), r.late()})
			if r.Class == classFailed {
				if st.failed == 0 {
					st.firstErr = fmt.Sprintf("%s: %s", op.Kind, r.Err)
				}
				st.failed++
				continue
			}
			st.contexts += op.contexts()
			switch op.Kind {
			case opSubmit, opBatch:
				st.submit = append(st.submit, r.latency())
				st.submitAt = append(st.submitAt, r.Intended)
				st.submitCtx += op.contexts()
			case opUse, opUseLatest:
				st.use = append(st.use, r.latency())
				st.useAt = append(st.useAt, r.Intended)
			case opBeacon:
				if at, ok := pushes[r]; ok {
					st.push = append(st.push, float64(at-r.Sent)/1e6)
					st.pushAt = append(st.pushAt, r.Intended)
					st.afterAck = append(st.afterAck, float64(at-r.Done)/1e6)
				}
			}
		}
	}
	if span := float64(ph.end-ph.start) / 1e9; span > 0 {
		st.achieved = float64(st.contexts) / span
	}
	sort.Slice(lates, func(i, j int) bool { return lates[i].at < lates[j].at })
	for _, l := range lates {
		st.late = append(st.late, l.late)
	}
	if n := len(st.late); n >= 3 {
		st.lateGrowth = median(st.late[2*n/3:]) - median(st.late[:n/3])
	}
	st.pass, st.why = true, "ok"
	limits := w.P99LimitMs
	check := func(name string, xs []float64, at []int64) {
		if p99 := window(xs, at, 0.99); len(xs) > 0 && p99 > limits[name] {
			st.pass, st.why = false, fmt.Sprintf("%s p99 %.2f ms > %.0f ms", name, p99, limits[name])
		}
	}
	check("submit", st.submit, st.submitAt)
	check("use", st.use, st.useAt)
	check("push", st.push, st.pushAt)
	switch {
	case ph.abort:
		st.pass, st.why = false, "generator fell behind by more than "+maxLate.String()
	case st.failed > 0:
		st.pass, st.why = false, fmt.Sprintf("%d ops failed, first %s", st.failed, st.firstErr)
	case st.achieved < minAchieved*st.offered:
		st.pass, st.why = false, fmt.Sprintf("achieved %.0f of %.0f ctx/s", st.achieved, st.offered)
	case st.lateGrowth > maxLateGrowth:
		st.pass, st.why = false, fmt.Sprintf("lateness grew %.1f ms", st.lateGrowth)
	}
	return st
}

// windowSamples is the number of consecutive samples (by intended send
// time) in one window of a latency metric.
const windowSamples = 100

// window is the median over consecutive windows of windowSamples samples
// of each window's p-quantile. A host hiccup (the machine is shared, and
// a stolen CPU delays whichever requests are in flight) lands in few
// windows and cannot move the median of the windows, while a change
// that slows requests throughout a phase moves every window.
func window(xs []float64, at []int64, p float64) float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return at[idx[i]] < at[idx[j]] })
	var qs []float64
	for lo := 0; lo < len(idx); lo += windowSamples {
		hi := min(lo+windowSamples, len(idx))
		if hi-lo < windowSamples/2 && lo > 0 {
			break // a short last window would weigh as much as a full one
		}
		w := make([]float64, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			w = append(w, xs[i])
		}
		qs = append(qs, percentile(w, p))
	}
	return median(qs)
}

// runPhase runs one open-loop phase and summarizes it.
func (ss *session) runPhase(w *WorkloadSpec, name string, rate Rate, d time.Duration) (*phaseStats, error) {
	ph, err := ss.rn.open(name, rate, d)
	if err != nil {
		return nil, err
	}
	pushes, err := ss.beaconMatch()
	if err != nil {
		return nil, err
	}
	return ss.stats(w, ph, pushes), nil
}

// measure is the untraced run: the end-to-end metrics.
func measure(w *WorkloadSpec, in *Inputs, workdir string, nominal, step time.Duration, out io.Writer) (*report, error) {
	a := app{spec: &w.Server}
	reps := setupRepsSmall
	if len(in.Preload) > 0 {
		reps = setupRepsLarge
	}
	ss, setupTimes, err := setupRepeated(a, in, workdir, reps)
	if err != nil {
		return nil, err
	}
	defer func() { _ = ss.close() }()

	nom, err := ss.runPhase(w, "nominal", w.Nominal, nominal)
	if err != nil {
		return nil, err
	}
	if nom.failed > 0 {
		return nil, fmt.Errorf("%d ops failed at the nominal rate", nom.failed)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	if err := checkSubmitted(ss); err != nil {
		return nil, err
	}

	recoverTimes, err := recoveryLeg(ss)
	if err != nil {
		return nil, err
	}

	// The rate ladder runs on the recovered state.
	steps := []*phaseStats{nom}
	sustained := climb(w, nom, func(r Rate) (*phaseStats, error) {
		st, err := ss.runPhase(w, fmt.Sprintf("ladder %.0f/%.0f", r.A, r.B), r, step)
		if st != nil {
			steps = append(steps, st)
		}
		return st, err
	})
	if sustained.err != nil {
		return nil, sustained.err
	}
	if err := checkSubmitted(ss); err != nil {
		return nil, err
	}
	if err := gates(w, ss); err != nil {
		return nil, err
	}
	for _, st := range steps {
		fmt.Fprintf(out, "phase %-18s offered %8.1f ctx/s achieved %8.1f ctx/s  whole-phase p99: submit %7.2f ms use %7.2f ms push %7.2f ms late %6.2f ms  %s\n",
			st.name, st.offered, st.achieved, percentile(st.submit, 0.99), percentile(st.use, 0.99),
			percentile(st.push, 0.99), percentile(st.late, 0.99), st.why)
	}

	// The latencies and recovery time are printed, not gated: they are
	// CPU-bound, and the shared host's CPU speed drifts between minutes
	// by more than the largest bound the benchmark may set. The traced
	// run reports them as per-layer metrics.
	ungated := &report{}
	addLatencies(ungated, nom)
	ungated.add("middleware.recover_cpu_s", minimum(recoverTimes), "s", len(recoverTimes))
	for _, m := range ungated.metrics {
		fmt.Fprintf(out, "ungated %-26s %14.4f %-6s %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}

	rep := &report{}
	for _, st := range steps {
		rep.attempted += st.attempted
		rep.failed += st.failed
	}
	rep.add("sustained_ctx_per_s", sustained.rate, "ctx/s", sustained.samples)
	rep.add("setup_s", median(setupTimes), "s", len(setupTimes))
	rep.add("heap_mb", heapMB, "MiB", 1)
	return rep, nil
}

// addLatencies adds a phase's median latencies.
func addLatencies(rep *report, st *phaseStats) {
	rep.add("latency.submit_p50_ms", window(st.submit, st.submitAt, 0.5), "ms", st.submitCtx)
	rep.add("latency.use_p50_ms", window(st.use, st.useAt, 0.5), "ms", len(st.use))
	rep.add("latency.push_p50_ms", window(st.push, st.pushAt, 0.5), "ms", len(st.push))
}

// ladderResult is the sustained rate a ladder climb found.
type ladderResult struct {
	rate    float64
	samples int
	err     error
}

// climb walks the ladder from the nominal step: upwards while steps
// pass, or downwards until one passes if the nominal rate failed.
func climb(w *WorkloadSpec, nom *phaseStats, run func(Rate) (*phaseStats, error)) ladderResult {
	best := ladderResult{rate: nom.achieved, samples: nom.attempted}
	i := w.nominalStep()
	dir := 1
	if !nom.pass {
		dir = -1
	}
	for j := i + dir; j >= 0 && j < len(w.Ladder); j += dir {
		st, err := run(w.Ladder[j])
		if err != nil {
			return ladderResult{err: err}
		}
		if dir > 0 && !st.pass {
			break
		}
		best = ladderResult{rate: st.achieved, samples: st.attempted}
		if dir < 0 && st.pass {
			break
		}
	}
	return best
}

// checkSubmitted is ingest-routed's ack gate (and a sanity check
// elsewhere): the contexts the servers count as submitted equal the
// contexts the clients had acked.
func checkSubmitted(ss *session) error {
	acked := len(ss.rn.in.Preload)
	for lane := 0; lane < 2; lane++ {
		for i := 0; i < ss.rn.pos[lane]; i++ {
			if r := &ss.rn.results[lane][i]; r.Ran && r.Class == classOK {
				acked += ss.rn.in.Lanes[lane][i].contexts()
			}
		}
	}
	if got := ss.s.submitted(); got != acked {
		return fmt.Errorf("ack gate: servers count %d submitted contexts, clients were acked %d", got, acked)
	}
	return nil
}

// recoveryLeg shuts the servers down, times middleware.Recover on every
// shard's journal in CPU seconds (repeated while the budget lasts), checks the recovered
// fingerprints and the journals, and serves the recovered state again.
func recoveryLeg(ss *session) ([]float64, error) {
	ss.cs.close()
	ss.cs = nil
	ss.s.halt()
	fps := make([]string, len(ss.s.shards))
	for i, sh := range ss.s.shards {
		fp, err := sh.mw.Fingerprint()
		if err != nil {
			return nil, err
		}
		fps[i] = fp
	}
	if ss.s.app.spec.CheckpointAtShutdown {
		for _, sh := range ss.s.shards {
			if err := sh.mw.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if err := ss.s.stop(); err != nil {
		return nil, fmt.Errorf("close journals: %w", err)
	}
	// Every shard is recovered and timed, in CPU seconds of the process:
	// recovery is CPU-bound, and on a shared machine its wall time mostly
	// measured how much CPU the host let the run have.
	recovered := make([]*middleware.Middleware, len(ss.s.shards))
	var times []float64
	var spent time.Duration
	for len(times) < maxRecoverReps && (len(times) == 0 || spent < recoverBudget) {
		t0, cpu0 := time.Now(), processCPU()
		for i, sh := range ss.s.shards {
			m, eng, err := ss.s.recoverShard(sh)
			if err != nil {
				return nil, fmt.Errorf("recover: %w", err)
			}
			recovered[i] = m
			sh.eng = eng
		}
		spent += time.Since(t0)
		times = append(times, (processCPU() - cpu0).Seconds())
	}
	for i, m := range recovered {
		if fp, err := m.Fingerprint(); err != nil || fp != fps[i] {
			return nil, fmt.Errorf("recovery gate: shard %d's recovered fingerprint differs from the one at shutdown (err %v)", i, err)
		}
	}
	for _, sh := range ss.s.shards {
		v, err := wal.Verify(sh.dir)
		if err != nil {
			return nil, fmt.Errorf("wal verify %s: %w", sh.dir, err)
		}
		if !v.Clean() {
			return nil, fmt.Errorf("wal verify %s: not clean", sh.dir)
		}
	}
	if err := ss.s.restart(recovered); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	cs, err := dial(ss.s)
	if err != nil {
		return nil, err
	}
	ss.cs, ss.ex.cs = cs, cs
	ss.first = ss.rn.pos
	return times, nil
}

// gates runs the workload's end-of-run correctness checks.
func gates(w *WorkloadSpec, ss *session) error {
	if len(ss.ex.fresh.bad) > 0 {
		return fmt.Errorf("freshness gate: %d stale reads, first: %s", len(ss.ex.fresh.bad), ss.ex.fresh.bad[0])
	}
	if w.Server.Checker == "rfidmon" && w.Server.Shards <= 1 {
		return rfidReference(ss.rn)
	}
	return nil
}

// rfidReference replays the ops the run sent, in order, through an
// in-process middleware.New(rfidmon.Checker(), drop-bad) and compares
// every submit's violation count and every use's outcome class.
// Compaction may have removed a discarded or expired context before its
// use, so a live not-found matches a reference discarded or expired.
func rfidReference(rn *runner) error {
	a := app{spec: &ServerSpec{Checker: "rfidmon"}}
	ref, _, err := a.middleware()
	if err != nil {
		return err
	}
	for i := 0; i < rn.pos[0]; i++ {
		op, r := &rn.in.Lanes[0][i], &rn.results[0][i]
		if !r.Ran {
			continue
		}
		switch op.Kind {
		case opSubmit, opBeacon:
			vios, err := ref.Submit(op.Ctx.Clone())
			if err != nil || r.Class != classOK || len(vios) != r.Vios {
				return fmt.Errorf("reference gate: submit %s: live %s with %d violations, reference %d violations (err %v)",
					op.Ctx.ID, r.Class, r.Vios, len(vios), err)
			}
		case opUse:
			_, err := ref.Use(op.ID)
			want := useClass(err)
			if r.Class != want && !(r.Class == classNotFound && (want == classDiscarded || want == classExpired)) {
				return fmt.Errorf("reference gate: use %s: live %s, reference %s", op.ID, r.Class, want)
			}
		}
	}
	return nil
}
