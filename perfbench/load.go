package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
)

// Outcome classes of an op. A use of a context that drop-bad discarded,
// that expired, or that drop-bad refuses as inconsistent is a correct
// outcome of the program, not a failure.
type Class uint8

const (
	classOK Class = iota + 1
	classDiscarded
	classExpired
	classInconsistent
	classNotFound
	classFailed
)

var classNames = map[Class]string{
	classOK: "ok", classDiscarded: "discarded", classExpired: "expired",
	classInconsistent: "inconsistent", classNotFound: "not-found", classFailed: "failed",
}

func (c Class) String() string { return classNames[c] }

// useClass maps a use error to its outcome class.
func useClass(err error) Class {
	if err == nil {
		return classOK
	}
	if daemon.ErrorCode(err) == daemon.CodeNotFound {
		return classNotFound
	}
	msg := err.Error()
	for _, c := range []struct {
		err   error
		class Class
	}{
		{middleware.ErrDiscarded, classDiscarded},
		{middleware.ErrExpired, classExpired},
		{middleware.ErrInconsistent, classInconsistent},
		{middleware.ErrNotFound, classNotFound},
	} {
		if errors.Is(err, c.err) || strings.Contains(msg, c.err.Error()) {
			return c.class
		}
	}
	return classFailed
}

// Result is what the generator recorded for one op.
type Result struct {
	Intended, Sent, Done int64 // ns on the run clock
	Class                Class
	Vios                 int    // violations reported for a submit
	Err                  string // failure detail
	Ran                  bool   // the op was sent at all
}

func (r *Result) latency() float64 { return float64(r.Done-r.Intended) / 1e6 }
func (r *Result) late() float64    { return float64(r.Sent-r.Intended) / 1e6 }

// laneRun is one lane's share of a phase: ops [from, to) of its stream.
type laneRun struct {
	from, to int
	rate     float64
	offset   float64 // fraction of an interval lane b is shifted by
}

// phase is one open-loop period at fixed rates.
type phase struct {
	name  string
	lanes [2]laneRun
	start int64
	end   int64 // last completion
	abort bool  // the phase was cut because the generator fell too far behind
}

// maxLate is how far behind schedule a phase may fall before the
// remaining ops are dropped: the rate is unsustainable by then.
const maxLate = 2 * time.Second

// execFn runs one op on one lane's connection.
type execFn func(lane int, op *Op, r *Result)

// runner drives a run's lanes and keeps every op's result.
type runner struct {
	in      *Inputs
	results [2][]Result
	pos     [2]int // next op index per lane
	exec    execFn
}

func newRunner(in *Inputs, exec execFn) *runner {
	r := &runner{in: in, exec: exec}
	for lane := 0; lane < 2; lane++ {
		r.results[lane] = make([]Result, len(in.Lanes[lane]))
	}
	return r
}

// sleepUntil waits for the run clock to reach t (ns). Coarse waits use
// nanosleep, which the kernel wakes within tens of microseconds, unlike
// the runtime timer, which overshot by 0.5-0.8 ms on a 2-vCPU VM; the
// last stretch yields instead of sleeping, bounded by spinWindow.
func sleepUntil(t int64) {
	const spinWindow = 50 * time.Microsecond
	for {
		d := time.Duration(t - nowNS())
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil)
			continue
		}
		runtime.Gosched()
	}
}

// closed runs n ops of each lane back to back (the warm-up).
func (r *runner) closed(n [2]int) {
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		if n[lane] == 0 {
			continue
		}
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < n[lane]; i++ {
				r.step(lane, nowNS())
			}
		}(lane)
	}
	wg.Wait()
}

// step sends the lane's next op, due at intended.
func (r *runner) step(lane int, intended int64) {
	i := r.pos[lane]
	r.pos[lane]++
	res := &r.results[lane][i]
	res.Intended = intended
	res.Sent = nowNS()
	res.Ran = true
	r.exec(lane, &r.in.Lanes[lane][i], res)
	res.Done = nowNS()
}

// open runs one open-loop phase: every lane sends its next ops at fixed
// intervals, each timed from when it was due.
func (r *runner) open(name string, rate Rate, d time.Duration) (*phase, error) {
	ph := &phase{name: name}
	for lane := 0; lane < 2; lane++ {
		rt := laneRate(rate, lane)
		n := phaseOps(rt, d)
		if r.pos[lane]+n > len(r.in.Lanes[lane]) {
			return nil, fmt.Errorf("phase %s: lane %s needs %d more ops than generated", name, laneTag(lane), r.pos[lane]+n-len(r.in.Lanes[lane]))
		}
		ph.lanes[lane] = laneRun{from: r.pos[lane], to: r.pos[lane] + n, rate: rt, offset: 0.5 * float64(lane)}
	}
	ph.start = nowNS() + int64(time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for lane := 0; lane < 2; lane++ {
		lr := ph.lanes[lane]
		if lr.to == lr.from {
			continue
		}
		wg.Add(1)
		go func(lane int, lr laneRun) {
			defer wg.Done()
			interval := float64(time.Second) / lr.rate
			for k := 0; k < lr.to-lr.from; k++ {
				due := ph.start + int64((float64(k)+lr.offset)*interval)
				sleepUntil(due)
				if nowNS()-due > int64(maxLate) {
					mu.Lock()
					ph.abort = true
					mu.Unlock()
					r.pos[lane] = lr.to // the rest of the phase is never sent
					return
				}
				r.step(lane, due)
			}
		}(lane, lr)
	}
	wg.Wait()
	ph.end = nowNS()
	return ph, nil
}

// phaseResults returns the ops of one lane in a phase that were actually
// sent, with their results.
func (r *runner) phaseResults(ph *phase, lane int) ([]*Op, []*Result) {
	lr := ph.lanes[lane]
	var ops []*Op
	var res []*Result
	for i := lr.from; i < lr.to; i++ {
		if r.results[lane][i].Ran {
			ops = append(ops, &r.in.Lanes[lane][i])
			res = append(res, &r.results[lane][i])
		}
	}
	return ops, res
}

// clientExec executes ops over the lanes' daemon clients and applies the
// workload's inline correctness checks.
type clientExec struct {
	cs    *clients
	fresh *freshness
}

func (e *clientExec) exec(lane int, op *Op, r *Result) {
	cl := e.cs.lanes[lane]
	switch op.Kind {
	case opSubmit, opBeacon:
		vios, err := cl.Submit(op.Ctx)
		if err != nil {
			r.Class, r.Err = classFailed, err.Error()
			return
		}
		r.Class, r.Vios = classOK, len(vios)
		e.fresh.acked(op.Ctx)
	case opBatch:
		results, err := cl.SubmitBatch(op.Batch, 0)
		if err != nil {
			r.Class, r.Err = classFailed, err.Error()
			return
		}
		r.Class = classOK
		for i, br := range results {
			if !br.OK {
				r.Class, r.Err = classFailed, fmt.Sprintf("item %d: %s", i, br.Error)
				return
			}
			r.Vios += len(br.Violations)
			e.fresh.acked(op.Batch[i])
		}
		if len(results) != len(op.Batch) {
			r.Class, r.Err = classFailed, fmt.Sprintf("%d results for %d items", len(results), len(op.Batch))
		}
	case opUse:
		_, err := cl.Use(op.ID)
		r.Class = useClass(err)
		if r.Class == classFailed {
			r.Err = err.Error()
		}
	case opUseLatest:
		want := e.fresh.newestOf(op.Subject)
		c, err := cl.UseLatest(op.LKind, op.Subject)
		if err != nil {
			r.Class, r.Err = classFailed, err.Error()
			return
		}
		r.Class = classOK
		if c.Subject != op.Subject || c.Timestamp.UnixNano() < want {
			e.fresh.violation(fmt.Sprintf("use-latest %s returned %s at %s; newest acked before the read was %s",
				op.Subject, c.Subject, c.Timestamp.Format(time.RFC3339Nano), time.Unix(0, want).UTC().Format(time.RFC3339Nano)))
		}
	}
}

// freshness tracks, per subject, the newest context timestamp acked so
// far, and the reads that returned something older.
type freshness struct {
	mu     sync.Mutex
	newest map[string]int64
	bad    []string
}

func newFreshness() *freshness { return &freshness{newest: make(map[string]int64)} }

func (f *freshness) acked(c *ctx.Context) {
	f.mu.Lock()
	if t := c.Timestamp.UnixNano(); t > f.newest[c.Subject] {
		f.newest[c.Subject] = t
	}
	f.mu.Unlock()
}

func (f *freshness) newestOf(subject string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.newest[subject]
}

func (f *freshness) violation(msg string) {
	f.mu.Lock()
	f.bad = append(f.bad, msg)
	f.mu.Unlock()
}
