package constraint

import (
	"runtime"
	"sync"

	"ctxres/internal/ctx"
)

// This file implements the parallel binding evaluator: each constraint is
// checked against an immutable snapshot of the universe, with the candidate
// bindings of a root-level universal quantifier sharded across a bounded
// worker pool. Shard results merge by concatenation in domain order, so the
// violations returned are byte-identical to the serial Check/CheckAddition
// output (constraints in registration order; within a constraint, links
// deduplicated and sorted exactly as the serial path does).
//
// Safety: Formula values are immutable and safe for concurrent evaluation
// (predicates are pure functions of their bound contexts), and Universe
// implementations are read-only snapshots, so shards share both without
// synchronization. Each shard writes only its own result slot.

// CheckReport summarizes the work distribution of one parallel check.
type CheckReport struct {
	// ShardsDispatched is the number of shard tasks submitted to the
	// worker pool (a constraint whose root quantifier cannot be sharded
	// contributes one task).
	ShardsDispatched int
	// BindingsPruned counts candidate bindings that were never enumerated
	// because the kind index proved them irrelevant: root-level bindings
	// of constraints skipped for an addition of an unrelated kind, plus
	// (when reported by the pool snapshot) live contexts excluded from
	// the universe because no constraint quantifies over their kind.
	BindingsPruned int
}

// DefaultParallelism returns the worker count used when callers ask for
// "hardware parallelism": the current GOMAXPROCS setting.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// CheckParallel evaluates every constraint against the universe using up to
// workers concurrent evaluators and returns all violations in the same
// deterministic order as Check. workers <= 1 falls back to the serial path.
func (ch *Checker) CheckParallel(u Universe, workers int) []Violation {
	out, _ := ch.CheckParallelReport(u, workers)
	return out
}

// CheckParallelReport is CheckParallel plus a work-distribution report.
func (ch *Checker) CheckParallelReport(u Universe, workers int) ([]Violation, CheckReport) {
	var rep CheckReport
	if workers <= 1 || len(ch.constraints) == 0 {
		return ch.Check(u), rep
	}
	evals := make([]constraintEval, len(ch.constraints))
	var tasks []func()
	for i, c := range ch.constraints {
		tasks = append(tasks, shardTasks(c.Formula, u, nil, workers, &evals[i])...)
	}
	rep.ShardsDispatched = len(tasks)
	runTasks(workers, tasks)

	var out []Violation
	for i, c := range ch.constraints {
		r := evals[i].result()
		if r.Satisfied {
			continue
		}
		out = append(out, violationsOf(c.Name, r.Links)...)
	}
	return out, rep
}

// CheckAdditionParallel is the parallel counterpart of CheckAddition: it
// evaluates only the constraints relevant to the added context's kind,
// sharding each root-level universal quantifier, and returns the violations
// the addition introduces in the same order as the serial path.
func (ch *Checker) CheckAdditionParallel(u Universe, added *ctx.Context, workers int) []Violation {
	out, _ := ch.CheckAdditionParallelReport(u, added, workers)
	return out
}

// CheckAdditionParallelReport is CheckAdditionParallel plus a
// work-distribution report.
func (ch *Checker) CheckAdditionParallelReport(u Universe, added *ctx.Context, workers int) ([]Violation, CheckReport) {
	var rep CheckReport
	if added == nil {
		return nil, rep
	}
	if workers <= 1 {
		return ch.CheckAddition(u, added), rep
	}
	evals := make([]constraintEval, len(ch.constraints))
	var tasks []func()
	for i, c := range ch.constraints {
		m := ch.meta[i]
		if !m.kinds[added.Kind] {
			rep.BindingsPruned += rootDomainSize(c.Formula, u)
			continue
		}
		pivot := added
		if !m.universal {
			pivot = nil // full re-check; violations filtered to the addition below
		}
		tasks = append(tasks, shardTasks(c.Formula, u, pivot, workers, &evals[i])...)
	}
	rep.ShardsDispatched = len(tasks)
	runTasks(workers, tasks)

	var out []Violation
	for i, c := range ch.constraints {
		m := ch.meta[i]
		if !m.kinds[added.Kind] {
			continue
		}
		if r := evals[i].result(); !r.Satisfied {
			out = append(out, additionViolations(c.Name, m.universal, r.Links, added)...)
		}
	}
	return out, rep
}

// constraintEval holds one constraint's in-flight evaluation: either a
// single whole-formula result or the ordered shards of a partitioned
// root-level forall domain.
type constraintEval struct {
	sharded bool
	whole   Result
	parts   []forallShard
}

// result merges the shards (in domain order) and finishes the evaluation
// exactly as the serial evaluator would.
func (ce *constraintEval) result() Result {
	if !ce.sharded {
		return ce.whole
	}
	merged := forallShard{allSat: true}
	for _, p := range ce.parts {
		merged.sat = append(merged.sat, p.sat...)
		merged.vio = append(merged.vio, p.vio...)
		if !p.allSat {
			merged.allSat = false
		}
	}
	return merged.result()
}

// shardTasks builds the evaluation tasks for one constraint. A formula
// rooted at a universal quantifier with at least two candidate bindings is
// partitioned into up to workers contiguous domain shards; anything else
// evaluates as a single task (constraint-level parallelism only).
func shardTasks(f Formula, u Universe, pivot *ctx.Context, workers int, ce *constraintEval) []func() {
	root, ok := f.(*forall)
	var domain []*ctx.Context
	if ok {
		domain = u.ContextsOfKind(root.kind)
	}
	if !ok || len(domain) < 2 || workers <= 1 {
		ce.sharded = false
		return []func(){func() { ce.whole = f.eval(newEvalState(u, pivot), needVio) }}
	}
	n := workers
	if n > len(domain) {
		n = len(domain)
	}
	ce.sharded = true
	ce.parts = make([]forallShard, n)
	tasks := make([]func(), n)
	for s := 0; s < n; s++ {
		s := s
		lo, hi := s*len(domain)/n, (s+1)*len(domain)/n
		tasks[s] = func() { ce.parts[s] = root.evalRange(newEvalState(u, pivot), needVio, domain, lo, hi) }
	}
	return tasks
}

// rootDomainSize estimates the candidate bindings a skipped constraint
// would have enumerated at its root quantifier.
func rootDomainSize(f Formula, u Universe) int {
	if root, ok := f.(*forall); ok {
		return len(u.ContextsOfKind(root.kind))
	}
	return 1
}

// runTasks executes the tasks on a bounded pool of at most workers
// goroutines and waits for all of them.
func runTasks(workers int, tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	work := make(chan func())
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for t := range work {
				t()
			}
		}()
	}
	for _, t := range tasks {
		work <- t
	}
	close(work)
	wg.Wait()
}
