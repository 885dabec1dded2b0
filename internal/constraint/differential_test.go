package constraint

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ctxres/internal/ctx"
)

// Differential test harness: generate random universes and random closed
// formulas, then assert the parallel checker's output is byte-identical to
// the serial checker's across worker counts and seeds. The generator is
// shared with FuzzDifferentialParallel, which explores (seed, workers)
// pairs beyond the fixed sweep below.

var genKinds = []ctx.Kind{ctx.KindLocation, ctx.KindRFIDRead, ctx.Kind("diff.sensor")}

type genVar struct {
	name string
	kind ctx.Kind
}

// genUniverse builds a random universe of up to ~20 contexts, deliberately
// reusing timestamps and sequence numbers so chronological ordering falls
// through to the ID tie-break.
func genUniverse(rng *rand.Rand) (*SliceUniverse, []*ctx.Context) {
	n := 1 + rng.Intn(18)
	subjects := []string{"s1", "s2", "s3"}
	cs := make([]*ctx.Context, n)
	for i := range cs {
		cs[i] = ctx.New(genKinds[rng.Intn(len(genKinds))],
			t0.Add(time.Duration(rng.Intn(10))*time.Second), nil,
			ctx.WithID(ctx.ID(fmt.Sprintf("u%02d", i))),
			ctx.WithSeq(uint64(rng.Intn(6))),
			ctx.WithSubject(subjects[rng.Intn(len(subjects))]))
	}
	return NewSliceUniverse(cs), cs
}

// genPred picks a deterministic predicate over variables in scope.
func genPred(rng *rand.Rand, scope []genVar) Formula {
	v := func() string { return scope[rng.Intn(len(scope))].name }
	switch rng.Intn(4) {
	case 0:
		return Pred("seqEven", func(b []*ctx.Context) bool { return b[0].Seq%2 == 0 }, v())
	case 1:
		return Pred("before", func(b []*ctx.Context) bool {
			return b[0].Timestamp.Before(b[1].Timestamp)
		}, v(), v())
	case 2:
		return Pred("sameSubject", func(b []*ctx.Context) bool {
			return b[0].Subject == b[1].Subject
		}, v(), v())
	default:
		return Pred("idLess", func(b []*ctx.Context) bool { return b[0].ID < b[1].ID }, v(), v())
	}
}

// genFormula builds a random formula of bounded depth whose predicates only
// reference variables in scope; nextVar keeps quantified names unique so
// the result is closed and unshadowed (registrable).
func genFormula(rng *rand.Rand, depth int, scope []genVar, nextVar *int) Formula {
	if depth <= 0 {
		if len(scope) == 0 {
			if rng.Intn(2) == 0 {
				return True()
			}
			return False()
		}
		return genPred(rng, scope)
	}
	quantify := func(forall bool) Formula {
		name := fmt.Sprintf("v%d", *nextVar)
		*nextVar++
		kind := genKinds[rng.Intn(len(genKinds))]
		body := genFormula(rng, depth-1, append(scope, genVar{name, kind}), nextVar)
		if forall {
			return Forall(name, kind, body)
		}
		return Exists(name, kind, body)
	}
	switch rng.Intn(8) {
	case 0, 1:
		return quantify(true)
	case 2:
		return quantify(false)
	case 3:
		return And(genFormula(rng, depth-1, scope, nextVar), genFormula(rng, depth-1, scope, nextVar))
	case 4:
		return Or(genFormula(rng, depth-1, scope, nextVar), genFormula(rng, depth-1, scope, nextVar))
	case 5:
		return Implies(genFormula(rng, depth-1, scope, nextVar), genFormula(rng, depth-1, scope, nextVar))
	case 6:
		return Not(genFormula(rng, depth-1, scope, nextVar))
	default:
		if len(scope) == 0 {
			return quantify(true)
		}
		return genPred(rng, scope)
	}
}

// genConstraint builds a random closed constraint. Most roots are universal
// quantifiers (the shape the parallel evaluator shards); the rest exercise
// the single-task fallback.
func genConstraint(rng *rand.Rand, name string) *Constraint {
	nextVar := 0
	var f Formula
	if rng.Intn(10) < 7 {
		v := fmt.Sprintf("v%d", nextVar)
		nextVar++
		kind := genKinds[rng.Intn(len(genKinds))]
		f = Forall(v, kind, genFormula(rng, 2+rng.Intn(2), []genVar{{v, kind}}, &nextVar))
	} else {
		f = genFormula(rng, 2+rng.Intn(2), nil, &nextVar)
	}
	return &Constraint{Name: name, Formula: f}
}

func genChecker(rng *rand.Rand) *Checker {
	ch := NewChecker()
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		ch.MustRegister(genConstraint(rng, fmt.Sprintf("c%d", i)))
	}
	return ch
}

// renderViolations flattens a violation list into comparable strings so
// mismatches report the exact position and content that diverged.
func renderViolations(vios []Violation) []string {
	out := make([]string, len(vios))
	for i, v := range vios {
		out[i] = v.String()
	}
	return out
}

func assertSameViolations(t *testing.T, label string, want, got []Violation) {
	t.Helper()
	w, g := renderViolations(want), renderViolations(got)
	if len(w) != len(g) {
		t.Fatalf("%s: want %d violations %v, got %d violations %v",
			label, len(w), w, len(g), g)
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: violation %d differs: want %q, got %q\nwant: %v\ngot:  %v",
				label, i, w[i], g[i], w, g)
		}
	}
}

// checkDifferential runs one seed's equivalence check: serial vs parallel
// for both full checks and addition checks, at the given worker count.
func checkDifferential(t *testing.T, seed int64, workers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	u, cs := genUniverse(rng)
	ch := genChecker(rng)

	label := fmt.Sprintf("seed %d workers %d", seed, workers)
	assertSameViolations(t, label+" full",
		ch.Check(u), ch.CheckParallel(u, workers))

	added := cs[rng.Intn(len(cs))]
	assertSameViolations(t, label+" addition",
		ch.CheckAddition(u, added), ch.CheckAdditionParallel(u, added, workers))
}

// TestDifferentialParallelVsSerial sweeps seeds 1..100 and worker counts
// 1..8, asserting byte-identical output between the two evaluators.
func TestDifferentialParallelVsSerial(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		for workers := 1; workers <= 8; workers++ {
			checkDifferential(t, seed, workers)
		}
	}
}

// TestDifferentialEmptyAndDegenerate pins the edge cases sharding must not
// disturb: empty universes, empty checkers, nil additions, single-context
// domains, and worker counts exceeding the domain size.
func TestDifferentialEmptyAndDegenerate(t *testing.T) {
	empty := NewSliceUniverse(nil)
	ch := NewChecker()
	if got := ch.CheckParallel(empty, 4); len(got) != 0 {
		t.Fatalf("empty checker found %v", got)
	}
	ch.MustRegister(velocityConstraint("vel", 1, 1.5))
	assertSameViolations(t, "empty universe", ch.Check(empty), ch.CheckParallel(empty, 4))

	one := mkLoc(t, "only", 1, 0, 0)
	u := NewSliceUniverse([]*ctx.Context{one})
	assertSameViolations(t, "one context", ch.Check(u), ch.CheckParallel(u, 8))
	assertSameViolations(t, "one context addition",
		ch.CheckAddition(u, one), ch.CheckAdditionParallel(u, one, 8))

	if got := ch.CheckAdditionParallel(u, nil, 4); got != nil {
		t.Fatalf("nil addition produced %v", got)
	}
}

// TestParallelScenarioA re-runs the paper's Figure 1 Scenario A through the
// parallel evaluator at several worker counts: the exact violation set the
// serial checker reports (d2|d3, d3|d4) must come back unchanged.
func TestParallelScenarioA(t *testing.T) {
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 2, 1.5))
	u, _ := figure1Universe(t)
	want := ch.Check(u)
	if len(want) != 4 {
		t.Fatalf("serial baseline = %v", renderViolations(want))
	}
	for _, workers := range []int{2, 3, 4, 5, 8, 16} {
		assertSameViolations(t, fmt.Sprintf("scenarioA workers %d", workers),
			want, ch.CheckParallel(u, workers))
	}
}

// TestCheckReportCounters validates the work-distribution report: sharded
// root quantifiers dispatch multiple tasks, and additions of kinds no
// constraint quantifies over prune the whole root domain.
func TestCheckReportCounters(t *testing.T) {
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 1, 1.5))
	u, cs := figure1Universe(t)

	_, rep := ch.CheckParallelReport(u, 4)
	if rep.ShardsDispatched != 4 {
		t.Fatalf("ShardsDispatched = %d, want 4 (5 bindings across 4 workers)", rep.ShardsDispatched)
	}

	_, rep = ch.CheckAdditionParallelReport(u, cs[2], 4)
	if rep.ShardsDispatched != 4 || rep.BindingsPruned != 0 {
		t.Fatalf("addition report = %+v", rep)
	}

	other := ctx.New(ctx.KindRFIDRead, t0, nil, ctx.WithID("r1"))
	vios, rep := ch.CheckAdditionParallelReport(u, other, 4)
	if len(vios) != 0 {
		t.Fatalf("irrelevant addition found %v", vios)
	}
	if rep.ShardsDispatched != 0 || rep.BindingsPruned != 5 {
		t.Fatalf("irrelevant addition report = %+v, want 0 shards / 5 pruned", rep)
	}
}

// FuzzDifferentialParallel lets the fuzzer explore (seed, workers) pairs
// with the same generator the fixed sweep uses.
func FuzzDifferentialParallel(f *testing.F) {
	f.Add(int64(1), 1)
	f.Add(int64(7), 4)
	f.Add(int64(101), 8)
	f.Fuzz(func(t *testing.T, seed int64, workers int) {
		if workers < 1 || workers > 16 {
			return
		}
		checkDifferential(t, seed, workers)
	})
}
