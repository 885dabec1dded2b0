package constraint

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ctxres/internal/ctx"
)

// Reference evaluator: the eager evaluator the checker is specified by,
// kept in test code as an oracle. Every binding gets a fresh copy of the
// environment, every quantifier visits every binding of its domain, and
// every node builds the links of both polarities. The production
// evaluator binds in place, binds the pivot directly and builds only the
// links its caller reads; the differential tests below assert that it
// returns exactly what this one does.

func refEval(f Formula, u Universe, env refEnv, pivot *ctx.Context) Result {
	switch n := f.(type) {
	case *predicate:
		bound := make([]*ctx.Context, len(n.vars))
		for i, v := range n.vars {
			c, ok := env[v]
			if !ok {
				return Result{Links: []Link{refLink()}}
			}
			bound[i] = c
		}
		return Result{Satisfied: n.fn(bound), Links: []Link{refLink(bound...)}}
	case *not:
		r := refEval(n.f, u, env, pivot)
		return Result{Satisfied: !r.Satisfied, Links: r.Links}
	case *and:
		var sat, vio []Link
		allSat := true
		for _, sub := range n.fs {
			r := refEval(sub, u, env, pivot)
			if r.Satisfied {
				sat = refCross(sat, r.Links)
			} else {
				allSat = false
				vio = append(vio, r.Links...)
			}
		}
		if allSat {
			return Result{Satisfied: true, Links: sat}
		}
		return Result{Links: refDedupe(vio)}
	case *or:
		var sat, vio []Link
		anySat := false
		for _, sub := range n.fs {
			r := refEval(sub, u, env, pivot)
			if r.Satisfied {
				anySat = true
				sat = append(sat, r.Links...)
			} else {
				vio = refCross(vio, r.Links)
			}
		}
		if anySat {
			return Result{Satisfied: true, Links: refDedupe(sat)}
		}
		return Result{Links: vio}
	case *implies:
		l := refEval(n.lhs, u, env, pivot)
		if !l.Satisfied {
			return Result{Satisfied: true, Links: l.Links}
		}
		r := refEval(n.rhs, u, env, pivot)
		return Result{Satisfied: r.Satisfied, Links: refCross(l.Links, r.Links)}
	case *forall:
		var sat, vio []Link
		allSat := true
		for _, c := range u.ContextsOfKind(n.kind) {
			env2 := refClone(env)
			env2[n.varName] = c
			p := pivot
			if p != nil && (c.ID == p.ID || refEnvContains(env, p)) {
				p = nil
			}
			if p != nil && !FormulaKinds(n.body)[p.Kind] {
				continue
			}
			r := refEval(n.body, u, env2, p)
			if r.Satisfied {
				sat = append(sat, r.Links...)
			} else {
				allSat = false
				vio = append(vio, r.Links...)
			}
		}
		if allSat {
			return Result{Satisfied: true, Links: refDedupe(sat)}
		}
		return Result{Links: refDedupe(vio)}
	case *exists:
		var sat, vio []Link
		anySat := false
		for _, c := range u.ContextsOfKind(n.kind) {
			env2 := refClone(env)
			env2[n.varName] = c
			r := refEval(n.body, u, env2, pivot)
			if r.Satisfied {
				anySat = true
				sat = append(sat, r.Links...)
			} else {
				vio = append(vio, r.Links...)
			}
		}
		if anySat {
			return Result{Satisfied: true, Links: refDedupe(sat)}
		}
		return Result{Links: refDedupe(vio)}
	}
	panic(fmt.Sprintf("unknown formula node %T", f))
}

// refEnv maps each quantified variable to the context bound to it.
type refEnv map[string]*ctx.Context

func refClone(env refEnv) refEnv {
	out := make(refEnv, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	return out
}

func refEnvContains(env refEnv, c *ctx.Context) bool {
	for _, b := range env {
		if b != nil && b.ID == c.ID {
			return true
		}
	}
	return false
}

// refLink canonicalizes through a seen-map and a sort, as links were first
// specified: nil entries dropped, the first context of each ID kept.
func refLink(contexts ...*ctx.Context) Link {
	seen := make(map[ctx.ID]bool, len(contexts))
	out := make([]*ctx.Context, 0, len(contexts))
	for _, c := range contexts {
		if c == nil || seen[c.ID] {
			continue
		}
		seen[c.ID] = true
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return Link{contexts: out}
}

func refDedupe(links []Link) []Link {
	if len(links) <= 1 {
		return links
	}
	seen := make(map[string]bool, len(links))
	var out []Link
	for _, l := range links {
		if k := l.Key(); !seen[k] {
			seen[k] = true
			out = append(out, l)
		}
	}
	return out
}

func refCross(a, b []Link) []Link {
	const maxCrossLinks = 1024
	if len(a) == 0 {
		return refDedupe(b)
	}
	if len(b) == 0 {
		return refDedupe(a)
	}
	var out []Link
	for _, la := range a {
		for _, lb := range b {
			if len(out) >= maxCrossLinks {
				return refDedupe(out)
			}
			merged := append(append([]*ctx.Context(nil), la.contexts...), lb.contexts...)
			out = append(out, refLink(merged...))
		}
	}
	return refDedupe(out)
}

func refViolations(name string, links []Link) []Violation {
	links = refDedupe(links)
	sorted := append([]Link(nil), links...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })
	var out []Violation
	for _, l := range sorted {
		if l.Len() > 0 {
			out = append(out, Violation{Constraint: name, Link: l})
		}
	}
	return out
}

// refCheck is the reference Checker.Check.
func refCheck(ch *Checker, u Universe) []Violation {
	var out []Violation
	for _, c := range ch.constraints {
		if r := refEval(c.Formula, u, refEnv{}, nil); !r.Satisfied {
			out = append(out, refViolations(c.Name, r.Links)...)
		}
	}
	return out
}

// refCheckAddition is the reference Checker.CheckAddition.
func refCheckAddition(ch *Checker, u Universe, added *ctx.Context) []Violation {
	var out []Violation
	for _, c := range ch.constraints {
		if !FormulaKinds(c.Formula)[added.Kind] {
			continue
		}
		if c.Formula.universal(false) {
			if r := refEval(c.Formula, u, refEnv{}, added); !r.Satisfied {
				out = append(out, refViolations(c.Name, r.Links)...)
			}
			continue
		}
		r := refEval(c.Formula, u, refEnv{}, nil)
		if r.Satisfied {
			continue
		}
		for _, l := range r.Links {
			if l.Contains(added.ID) {
				out = append(out, Violation{Constraint: c.Name, Link: l})
			}
		}
	}
	return out
}

func renderResult(r Result) string {
	links := make([]string, len(r.Links))
	for i, l := range r.Links {
		links[i] = l.String()
	}
	return fmt.Sprintf("%v %s", r.Satisfied, strings.Join(links, " "))
}

// checkReference runs one seed of the reference comparison: Eval of every
// constraint's formula (truth value and links, in order), Check, and
// CheckAddition of every context in the universe, serial and parallel at
// the given worker count.
func checkReference(t *testing.T, seed int64, workers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	u, cs := genUniverse(rng)
	ch := genChecker(rng)
	label := fmt.Sprintf("seed %d workers %d", seed, workers)

	for _, c := range ch.constraints {
		want, got := renderResult(refEval(c.Formula, u, refEnv{}, nil)), renderResult(Eval(c.Formula, u))
		if want != got {
			t.Fatalf("%s: Eval(%s):\nreference %s\ngot       %s", label, c.Formula, want, got)
		}
	}
	want := refCheck(ch, u)
	assertSameViolations(t, label+" Check", want, ch.Check(u))
	assertSameViolations(t, label+" CheckParallel", want, ch.CheckParallel(u, workers))
	for _, added := range cs {
		want := refCheckAddition(ch, u, added)
		l := fmt.Sprintf("%s addition %s", label, added.ID)
		assertSameViolations(t, l, want, ch.CheckAddition(u, added))
		assertSameViolations(t, l+" parallel", want, ch.CheckAdditionParallel(u, added, workers))
	}
}

// TestDifferentialReference sweeps 600 seeds of the random universe and
// constraint generators, comparing the evaluator with the reference.
func TestDifferentialReference(t *testing.T) {
	for seed := int64(1); seed <= 600; seed++ {
		checkReference(t, seed, 2+int(seed%3))
	}
}

// TestReferenceShadowedQuantifier pins Eval on a formula the checker would
// refuse to register: an inner quantifier rebinding an outer variable must
// leave the outer binding in place once it is done.
func TestReferenceShadowedQuantifier(t *testing.T) {
	u := NewSliceUniverse([]*ctx.Context{mkLoc(t, "l1", 1, 0, 0), mkLoc(t, "l2", 2, 0, 0)})
	k := ctx.KindLocation
	seqEven := func(v string) Formula {
		return Pred("seqEven", func(b []*ctx.Context) bool { return b[0].Seq%2 == 0 }, v)
	}
	f := Exists("a", k, And(Forall("a", k, seqEven("a")), Not(seqEven("a"))))
	want, got := renderResult(refEval(f, u, refEnv{}, nil)), renderResult(Eval(f, u))
	if want != got {
		t.Fatalf("Eval(%s):\nreference %s\ngot       %s", f, want, got)
	}
}

// FuzzDifferentialReference explores (seed, workers) pairs beyond the
// fixed sweep with the same generators.
func FuzzDifferentialReference(f *testing.F) {
	f.Add(int64(1), 2)
	f.Add(int64(42), 3)
	f.Add(int64(977), 8)
	f.Fuzz(func(t *testing.T, seed int64, workers int) {
		if workers < 1 || workers > 16 {
			return
		}
		checkReference(t, seed, workers)
	})
}
