package constraint

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"ctxres/internal/ctx"
)

// Constraint is a named consistency constraint over contexts. Constraints
// are assumed correct (Heuristic Rule 1 of the paper): a violation always
// signals a real context inconsistency, never a false report.
type Constraint struct {
	// Name identifies the constraint in violations and reports.
	Name string
	// Doc describes the requirement the constraint encodes.
	Doc string
	// Formula is the closed first-order formula to hold over the universe.
	Formula Formula
}

// Violation is one detected context inconsistency: a constraint and the
// link (set of contexts) that violates it.
type Violation struct {
	Constraint string
	Link       Link
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	return v.Constraint + v.Link.String()
}

// Registration errors.
var (
	ErrNoName      = errors.New("constraint has empty name")
	ErrNilFormula  = errors.New("constraint has nil formula")
	ErrDupName     = errors.New("constraint name already registered")
	ErrFreeVar     = errors.New("constraint formula has free variables")
	ErrShadowedVar = errors.New("constraint formula shadows a quantified variable")
)

// Checker detects violations of a set of registered constraints against a
// universe of contexts. It supports full checking and the incremental mode
// of the authors' ICSE 2006 paper, which on a context-addition change only
// examines variable bindings involving the new context. Incremental mode is
// used automatically for constraints in the universal fragment; others fall
// back to a full check.
//
// Evaluation model: every check runs against an immutable snapshot of the
// universe (the pool copies its kind index under lock before handing it
// over), so evaluation never observes concurrent pool mutation. Checking
// reads only violation links, so no satisfaction link is ever built for
// it, and an incremental check of a two-variable constraint examines the
// pairs involving the new context only: 2N−1 of them over N contexts.
// On top of that snapshot the checker offers two equivalent evaluators:
//
//   - the serial evaluator (Check, CheckAddition), used by default;
//   - the parallel evaluator (CheckParallel, CheckAdditionParallel in
//     parallel.go), which shards the candidate bindings of each root-level
//     universal quantifier across a bounded worker pool.
//
// Determinism guarantee: both evaluators return violations in the same
// byte-identical order — constraints in registration order, and within a
// constraint links deduplicated and sorted by canonical link key. Parallel
// shards merge by concatenation in domain order before deduplication, so
// worker count and scheduling never change the output; the differential
// test harness (differential_test.go) pins this equivalence.
//
// Registration (Register/MustRegister) is not safe for concurrent use with
// checking; the middleware registers constraints at start-up and serializes
// mutation.
type Checker struct {
	constraints []*Constraint
	meta        []constraintMeta // parallel to constraints
	byName      map[string]*Constraint
	// kinds is the union of every constraint's kinds. Register replaces
	// it rather than mutating it, so the map Kinds hands out never changes.
	kinds map[ctx.Kind]bool
}

// constraintMeta is what registration derives from a constraint's formula.
type constraintMeta struct {
	kinds     map[ctx.Kind]bool // kinds the formula quantifies over
	universal bool              // incremental checking is sound
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{
		byName: make(map[string]*Constraint),
		kinds:  make(map[ctx.Kind]bool),
	}
}

// Register adds a constraint after validating it: the name must be unique
// and non-empty, the formula non-nil and closed (every predicate variable
// bound by exactly one enclosing quantifier).
func (ch *Checker) Register(c *Constraint) error {
	if c == nil || c.Formula == nil {
		return ErrNilFormula
	}
	if c.Name == "" {
		return ErrNoName
	}
	if _, dup := ch.byName[c.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDupName, c.Name)
	}
	if err := checkClosed(c.Formula, map[string]bool{}); err != nil {
		return fmt.Errorf("constraint %q: %w", c.Name, err)
	}
	kinds := FormulaKinds(c.Formula)
	union := maps.Clone(ch.kinds)
	maps.Copy(union, kinds)
	ch.constraints = append(ch.constraints, c)
	ch.meta = append(ch.meta, constraintMeta{kinds: kinds, universal: c.Formula.universal(false)})
	ch.byName[c.Name] = c
	ch.kinds = union
	return nil
}

// MustRegister registers the constraint and panics on error; intended for
// static constraint sets built at program start.
func (ch *Checker) MustRegister(c *Constraint) {
	if err := ch.Register(c); err != nil {
		panic(err)
	}
}

// Constraints returns the registered constraints in registration order.
func (ch *Checker) Constraints() []*Constraint {
	out := make([]*Constraint, len(ch.constraints))
	copy(out, ch.constraints)
	return out
}

// Relevant reports whether any registered constraint quantifies over the
// given kind. Contexts of irrelevant kinds bypass buffering entirely
// (Part 1 of the drop-bad resolution process, Figure 7).
func (ch *Checker) Relevant(kind ctx.Kind) bool { return ch.kinds[kind] }

// Kinds returns the union of context kinds the registered constraints
// quantify over. Pool snapshots use it to enumerate only candidate
// bindings whose kinds some constraint can actually inspect. The map is
// shared and must not be mutated; a later Register does not change it.
func (ch *Checker) Kinds() map[ctx.Kind]bool { return ch.kinds }

// Check evaluates every constraint against the universe and returns all
// violations in a deterministic order.
func (ch *Checker) Check(u Universe) []Violation {
	var out []Violation
	s := newEvalState(u, nil)
	for _, c := range ch.constraints {
		if r := c.Formula.eval(s, needVio); !r.Satisfied {
			out = append(out, violationsOf(c.Name, r.Links)...)
		}
	}
	return out
}

// CheckAddition evaluates the constraints relevant to a newly added context
// and returns the violations the addition introduces. Universal-fragment
// constraints are checked incrementally (only bindings involving added);
// others are fully re-checked, and only violations whose link contains the
// added context are reported (pre-existing violations were reported when
// their own contexts arrived).
func (ch *Checker) CheckAddition(u Universe, added *ctx.Context) []Violation {
	if added == nil {
		return nil
	}
	var out []Violation
	s := newEvalState(u, added)
	for i, c := range ch.constraints {
		m := ch.meta[i]
		if !m.kinds[added.Kind] {
			continue
		}
		s.pivot = nil
		if m.universal {
			s.pivot = added
		}
		r := c.Formula.eval(s, needVio)
		if !r.Satisfied {
			out = append(out, additionViolations(c.Name, m.universal, r.Links, added)...)
		}
	}
	return out
}

// additionViolations turns the violation links of one constraint checked
// for an addition into violations. An incremental check's links all
// involve the addition; a full re-check's are filtered to those that do.
func additionViolations(name string, incremental bool, links []Link, added *ctx.Context) []Violation {
	if incremental {
		return violationsOf(name, links)
	}
	var out []Violation
	for _, l := range links {
		if l.Contains(added.ID) {
			out = append(out, Violation{Constraint: name, Link: l})
		}
	}
	return out
}

// violationsOf turns one constraint's violation links into violations:
// deduplicated, sorted by canonical link key, empty links dropped. Each
// key is built once, not once per comparison.
func violationsOf(name string, links []Link) []Violation {
	type keyed struct {
		key  string
		link Link
	}
	ks := make([]keyed, 0, len(links))
	seen := make(map[string]bool, len(links))
	for _, l := range links {
		k := l.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if l.Len() > 0 { // an empty link carries no discardable context
			ks = append(ks, keyed{key: k, link: l})
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]Violation, len(ks))
	for i, k := range ks {
		out[i] = Violation{Constraint: name, Link: k.link}
	}
	return out
}

// checkClosed walks the formula ensuring every predicate variable is bound
// and no quantifier shadows another.
func checkClosed(f Formula, bound map[string]bool) error {
	switch n := f.(type) {
	case *predicate:
		for _, v := range n.vars {
			if !bound[v] {
				return fmt.Errorf("%w: %q in %s", ErrFreeVar, v, n)
			}
		}
		return nil
	case *not:
		return checkClosed(n.f, bound)
	case *and:
		for _, sub := range n.fs {
			if err := checkClosed(sub, bound); err != nil {
				return err
			}
		}
		return nil
	case *or:
		for _, sub := range n.fs {
			if err := checkClosed(sub, bound); err != nil {
				return err
			}
		}
		return nil
	case *implies:
		if err := checkClosed(n.lhs, bound); err != nil {
			return err
		}
		return checkClosed(n.rhs, bound)
	case *forall:
		return checkQuantified(n.varName, n.body, bound)
	case *exists:
		return checkQuantified(n.varName, n.body, bound)
	default:
		return fmt.Errorf("unknown formula node %T", f)
	}
}

func checkQuantified(varName string, body Formula, bound map[string]bool) error {
	if bound[varName] {
		return fmt.Errorf("%w: %q", ErrShadowedVar, varName)
	}
	bound[varName] = true
	defer delete(bound, varName)
	return checkClosed(body, bound)
}
