package constraint

import (
	"fmt"
	"strings"

	"ctxres/internal/ctx"
)

// Result is the outcome of evaluating a formula under an environment:
// whether it holds, and the links explaining that truth value. For a
// satisfied formula the links say which contexts made it true; for a
// violated formula, which contexts made it false.
type Result struct {
	Satisfied bool
	Links     []Link
}

// need tells a node which of its links the caller will read: the
// satisfaction links (needSat), the violation links (needVio), both, or
// none. A node builds the links of a truth value only when that value's
// polarity is needed; the truth value itself is always exact. Checking
// reads violation links only, so it never builds satisfaction links
// below a node that does not need them.
type need uint8

const (
	needSat need = 1 << iota
	needVio
	needBoth = needSat | needVio
)

// swap exchanges the polarities, as negation does.
func (n need) swap() need { return n&needSat<<1 | n&needVio>>1 }

// wants reports whether the links of a result with the given truth value
// are needed.
func (n need) wants(holds bool) bool {
	if holds {
		return n&needSat != 0
	}
	return n&needVio != 0
}

// evalState is the state of one evaluation: the universe, the bindings of
// the enclosing quantifiers, and in incremental mode the pivot (the added
// context every examined binding must involve). Each quantifier pushes one
// binding slot, rebinds it in place for every context of its domain, and
// pops it when its loop ends, so no binding copies the environment. The
// pivot's positions in each kind's domain are found by one scan on first
// use and reused for the rest of the evaluation. A state is not safe for
// concurrent use: each parallel shard evaluates with its own.
type evalState struct {
	u     Universe
	env   []binding // innermost last
	pivot *ctx.Context
	at    []pivotAt
	bound []*ctx.Context // predicate argument scratch
}

type binding struct {
	name string
	c    *ctx.Context
}

// pivotAt records where the pivot sits in one kind's domain.
type pivotAt struct {
	kind ctx.Kind
	idx  []int
}

func newEvalState(u Universe, pivot *ctx.Context) *evalState {
	return &evalState{u: u, pivot: pivot}
}

// lookup returns the innermost binding of name.
func (s *evalState) lookup(name string) (*ctx.Context, bool) {
	for i := len(s.env) - 1; i >= 0; i-- {
		if s.env[i].name == name {
			return s.env[i].c, true
		}
	}
	return nil, false
}

// pivotPositions returns the indices in domain, the domain of kind, of the
// contexts whose ID is the pivot's. s.pivot must be set.
func (s *evalState) pivotPositions(kind ctx.Kind, domain []*ctx.Context) []int {
	for _, p := range s.at {
		if p.kind == kind {
			return p.idx
		}
	}
	var idx []int
	for i, c := range domain {
		if c.ID == s.pivot.ID {
			idx = append(idx, i)
		}
	}
	s.at = append(s.at, pivotAt{kind: kind, idx: idx})
	return idx
}

// Eval evaluates a closed formula against a universe, returning its truth
// value and explanatory links of either polarity. It is the public entry
// point used by the situation engine and by callers outside the checker.
func Eval(f Formula, u Universe) Result {
	return f.eval(newEvalState(u, nil), needBoth)
}

// Formula is a node of the constraint language. Formulas are immutable and
// safe for concurrent evaluation.
type Formula interface {
	// eval computes the truth value under s and, when nd asks for that
	// value's polarity, the explanatory links. With s.pivot set,
	// quantifiers examine only bindings that include the pivot context
	// (incremental mode).
	eval(s *evalState, nd need) Result
	// collectKinds adds every context kind the formula quantifies over.
	collectKinds(kinds map[ctx.Kind]bool)
	// universal reports whether the formula is in the universal fragment
	// (no existential quantifier in positive position, no forall under
	// negation), for which incremental checking is sound.
	universal(negated bool) bool
	// String renders the formula for diagnostics.
	String() string
}

// PredicateFunc decides a predicate over the contexts bound to its
// variables, in declaration order. The slice is only valid for the
// duration of the call.
type PredicateFunc func(bound []*ctx.Context) bool

type predicate struct {
	name string
	fn   PredicateFunc
	vars []string
	// sameSource marks predicates that can only hold when every bound
	// context carries the same Source (StreamAdjacent, StreamWithin).
	// SourceLocal uses it to prove a constraint never relates contexts
	// from different sources, which is what lets the cluster router check
	// it entirely on the shard owning that source.
	sameSource bool
}

// Pred builds an atomic predicate formula named name over the given
// variables. When the predicate is false, the violation link is exactly the
// set of bound contexts; when true, the satisfaction link likewise.
func Pred(name string, fn PredicateFunc, vars ...string) Formula {
	return &predicate{name: name, fn: fn, vars: vars}
}

func (p *predicate) eval(s *evalState, nd need) Result {
	bound := s.bound[:0]
	for _, v := range p.vars {
		c, ok := s.lookup(v)
		if !ok {
			// Unbound variable: treat as violated with an empty link. This
			// is a constraint-authoring error surfaced by Checker.Register.
			if nd&needVio == 0 {
				return Result{}
			}
			return Result{Links: []Link{NewLink()}}
		}
		bound = append(bound, c)
	}
	s.bound = bound
	holds := p.fn(bound)
	if !nd.wants(holds) {
		return Result{Satisfied: holds}
	}
	return Result{Satisfied: holds, Links: []Link{NewLink(bound...)}}
}

func (p *predicate) collectKinds(map[ctx.Kind]bool) {}

func (p *predicate) universal(bool) bool { return true }

func (p *predicate) String() string {
	return p.name + "(" + strings.Join(p.vars, ", ") + ")"
}

type not struct{ f Formula }

// Not negates a formula; links are preserved (the same contexts explain the
// flipped truth value).
func Not(f Formula) Formula { return &not{f: f} }

func (n *not) eval(s *evalState, nd need) Result {
	r := n.f.eval(s, nd.swap())
	r.Satisfied = !r.Satisfied
	return r
}

func (n *not) collectKinds(kinds map[ctx.Kind]bool) { n.f.collectKinds(kinds) }

func (n *not) universal(negated bool) bool { return n.f.universal(!negated) }

func (n *not) String() string { return "not " + n.f.String() }

type and struct{ fs []Formula }

// And conjoins formulas. Violated if any conjunct is violated (links are
// the union over violated conjuncts); satisfied links cross-combine.
func And(fs ...Formula) Formula { return &and{fs: fs} }

func (a *and) eval(s *evalState, nd need) Result {
	var sat, vio []Link
	allSat := true
	for _, f := range a.fs {
		child := nd & needVio
		if allSat {
			child |= nd & needSat
		}
		r := f.eval(s, child)
		if r.Satisfied {
			if allSat && nd&needSat != 0 {
				sat = crossLinks(sat, r.Links)
			}
			continue
		}
		allSat = false
		if nd&needVio == 0 {
			break // violated, and nobody reads why
		}
		vio = append(vio, r.Links...)
	}
	if allSat {
		return Result{Satisfied: true, Links: sat}
	}
	return Result{Satisfied: false, Links: dedupeLinks(vio)}
}

func (a *and) collectKinds(kinds map[ctx.Kind]bool) {
	for _, f := range a.fs {
		f.collectKinds(kinds)
	}
}

func (a *and) universal(negated bool) bool {
	for _, f := range a.fs {
		if !f.universal(negated) {
			return false
		}
	}
	return true
}

func (a *and) String() string { return joinFormulas("and", a.fs) }

type or struct{ fs []Formula }

// Or disjoins formulas. Satisfied if any disjunct is satisfied (links are
// the union over satisfied disjuncts); violation links cross-combine, since
// every disjunct contributes to the failure.
func Or(fs ...Formula) Formula { return &or{fs: fs} }

func (o *or) eval(s *evalState, nd need) Result {
	var sat, vio []Link
	anySat := false
	for _, f := range o.fs {
		child := nd & needSat
		if !anySat {
			child |= nd & needVio
		}
		r := f.eval(s, child)
		if !r.Satisfied {
			if !anySat && nd&needVio != 0 {
				vio = crossLinks(vio, r.Links)
			}
			continue
		}
		anySat = true
		if nd&needSat == 0 {
			break // satisfied, and nobody reads why
		}
		sat = append(sat, r.Links...)
	}
	if anySat {
		return Result{Satisfied: true, Links: dedupeLinks(sat)}
	}
	return Result{Satisfied: false, Links: vio}
}

func (o *or) collectKinds(kinds map[ctx.Kind]bool) {
	for _, f := range o.fs {
		f.collectKinds(kinds)
	}
}

func (o *or) universal(negated bool) bool {
	for _, f := range o.fs {
		if !f.universal(negated) {
			return false
		}
	}
	return true
}

func (o *or) String() string { return joinFormulas("or", o.fs) }

type implies struct{ lhs, rhs Formula }

// Implies builds lhs → rhs. Violated exactly when lhs holds and rhs does
// not; the violation links combine the lhs satisfaction links with the rhs
// violation links, so the inconsistency names every contributing context.
func Implies(lhs, rhs Formula) Formula { return &implies{lhs: lhs, rhs: rhs} }

func (im *implies) eval(s *evalState, nd need) Result {
	// A violated lhs makes the implication hold, explained by the lhs
	// violation links; a satisfied lhs adds its satisfaction links to
	// either outcome. When no satisfaction link is read, as in checking,
	// the lhs is decided without links and evaluated again for them only
	// once the rhs is violated: formulas are pure, so the truth value is
	// the same, and the usual failing guard builds nothing.
	var lhsNeed need
	if nd&needSat != 0 {
		lhsNeed = needBoth
	}
	l := im.lhs.eval(s, lhsNeed)
	if !l.Satisfied {
		return Result{Satisfied: true, Links: l.Links}
	}
	r := im.rhs.eval(s, nd)
	if !nd.wants(r.Satisfied) {
		return Result{Satisfied: r.Satisfied}
	}
	if lhsNeed == 0 {
		l = im.lhs.eval(s, needSat)
	}
	return Result{Satisfied: r.Satisfied, Links: crossLinks(l.Links, r.Links)}
}

func (im *implies) collectKinds(kinds map[ctx.Kind]bool) {
	im.lhs.collectKinds(kinds)
	im.rhs.collectKinds(kinds)
}

func (im *implies) universal(negated bool) bool {
	// lhs is in a negative position (¬lhs ∨ rhs).
	return im.lhs.universal(!negated) && im.rhs.universal(negated)
}

func (im *implies) String() string {
	return "(" + im.lhs.String() + " implies " + im.rhs.String() + ")"
}

type forall struct {
	varName string
	kind    ctx.Kind
	body    Formula
	// bodyKinds holds the kinds quantified inside body: a pivot of any
	// other kind can only be bound by this quantifier.
	bodyKinds map[ctx.Kind]bool
}

// Forall quantifies varName over all contexts of the given kind in the
// universe. Violated if any binding violates the body; the violation links
// are the union over violating bindings.
func Forall(varName string, kind ctx.Kind, body Formula) Formula {
	return &forall{varName: varName, kind: kind, body: body, bodyKinds: FormulaKinds(body)}
}

func (f *forall) eval(s *evalState, nd need) Result {
	domain := s.u.ContextsOfKind(f.kind)
	return f.evalRange(s, nd, domain, 0, len(domain)).result()
}

// forallShard is the raw outcome of evaluating a forall body over a
// contiguous sub-range of its domain: links collected in binding order, not
// yet deduplicated. The parallel evaluator partitions the domain into
// shards, evaluates them concurrently, and merges shards by concatenation
// in domain order, so the final deduplication sees links in exactly the
// sequence the serial evaluator would produce.
type forallShard struct {
	sat, vio []Link
	allSat   bool
}

// result finishes a (fully merged) shard into the forall's Result, applying
// the same deduplication the serial evaluator performs.
func (s forallShard) result() Result {
	if s.allSat {
		return Result{Satisfied: true, Links: dedupeLinks(s.sat)}
	}
	return Result{Satisfied: false, Links: dedupeLinks(s.vio)}
}

// evalRange evaluates the forall body over the bindings domain[lo:hi], a
// contiguous sub-range of the quantifier's domain.
//
// Incremental pruning: with a pivot set, a binding that is not the pivot
// itself only matters if a quantifier below can still bind the pivot;
// otherwise it was already checked before the pivot arrived. When no
// quantifier below ranges over the pivot's kind, only the pivot's own
// bindings are evaluated, found by position instead of by visiting the
// whole range. Once the pivot is bound, the body is evaluated unrestricted.
func (f *forall) evalRange(s *evalState, nd need, domain []*ctx.Context, lo, hi int) forallShard {
	out := forallShard{allSat: true}
	pivot := s.pivot
	slot := len(s.env)
	s.env = append(s.env, binding{name: f.varName})
	if pivot != nil && !f.bodyKinds[pivot.Kind] {
		at := s.pivotPositions(f.kind, domain)
		s.pivot = nil
		for _, i := range at {
			if i >= lo && i < hi && !f.bindOne(s, nd, slot, domain[i], &out) {
				break
			}
		}
	} else {
		for i := lo; i < hi; i++ {
			c := domain[i]
			if pivot != nil && c.ID == pivot.ID {
				s.pivot = nil
			}
			more := f.bindOne(s, nd, slot, c, &out)
			s.pivot = pivot
			if !more {
				break
			}
		}
	}
	s.pivot = pivot
	s.env = s.env[:slot]
	return out
}

// bindOne evaluates the body with the variable's slot bound to c and folds
// the outcome into out. It reports whether evaluation should go on: false once
// the forall is violated and nobody reads why.
func (f *forall) bindOne(s *evalState, nd need, slot int, c *ctx.Context, out *forallShard) bool {
	s.env[slot].c = c
	child := nd & needVio
	if out.allSat {
		child |= nd & needSat
	}
	r := f.body.eval(s, child)
	if r.Satisfied {
		if out.allSat && nd&needSat != 0 {
			out.sat = append(out.sat, r.Links...)
		}
		return true
	}
	out.allSat = false
	out.sat = nil
	out.vio = append(out.vio, r.Links...)
	return nd&needVio != 0
}

func (f *forall) collectKinds(kinds map[ctx.Kind]bool) {
	kinds[f.kind] = true
	f.body.collectKinds(kinds)
}

func (f *forall) universal(negated bool) bool {
	if negated {
		return false // forall under negation is an exists
	}
	return f.body.universal(negated)
}

func (f *forall) String() string {
	return fmt.Sprintf("forall %s:%s . %s", f.varName, f.kind, f.body)
}

type exists struct {
	varName string
	kind    ctx.Kind
	body    Formula
}

// Exists quantifies varName over contexts of the given kind. Satisfied if
// any binding satisfies the body. When violated, the links are the union of
// per-binding violation links (an approximation of the full cross-product,
// which is exponential; documented in the package comment).
func Exists(varName string, kind ctx.Kind, body Formula) Formula {
	return &exists{varName: varName, kind: kind, body: body}
}

func (e *exists) eval(s *evalState, nd need) Result {
	var sat, vio []Link
	anySat := false
	slot := len(s.env)
	s.env = append(s.env, binding{name: e.varName})
	for _, c := range s.u.ContextsOfKind(e.kind) {
		s.env[slot].c = c
		child := nd & needSat
		if !anySat {
			child |= nd & needVio
		}
		r := e.body.eval(s, child)
		if !r.Satisfied {
			if !anySat {
				vio = append(vio, r.Links...)
			}
			continue
		}
		anySat = true
		if nd&needSat == 0 {
			break // satisfied, and nobody reads why
		}
		sat = append(sat, r.Links...)
	}
	s.env = s.env[:slot]
	if anySat {
		return Result{Satisfied: true, Links: dedupeLinks(sat)}
	}
	return Result{Satisfied: false, Links: dedupeLinks(vio)}
}

func (e *exists) collectKinds(kinds map[ctx.Kind]bool) {
	kinds[e.kind] = true
	e.body.collectKinds(kinds)
}

func (e *exists) universal(bool) bool { return false }

func (e *exists) String() string {
	return fmt.Sprintf("exists %s:%s . %s", e.varName, e.kind, e.body)
}

// True is a formula that always holds with an empty link.
func True() Formula {
	return Pred("true", func([]*ctx.Context) bool { return true })
}

// False is a formula that never holds, with an empty link.
func False() Formula {
	return Pred("false", func([]*ctx.Context) bool { return false })
}

func joinFormulas(op string, fs []Formula) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}

// FormulaKinds returns the set of context kinds the formula quantifies
// over. Consumers use it to index formulas by kind so pool deltas touch
// only the formulas that could change truth value.
func FormulaKinds(f Formula) map[ctx.Kind]bool {
	kinds := make(map[ctx.Kind]bool)
	if f != nil {
		f.collectKinds(kinds)
	}
	return kinds
}
