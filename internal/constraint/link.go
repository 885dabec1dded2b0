// Package constraint implements the consistency-constraint language used to
// detect context inconsistencies: first-order formulas (forall, exists, and,
// or, implies, not) over typed predicates, evaluated against a universe of
// contexts. Evaluation produces *links* — the minimal sets of contexts that
// explain why a formula is satisfied or violated — following the semantics
// of Xu & Cheung, "Inconsistency Detection and Resolution for Context-Aware
// Middleware Support" (ESEC/FSE 2005). A violated constraint's links are the
// context inconsistencies the resolution strategies of this repository
// operate on.
//
// The package also provides the incremental checking mode of Xu, Cheung &
// Chan, "Incremental Consistency Checking for Pervasive Context" (ICSE
// 2006): when a new context arrives, only variable bindings involving that
// context are (re-)examined. Incremental mode is sound for the universal
// fragment (no exists); Checker verifies this at registration time.
//
// Evaluation costs a predicate call per examined binding. Quantifiers bind
// their variable in place, in a stack of binding slots that one evaluation
// reuses throughout. In incremental mode a quantifier under which no
// quantifier can bind the added context evaluates that context's own
// binding alone, found by position, instead of visiting its whole domain.
// Each node is told which links its caller reads (satisfaction, violation,
// both or neither) and builds only those: the checker reads violation
// links alone, while Eval returns both. A link holds the handful of
// contexts one binding involves, so it is canonicalized by sorting,
// without a map.
package constraint

import (
	"cmp"
	"slices"
	"strings"

	"ctxres/internal/ctx"
)

// Link is a set of contexts that together explain a truth value: for a
// violated constraint, the contexts forming one inconsistency. Links are
// canonical: contexts sorted by ID, no duplicates.
type Link struct {
	contexts []*ctx.Context
}

// NewLink builds a canonical link from the given contexts. Nil entries are
// dropped; duplicates (by ID) collapse to their first occurrence.
func NewLink(contexts ...*ctx.Context) Link {
	out := make([]*ctx.Context, 0, len(contexts))
	for _, c := range contexts {
		if c != nil {
			out = append(out, c)
		}
	}
	return canonical(out)
}

// canonical sorts the non-nil contexts by ID in place and keeps the first
// occurrence of each ID. The stable sort keeps equal IDs in argument
// order, and links hold a handful of contexts, so no map is needed to
// find duplicates.
func canonical(cs []*ctx.Context) Link {
	slices.SortStableFunc(cs, func(a, b *ctx.Context) int { return cmp.Compare(a.ID, b.ID) })
	return Link{contexts: slices.CompactFunc(cs, func(a, b *ctx.Context) bool { return a.ID == b.ID })}
}

// Contexts returns the member contexts in canonical (ID) order. The caller
// must not mutate the returned slice.
func (l Link) Contexts() []*ctx.Context { return l.contexts }

// Len returns the number of member contexts.
func (l Link) Len() int { return len(l.contexts) }

// Contains reports whether the link includes the context with the given ID.
func (l Link) Contains(id ctx.ID) bool {
	for _, c := range l.contexts {
		if c.ID == id {
			return true
		}
	}
	return false
}

// Key returns a canonical string identity for the link, suitable as a map
// key for deduplication.
func (l Link) Key() string {
	var b strings.Builder
	for i, c := range l.contexts {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(string(c.ID))
	}
	return b.String()
}

// Union returns the canonical union of two links.
func (l Link) Union(o Link) Link {
	merged := make([]*ctx.Context, 0, len(l.contexts)+len(o.contexts))
	merged = append(merged, l.contexts...)
	merged = append(merged, o.contexts...)
	return canonical(merged)
}

// String renders the link as a sorted ID tuple.
func (l Link) String() string {
	ids := make([]string, len(l.contexts))
	for i, c := range l.contexts {
		ids[i] = string(c.ID)
	}
	return "(" + strings.Join(ids, ", ") + ")"
}

// LinkSet is an order-preserving set of links keyed by canonical identity.
type LinkSet struct {
	order []Link
	seen  map[string]bool
}

// NewLinkSet builds a set from the given links, deduplicating.
func NewLinkSet(links ...Link) *LinkSet {
	s := &LinkSet{seen: make(map[string]bool, len(links))}
	for _, l := range links {
		s.Add(l)
	}
	return s
}

// Add inserts the link if absent; reports whether it was inserted.
func (s *LinkSet) Add(l Link) bool {
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	k := l.Key()
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	s.order = append(s.order, l)
	return true
}

// Links returns the member links in insertion order. The caller must not
// mutate the returned slice.
func (s *LinkSet) Links() []Link { return s.order }

// Len returns the number of distinct links.
func (s *LinkSet) Len() int { return len(s.order) }

// dedupeLinks canonicalizes a slice of links preserving first occurrence.
func dedupeLinks(links []Link) []Link {
	if len(links) <= 1 {
		return links
	}
	return NewLinkSet(links...).Links()
}

// crossLinks combines every link in a with every link in b (union per
// pair). It caps the output at maxCrossLinks to bound blow-up on deeply
// disjunctive formulas; our bundled constraints never hit the cap.
func crossLinks(a, b []Link) []Link {
	const maxCrossLinks = 1024
	if len(a) == 0 {
		return dedupeLinks(b)
	}
	if len(b) == 0 {
		return dedupeLinks(a)
	}
	out := make([]Link, 0, min(len(a)*len(b), maxCrossLinks))
	for _, la := range a {
		for _, lb := range b {
			if len(out) >= maxCrossLinks {
				return dedupeLinks(out)
			}
			out = append(out, la.Union(lb))
		}
	}
	return dedupeLinks(out)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
