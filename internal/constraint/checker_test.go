package constraint

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ctxres/internal/ctx"
)

// velocityConstraint is the paper's running example: for stream-adjacent
// location pairs of the same subject, the implied walking speed must stay
// under limit. reach > 1 also covers pairs separated by intermediate
// locations (Section 3.1's refined constraint).
func velocityConstraint(name string, reach uint64, limit float64) *Constraint {
	return &Constraint{
		Name: name,
		Doc:  "walking velocity from location changes must stay below the limit",
		Formula: Forall("a", ctx.KindLocation, Forall("b", ctx.KindLocation,
			Implies(
				And(SameSubject("a", "b"), StreamWithin("a", "b", reach)),
				VelocityBelow("a", "b", limit),
			))),
	}
}

func TestRegisterValidation(t *testing.T) {
	t.Run("nil constraint", func(t *testing.T) {
		ch := NewChecker()
		if err := ch.Register(nil); !errors.Is(err, ErrNilFormula) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("nil formula", func(t *testing.T) {
		ch := NewChecker()
		if err := ch.Register(&Constraint{Name: "x"}); !errors.Is(err, ErrNilFormula) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("empty name", func(t *testing.T) {
		ch := NewChecker()
		if err := ch.Register(&Constraint{Formula: True()}); !errors.Is(err, ErrNoName) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate name", func(t *testing.T) {
		ch := NewChecker()
		if err := ch.Register(&Constraint{Name: "c", Formula: True()}); err != nil {
			t.Fatal(err)
		}
		if err := ch.Register(&Constraint{Name: "c", Formula: True()}); !errors.Is(err, ErrDupName) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("free variable", func(t *testing.T) {
		ch := NewChecker()
		c := &Constraint{Name: "c", Formula: SubjectIs("ghost", "p")}
		if err := ch.Register(c); !errors.Is(err, ErrFreeVar) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("shadowed variable", func(t *testing.T) {
		ch := NewChecker()
		c := &Constraint{Name: "c", Formula: Forall("a", ctx.KindLocation,
			Forall("a", ctx.KindLocation, True()))}
		if err := ch.Register(c); !errors.Is(err, ErrShadowedVar) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("shadow across branches allowed", func(t *testing.T) {
		ch := NewChecker()
		c := &Constraint{Name: "c", Formula: And(
			Forall("a", ctx.KindLocation, SubjectIs("a", "p")),
			Forall("a", ctx.KindLocation, SubjectIs("a", "q")),
		)}
		if err := ch.Register(c); err != nil {
			t.Fatalf("sibling reuse rejected: %v", err)
		}
	})
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewChecker().MustRegister(&Constraint{})
}

func TestRelevant(t *testing.T) {
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 1, 1.5))
	if !ch.Relevant(ctx.KindLocation) {
		t.Fatal("location not relevant")
	}
	if ch.Relevant(ctx.KindRFIDRead) {
		t.Fatal("rfid relevant")
	}
	before := ch.Kinds()
	ch.MustRegister(&Constraint{Name: "reads", Formula: Forall("r", ctx.KindRFIDRead, True())})
	if !ch.Relevant(ctx.KindRFIDRead) || !ch.Kinds()[ctx.KindRFIDRead] || !ch.Kinds()[ctx.KindLocation] {
		t.Fatalf("after a second Register: Kinds() = %v", ch.Kinds())
	}
	if len(before) != 1 || !before[ctx.KindLocation] {
		t.Fatalf("Register changed the map Kinds returned earlier: %v", before)
	}
}

func TestConstraintsCopy(t *testing.T) {
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 1, 1.5))
	got := ch.Constraints()
	if len(got) != 1 || got[0].Name != "vel" {
		t.Fatalf("Constraints = %v", got)
	}
	got[0] = nil // must not affect internal state
	if ch.Constraints()[0] == nil {
		t.Fatal("internal slice exposed")
	}
}

// figure1Universe reproduces the five tracked locations of Figure 1,
// Scenario A: d3 deviates so that adjacent pairs (d2,d3) and (d3,d4)
// breach the velocity limit.
func figure1Universe(t *testing.T) (*SliceUniverse, []*ctx.Context) {
	t.Helper()
	// Walking at 1 m/s; limit 1.5 m/s. d3 jumps 8 m in 1 s.
	pts := []ctx.Point{{X: 0}, {X: 1}, {X: 9}, {X: 3}, {X: 4}}
	cs := make([]*ctx.Context, 5)
	ids := []string{"d1", "d2", "d3", "d4", "d5"}
	for i, p := range pts {
		cs[i] = mkLoc(t, ids[i], uint64(i+1), p.X, p.Y)
	}
	return NewSliceUniverse(cs), cs
}

func TestCheckScenarioAAdjacent(t *testing.T) {
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 1, 1.5))
	u, _ := figure1Universe(t)
	vios := ch.Check(u)
	keys := violationKeys(vios)
	want := []string{"d2|d3", "d3|d4"}
	if !equalStrings(keys, want) {
		t.Fatalf("violations = %v, want %v", keys, want)
	}
}

func TestCheckScenarioARefinedConstraint(t *testing.T) {
	// Section 3.1: with reach 2 the checker also catches (d1,d3) and
	// (d3,d5), giving d3 a count value of 4.
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 2, 1.5))
	u, _ := figure1Universe(t)
	vios := ch.Check(u)
	keys := violationKeys(vios)
	want := []string{"d1|d3", "d2|d3", "d3|d4", "d3|d5"}
	if !equalStrings(keys, want) {
		t.Fatalf("violations = %v, want %v", keys, want)
	}
}

func TestCheckAdditionIncrementalOnlyNewViolations(t *testing.T) {
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 1, 1.5))
	_, cs := figure1Universe(t)
	// Add contexts one at a time; collect violations per addition.
	var present []*ctx.Context
	additions := make(map[string][]string)
	for _, c := range cs {
		present = append(present, c)
		u := NewSliceUniverse(present)
		vios := ch.CheckAddition(u, c)
		additions[string(c.ID)] = violationKeys(vios)
	}
	if len(additions["d1"]) != 0 || len(additions["d2"]) != 0 {
		t.Fatalf("early additions flagged: %v", additions)
	}
	if !equalStrings(additions["d3"], []string{"d2|d3"}) {
		t.Fatalf("d3 additions = %v", additions["d3"])
	}
	if !equalStrings(additions["d4"], []string{"d3|d4"}) {
		t.Fatalf("d4 additions = %v", additions["d4"])
	}
	if len(additions["d5"]) != 0 {
		t.Fatalf("d5 additions = %v", additions["d5"])
	}
}

func TestCheckAdditionSkipsIrrelevantKind(t *testing.T) {
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 1, 1.5))
	u, _ := figure1Universe(t)
	other := ctx.New(ctx.KindRFIDRead, t0, nil, ctx.WithID("r1"))
	if vios := ch.CheckAddition(u, other); len(vios) != 0 {
		t.Fatalf("violations = %v", vios)
	}
	if vios := ch.CheckAddition(u, nil); vios != nil {
		t.Fatalf("nil addition produced %v", vios)
	}
}

// TestCheckAdditionExaminesPairsWithPivot counts the pairs an incremental
// check of a two-variable constraint examines: with the added context
// bound first, every pair; with any other context bound first, only the
// pair binding the added context second. Over N contexts that is 2N-1
// pairs, whichever context was added, not the N*N of a full check.
func TestCheckAdditionExaminesPairsWithPivot(t *testing.T) {
	const n = 40
	examined := 0
	ch := NewChecker()
	ch.MustRegister(&Constraint{Name: "pairs", Formula: Forall("a", ctx.KindLocation,
		Forall("b", ctx.KindLocation, Implies(
			Pred("counted", func([]*ctx.Context) bool { examined++; return true }, "a", "b"),
			True())))})
	var cs []*ctx.Context
	for i := 0; i < n; i++ {
		cs = append(cs, mkLoc(t, fmt.Sprintf("l%02d", i), uint64(i), float64(i), 0))
	}
	u := NewSliceUniverse(cs)
	for _, added := range []*ctx.Context{cs[0], cs[n/2], cs[n-1]} {
		examined = 0
		ch.CheckAddition(u, added)
		if examined != 2*n-1 {
			t.Fatalf("addition of %s examined %d pairs, want %d", added.ID, examined, 2*n-1)
		}
	}
	examined = 0
	ch.Check(u)
	if examined != n*n {
		t.Fatalf("full check examined %d pairs, want %d", examined, n*n)
	}
}

func TestCheckAdditionNonUniversalFallback(t *testing.T) {
	// An existential constraint: "some location for peter exists inside
	// the building" — not universal, so CheckAddition falls back to a full
	// check filtered to links containing the new context.
	ch := NewChecker()
	ch.MustRegister(&Constraint{
		Name: "someInside",
		Formula: Exists("a", ctx.KindLocation,
			WithinArea("a", Rect{0, 0, 10, 10})),
	})
	out := mkLoc(t, "far", 1, 100, 100)
	u := NewSliceUniverse([]*ctx.Context{out})
	vios := ch.CheckAddition(u, out)
	if len(vios) != 1 || !vios[0].Link.Contains("far") {
		t.Fatalf("violations = %v", vios)
	}
	// Adding a context inside the area satisfies it: no violations.
	in := mkLoc(t, "in", 2, 5, 5)
	u2 := NewSliceUniverse([]*ctx.Context{out, in})
	if vios := ch.CheckAddition(u2, in); len(vios) != 0 {
		t.Fatalf("violations = %v", vios)
	}
}

// Property: for universal-fragment constraints, the union of incremental
// violations over a whole addition sequence equals the final full check,
// and each incremental batch contains only links involving the addition.
func TestIncrementalEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ch := NewChecker()
	ch.MustRegister(velocityConstraint("vel", 2, 1.5))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		cs := make([]*ctx.Context, 0, n)
		x := 0.0
		for i := 0; i < n; i++ {
			x += rng.Float64() // nominal walk ≤ 1 m/s
			if rng.Float64() < 0.3 {
				x += 5 + rng.Float64()*10 // corruption: jump
			}
			id := string(rune('a' + i))
			cs = append(cs, mkLoc(t, id, uint64(i+1), x, 0))
		}
		incremental := NewLinkSet()
		for i := range cs {
			u := NewSliceUniverse(cs[:i+1])
			for _, v := range ch.CheckAddition(u, cs[i]) {
				if !v.Link.Contains(cs[i].ID) {
					t.Fatalf("trial %d: incremental link %v excludes addition %s",
						trial, v.Link, cs[i].ID)
				}
				incremental.Add(v.Link)
			}
		}
		full := NewLinkSet()
		for _, v := range ch.Check(NewSliceUniverse(cs)) {
			full.Add(v.Link)
		}
		if incremental.Len() != full.Len() {
			t.Fatalf("trial %d: incremental %d links, full %d links",
				trial, incremental.Len(), full.Len())
		}
		for _, l := range full.Links() {
			if !incremental.Add(l) {
				continue // already present — good
			}
			t.Fatalf("trial %d: full link %v missing from incremental set", trial, l)
		}
	}
}

func violationKeys(vios []Violation) []string {
	keys := make([]string, 0, len(vios))
	for _, v := range vios {
		keys = append(keys, v.Link.Key())
	}
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestViolationString(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	v := Violation{Constraint: "vel", Link: NewLink(a)}
	if v.String() != "vel(a)" {
		t.Fatalf("String = %q", v.String())
	}
}
