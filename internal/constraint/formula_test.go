package constraint

import (
	"strings"
	"testing"
	"time"

	"ctxres/internal/ctx"
)

var t0 = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

// mkLoc builds a location context at x with a fixed subject/source and a
// sequence number equal to its index, one second apart.
func mkLoc(tb testing.TB, id string, seq uint64, x, y float64) *ctx.Context {
	tb.Helper()
	c := ctx.NewLocation("peter", t0.Add(time.Duration(seq)*time.Second), ctx.Point{X: x, Y: y},
		ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource("tracker"))
	return c
}

func evalClosed(t *testing.T, f Formula, u Universe) Result {
	t.Helper()
	if err := checkClosed(f, map[string]bool{}); err != nil {
		t.Fatalf("formula not closed: %v", err)
	}
	return Eval(f, u)
}

func TestTrueFalse(t *testing.T) {
	u := NewSliceUniverse(nil)
	if r := evalClosed(t, True(), u); !r.Satisfied {
		t.Fatal("True violated")
	}
	if r := evalClosed(t, False(), u); r.Satisfied {
		t.Fatal("False satisfied")
	}
}

func TestPredUnboundVariableViolates(t *testing.T) {
	p := Pred("p", func([]*ctx.Context) bool { return true }, "ghost")
	r := Eval(p, NewSliceUniverse(nil))
	if r.Satisfied {
		t.Fatal("unbound predicate satisfied")
	}
}

func TestForallEmptyDomainVacuouslyTrue(t *testing.T) {
	f := Forall("a", ctx.KindLocation, False())
	if r := evalClosed(t, f, NewSliceUniverse(nil)); !r.Satisfied {
		t.Fatal("forall over empty domain violated")
	}
}

func TestExistsEmptyDomainFalse(t *testing.T) {
	f := Exists("a", ctx.KindLocation, True())
	if r := evalClosed(t, f, NewSliceUniverse(nil)); r.Satisfied {
		t.Fatal("exists over empty domain satisfied")
	}
}

func TestForallViolationLinks(t *testing.T) {
	a := mkLoc(t, "d1", 1, 0, 0)
	b := mkLoc(t, "d2", 2, 100, 0) // far away → predicate false
	u := NewSliceUniverse([]*ctx.Context{a, b})
	near := func(bound []*ctx.Context) bool {
		p, _ := ctx.LocationPoint(bound[0])
		return p.X < 50
	}
	f := Forall("a", ctx.KindLocation, Pred("near", near, "a"))
	r := evalClosed(t, f, u)
	if r.Satisfied {
		t.Fatal("expected violation")
	}
	if len(r.Links) != 1 || !r.Links[0].Contains("d2") || r.Links[0].Len() != 1 {
		t.Fatalf("links = %v, want exactly (d2)", r.Links)
	}
}

func TestNestedForallPairLinks(t *testing.T) {
	// d3 deviates; adjacent pairs (d2,d3) and (d3,d4) violate the velocity
	// constraint — the Figure 1 scenario.
	d1 := mkLoc(t, "d1", 1, 0, 0)
	d2 := mkLoc(t, "d2", 2, 1, 0)
	d3 := mkLoc(t, "d3", 3, 9, 0) // jump
	d4 := mkLoc(t, "d4", 4, 3, 0)
	d5 := mkLoc(t, "d5", 5, 4, 0)
	u := NewSliceUniverse([]*ctx.Context{d1, d2, d3, d4, d5})
	f := Forall("a", ctx.KindLocation, Forall("b", ctx.KindLocation,
		Implies(
			And(SameSubject("a", "b"), StreamAdjacent("a", "b")),
			VelocityBelow("a", "b", 1.5),
		)))
	r := evalClosed(t, f, u)
	if r.Satisfied {
		t.Fatal("expected violations")
	}
	keys := make(map[string]bool)
	for _, l := range r.Links {
		keys[l.Key()] = true
	}
	if len(keys) != 2 || !keys["d2|d3"] || !keys["d3|d4"] {
		t.Fatalf("links = %v, want {(d2,d3),(d3,d4)}", r.Links)
	}
}

func TestImpliesVacuous(t *testing.T) {
	a := mkLoc(t, "d1", 1, 0, 0)
	u := NewSliceUniverse([]*ctx.Context{a})
	f := Forall("a", ctx.KindLocation, Implies(False(), False()))
	if r := evalClosed(t, f, u); !r.Satisfied {
		t.Fatal("implies with false lhs violated")
	}
}

func TestNotFlipsTruth(t *testing.T) {
	a := mkLoc(t, "d1", 1, 0, 0)
	u := NewSliceUniverse([]*ctx.Context{a})
	f := Forall("a", ctx.KindLocation, Not(SubjectIs("a", "peter")))
	r := evalClosed(t, f, u)
	if r.Satisfied {
		t.Fatal("negated true predicate satisfied")
	}
	if len(r.Links) != 1 || !r.Links[0].Contains("d1") {
		t.Fatalf("links = %v", r.Links)
	}
}

func TestAndViolationUnion(t *testing.T) {
	a := mkLoc(t, "d1", 1, 100, 100)
	u := NewSliceUniverse([]*ctx.Context{a})
	f := Forall("a", ctx.KindLocation, And(
		WithinArea("a", Rect{0, 0, 10, 10}),
		SubjectIs("a", "alice"),
	))
	r := evalClosed(t, f, u)
	if r.Satisfied {
		t.Fatal("expected violation")
	}
	// Both conjuncts violated with the same singleton link → dedupes to 1.
	if len(r.Links) != 1 || r.Links[0].Len() != 1 {
		t.Fatalf("links = %v", r.Links)
	}
}

func TestOrSatisfiedByOneDisjunct(t *testing.T) {
	a := mkLoc(t, "d1", 1, 5, 5)
	u := NewSliceUniverse([]*ctx.Context{a})
	f := Forall("a", ctx.KindLocation, Or(
		SubjectIs("a", "alice"),
		WithinArea("a", Rect{0, 0, 10, 10}),
	))
	if r := evalClosed(t, f, u); !r.Satisfied {
		t.Fatal("or violated despite true disjunct")
	}
}

func TestOrViolationCrossLinks(t *testing.T) {
	a := mkLoc(t, "d1", 1, 100, 100)
	u := NewSliceUniverse([]*ctx.Context{a})
	f := Forall("a", ctx.KindLocation, Or(
		SubjectIs("a", "alice"),
		WithinArea("a", Rect{0, 0, 10, 10}),
	))
	r := evalClosed(t, f, u)
	if r.Satisfied {
		t.Fatal("or satisfied with both disjuncts false")
	}
	if len(r.Links) != 1 || !r.Links[0].Contains("d1") {
		t.Fatalf("links = %v", r.Links)
	}
}

func TestExistsSatisfied(t *testing.T) {
	a := mkLoc(t, "d1", 1, 5, 5)
	b := mkLoc(t, "d2", 2, 100, 100)
	u := NewSliceUniverse([]*ctx.Context{a, b})
	f := Exists("a", ctx.KindLocation, WithinArea("a", Rect{0, 0, 10, 10}))
	r := evalClosed(t, f, u)
	if !r.Satisfied {
		t.Fatal("exists violated despite witness")
	}
	if len(r.Links) != 1 || !r.Links[0].Contains("d1") {
		t.Fatalf("witness links = %v", r.Links)
	}
}

func TestUniversalFragmentDetection(t *testing.T) {
	tests := []struct {
		name string
		f    Formula
		want bool
	}{
		{"pred", True(), true},
		{"forall pred", Forall("a", ctx.KindLocation, True()), true},
		{"nested forall implies", Forall("a", ctx.KindLocation,
			Forall("b", ctx.KindLocation, Implies(StreamAdjacent("a", "b"), VelocityBelow("a", "b", 1)))), true},
		{"exists", Exists("a", ctx.KindLocation, True()), false},
		{"not exists", Not(Exists("a", ctx.KindLocation, True())), false},
		{"not forall", Not(Forall("a", ctx.KindLocation, True())), false},
		{"forall under not under not", Not(Not(Forall("a", ctx.KindLocation, True()))), true},
		{"forall in implies lhs", Forall("a", ctx.KindLocation,
			Implies(Forall("b", ctx.KindLocation, True()), True())), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.universal(false); got != tt.want {
				t.Fatalf("universal() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFormulaStrings(t *testing.T) {
	f := Forall("a", ctx.KindLocation, Implies(
		And(SameSubject("a", "a"), Not(Distinct("a", "a"))),
		Or(True(), False()),
	))
	s := f.String()
	for _, want := range []string{"forall a:location", "implies", "sameSubject", "not distinct", "or"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	e := Exists("b", ctx.KindRFIDRead, True())
	if !strings.Contains(e.String(), "exists b:rfid.read") {
		t.Fatalf("String() = %q", e.String())
	}
}

func TestCollectKinds(t *testing.T) {
	f := Forall("a", ctx.KindLocation, Exists("b", ctx.KindRFIDRead,
		And(True(), Not(Implies(True(), False())))))
	kinds := make(map[ctx.Kind]bool)
	f.collectKinds(kinds)
	if !kinds[ctx.KindLocation] || !kinds[ctx.KindRFIDRead] || len(kinds) != 2 {
		t.Fatalf("kinds = %v", kinds)
	}
}
