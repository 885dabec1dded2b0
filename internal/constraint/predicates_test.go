package constraint

import (
	"testing"
	"time"

	"ctxres/internal/ctx"
)

// evalPred evaluates a one- or two-variable predicate formula against
// explicit bindings.
func evalPred(t *testing.T, f Formula, bindings map[string]*ctx.Context) bool {
	t.Helper()
	s := newEvalState(NewSliceUniverse(nil), nil)
	for k, v := range bindings {
		s.env = append(s.env, binding{name: k, c: v})
	}
	return f.eval(s, needBoth).Satisfied
}

func TestSameSubject(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	b := mkLoc(t, "b", 2, 0, 0)
	if !evalPred(t, SameSubject("x", "y"), map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("same subject rejected")
	}
	other := ctx.NewLocation("alice", t0, ctx.Point{}, ctx.WithID("c"))
	if evalPred(t, SameSubject("x", "y"), map[string]*ctx.Context{"x": a, "y": other}) {
		t.Fatal("different subjects accepted")
	}
	anonA := ctx.New(ctx.KindPresence, t0, nil, ctx.WithID("p1"))
	anonB := ctx.New(ctx.KindPresence, t0, nil, ctx.WithID("p2"))
	if evalPred(t, SameSubject("x", "y"), map[string]*ctx.Context{"x": anonA, "y": anonB}) {
		t.Fatal("empty subjects treated as same")
	}
}

func TestDistinct(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	b := mkLoc(t, "b", 2, 0, 0)
	if !evalPred(t, Distinct("x", "y"), map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("distinct rejected")
	}
	if evalPred(t, Distinct("x", "y"), map[string]*ctx.Context{"x": a, "y": a}) {
		t.Fatal("same context accepted")
	}
}

func TestBefore(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	b := mkLoc(t, "b", 2, 0, 0)
	if !evalPred(t, Before("x", "y"), map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("earlier rejected")
	}
	if evalPred(t, Before("x", "y"), map[string]*ctx.Context{"x": b, "y": a}) {
		t.Fatal("later accepted")
	}
	// Equal timestamps: Seq breaks the tie.
	c1 := ctx.NewLocation("p", t0, ctx.Point{}, ctx.WithID("c1"), ctx.WithSeq(1))
	c2 := ctx.NewLocation("p", t0, ctx.Point{}, ctx.WithID("c2"), ctx.WithSeq(2))
	if !evalPred(t, Before("x", "y"), map[string]*ctx.Context{"x": c1, "y": c2}) {
		t.Fatal("seq tiebreak failed")
	}
	if evalPred(t, Before("x", "y"), map[string]*ctx.Context{"x": c1, "y": c1}) {
		t.Fatal("context before itself")
	}
}

func TestWithinGap(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	b := mkLoc(t, "b", 3, 0, 0) // 2 s later
	f := WithinGap("x", "y", 2*time.Second)
	if !evalPred(t, f, map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("2s gap rejected with 2s limit")
	}
	if !evalPred(t, f, map[string]*ctx.Context{"x": b, "y": a}) {
		t.Fatal("gap not symmetric")
	}
	g := WithinGap("x", "y", time.Second)
	if evalPred(t, g, map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("2s gap accepted with 1s limit")
	}
}

func TestStreamAdjacent(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	b := mkLoc(t, "b", 2, 0, 0)
	c := mkLoc(t, "c", 3, 0, 0)
	if !evalPred(t, StreamAdjacent("x", "y"), map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("adjacent rejected")
	}
	if evalPred(t, StreamAdjacent("x", "y"), map[string]*ctx.Context{"x": a, "y": c}) {
		t.Fatal("gap-2 accepted")
	}
	if evalPred(t, StreamAdjacent("x", "y"), map[string]*ctx.Context{"x": b, "y": a}) {
		t.Fatal("reverse accepted")
	}
	foreign := ctx.NewLocation("peter", t0, ctx.Point{}, ctx.WithID("f"),
		ctx.WithSeq(2), ctx.WithSource("other"))
	if evalPred(t, StreamAdjacent("x", "y"), map[string]*ctx.Context{"x": a, "y": foreign}) {
		t.Fatal("cross-source accepted")
	}
}

func TestStreamWithin(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	c := mkLoc(t, "c", 3, 0, 0)
	d := mkLoc(t, "d", 4, 0, 0)
	if !evalPred(t, StreamWithin("x", "y", 2), map[string]*ctx.Context{"x": a, "y": c}) {
		t.Fatal("reach-2 rejected")
	}
	if evalPred(t, StreamWithin("x", "y", 2), map[string]*ctx.Context{"x": a, "y": d}) {
		t.Fatal("reach-3 accepted at limit 2")
	}
	if evalPred(t, StreamWithin("x", "y", 2), map[string]*ctx.Context{"x": c, "y": a}) {
		t.Fatal("reverse accepted")
	}
}

func TestVelocityBelow(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	b := mkLoc(t, "b", 2, 1, 0) // 1 m in 1 s
	fast := mkLoc(t, "f", 2, 10, 0)
	f := VelocityBelow("x", "y", 1.5)
	if !evalPred(t, f, map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("1 m/s rejected at limit 1.5")
	}
	if evalPred(t, f, map[string]*ctx.Context{"x": a, "y": fast}) {
		t.Fatal("10 m/s accepted at limit 1.5")
	}
	// Undefined velocity (same timestamp) vacuously satisfies.
	twin := ctx.NewLocation("peter", a.Timestamp, ctx.Point{X: 100}, ctx.WithID("t"))
	if !evalPred(t, f, map[string]*ctx.Context{"x": a, "y": twin}) {
		t.Fatal("undefined velocity violated")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	tests := []struct {
		p    ctx.Point
		want bool
	}{
		{ctx.Point{X: 5, Y: 2}, true},
		{ctx.Point{X: 0, Y: 0}, true},
		{ctx.Point{X: 10, Y: 5}, true},
		{ctx.Point{X: -0.1, Y: 2}, false},
		{ctx.Point{X: 5, Y: 5.1}, false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestWithinAndOutsideArea(t *testing.T) {
	area := Rect{0, 0, 10, 10}
	in := mkLoc(t, "in", 1, 5, 5)
	out := mkLoc(t, "out", 2, 50, 50)
	if !evalPred(t, WithinArea("x", area), map[string]*ctx.Context{"x": in}) {
		t.Fatal("inside rejected")
	}
	if evalPred(t, WithinArea("x", area), map[string]*ctx.Context{"x": out}) {
		t.Fatal("outside accepted")
	}
	if !evalPred(t, OutsideArea("x", area), map[string]*ctx.Context{"x": out}) {
		t.Fatal("outside rejected by OutsideArea")
	}
	if evalPred(t, OutsideArea("x", area), map[string]*ctx.Context{"x": in}) {
		t.Fatal("inside accepted by OutsideArea")
	}
	// Non-location contexts vacuously satisfy both.
	p := ctx.New(ctx.KindPresence, t0, nil, ctx.WithID("p"))
	if !evalPred(t, WithinArea("x", area), map[string]*ctx.Context{"x": p}) ||
		!evalPred(t, OutsideArea("x", area), map[string]*ctx.Context{"x": p}) {
		t.Fatal("non-location context not vacuous")
	}
}

func TestFieldEquals(t *testing.T) {
	c := ctx.New(ctx.KindRFIDRead, t0, map[string]ctx.Value{"tag": ctx.String("T1")},
		ctx.WithID("r"))
	if !evalPred(t, FieldEquals("x", "tag", ctx.String("T1")), map[string]*ctx.Context{"x": c}) {
		t.Fatal("equal field rejected")
	}
	if evalPred(t, FieldEquals("x", "tag", ctx.String("T2")), map[string]*ctx.Context{"x": c}) {
		t.Fatal("different field accepted")
	}
	if evalPred(t, FieldEquals("x", "missing", ctx.String("T1")), map[string]*ctx.Context{"x": c}) {
		t.Fatal("missing field accepted")
	}
}

func TestFieldsDifferAndEqual(t *testing.T) {
	a := ctx.New(ctx.KindRFIDRead, t0, map[string]ctx.Value{"zone": ctx.String("A")}, ctx.WithID("a"))
	b := ctx.New(ctx.KindRFIDRead, t0, map[string]ctx.Value{"zone": ctx.String("B")}, ctx.WithID("b"))
	sameAsA := ctx.New(ctx.KindRFIDRead, t0, map[string]ctx.Value{"zone": ctx.String("A")}, ctx.WithID("c"))
	none := ctx.New(ctx.KindRFIDRead, t0, nil, ctx.WithID("d"))

	env := func(x, y *ctx.Context) map[string]*ctx.Context {
		return map[string]*ctx.Context{"x": x, "y": y}
	}
	if !evalPred(t, FieldsDiffer("x", "y", "zone"), env(a, b)) {
		t.Fatal("differing zones rejected")
	}
	if evalPred(t, FieldsDiffer("x", "y", "zone"), env(a, sameAsA)) {
		t.Fatal("equal zones accepted by FieldsDiffer")
	}
	if !evalPred(t, FieldsDiffer("x", "y", "zone"), env(a, none)) {
		t.Fatal("missing field not vacuous for FieldsDiffer")
	}
	if !evalPred(t, FieldsEqual("x", "y", "zone"), env(a, sameAsA)) {
		t.Fatal("equal zones rejected by FieldsEqual")
	}
	if evalPred(t, FieldsEqual("x", "y", "zone"), env(a, none)) {
		t.Fatal("missing field satisfied FieldsEqual")
	}
}

func TestDistBelow(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	b := mkLoc(t, "b", 2, 3, 4) // 5 m away
	if !evalPred(t, DistBelow("x", "y", 5), map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("5 m rejected at limit 5")
	}
	if evalPred(t, DistBelow("x", "y", 4.9), map[string]*ctx.Context{"x": a, "y": b}) {
		t.Fatal("5 m accepted at limit 4.9")
	}
	p := ctx.New(ctx.KindPresence, t0, nil, ctx.WithID("p"))
	if !evalPred(t, DistBelow("x", "y", 1), map[string]*ctx.Context{"x": a, "y": p}) {
		t.Fatal("non-location not vacuous")
	}
}

func TestSubjectIsAndKindIs(t *testing.T) {
	a := mkLoc(t, "a", 1, 0, 0)
	if !evalPred(t, SubjectIs("x", "peter"), map[string]*ctx.Context{"x": a}) {
		t.Fatal("subject rejected")
	}
	if evalPred(t, SubjectIs("x", "alice"), map[string]*ctx.Context{"x": a}) {
		t.Fatal("wrong subject accepted")
	}
	if !evalPred(t, KindIs("x", ctx.KindLocation), map[string]*ctx.Context{"x": a}) {
		t.Fatal("kind rejected")
	}
	if evalPred(t, KindIs("x", ctx.KindRFIDRead), map[string]*ctx.Context{"x": a}) {
		t.Fatal("wrong kind accepted")
	}
}
