package rfidmon

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/rfid"
)

var t0 = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

func TestConstraintsRegister(t *testing.T) {
	ch := Checker()
	if got := len(ch.Constraints()); got != 5 {
		t.Fatalf("constraints = %d, want 5", got)
	}
	if !ch.Relevant(ctx.KindRFIDRead) {
		t.Fatal("rfid.read not relevant")
	}
	if ch.Relevant(ctx.KindLocation) {
		t.Fatal("location relevant to the RFID app")
	}
}

func TestSituationsRegister(t *testing.T) {
	if got := len(Engine().Situations()); got != 3 {
		t.Fatalf("situations = %d, want 3", got)
	}
}

func read(id string, seq uint64, at time.Time, tag, zone, reader string) *ctx.Context {
	return ctx.New(ctx.KindRFIDRead, at, map[string]ctx.Value{
		rfid.FieldTag:    ctx.String(tag),
		rfid.FieldZone:   ctx.String(zone),
		rfid.FieldReader: ctx.String(reader),
	}, ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSubject(tag), ctx.WithSource(reader))
}

func TestSingleZoneConstraint(t *testing.T) {
	ch := Checker()
	a := read("a", 1, t0, "item-1", "zone-1", "reader-1")
	b := read("b", 2, t0, "item-1", "zone-3", "reader-3") // same instant, different zone
	vios := ch.Check(constraint.NewSliceUniverse([]*ctx.Context{a, b}))
	if !hasViolation(vios, "rm-single-zone") {
		t.Fatalf("single-zone not violated: %v", vios)
	}
}

func TestNoTeleportConstraint(t *testing.T) {
	ch := Checker()
	a := read("a", 1, t0, "item-1", "zone-1", "reader-1")
	b := read("b", 2, t0.Add(CyclePeriod), "item-1", "zone-4", "reader-4")
	vios := ch.Check(constraint.NewSliceUniverse([]*ctx.Context{a, b}))
	if !hasViolation(vios, "rm-no-teleport") {
		t.Fatalf("teleport not violated: %v", vios)
	}
	// Adjacent zones are fine.
	c := read("c", 3, t0.Add(2*CyclePeriod), "item-1", "zone-3", "reader-3")
	vios = ch.Check(constraint.NewSliceUniverse([]*ctx.Context{b, c}))
	if hasViolation(vios, "rm-no-teleport") {
		t.Fatalf("adjacent move flagged: %v", vios)
	}
}

func TestKnownZoneAndTagConstraints(t *testing.T) {
	ch := Checker()
	ghostZone := read("a", 1, t0, "item-1", "zone-99", "reader-99")
	vios := ch.Check(constraint.NewSliceUniverse([]*ctx.Context{ghostZone}))
	if !hasViolation(vios, "rm-well-formed") {
		t.Fatalf("unknown zone accepted: %v", vios)
	}
	ghostTag := read("b", 2, t0, "item-99", "zone-1", "reader-1")
	vios = ch.Check(constraint.NewSliceUniverse([]*ctx.Context{ghostTag}))
	if !hasViolation(vios, "rm-well-formed") {
		t.Fatalf("unknown tag accepted: %v", vios)
	}
}

func TestReaderZoneBindingConstraint(t *testing.T) {
	ch := Checker()
	mismatch := read("a", 1, t0, "item-1", "zone-1", "reader-2")
	vios := ch.Check(constraint.NewSliceUniverse([]*ctx.Context{mismatch}))
	if !hasViolation(vios, "rm-reader-zone-binding") {
		t.Fatalf("mismatched binding accepted: %v", vios)
	}
	ok := read("b", 2, t0, "item-1", "zone-1", "reader-1")
	vios = ch.Check(constraint.NewSliceUniverse([]*ctx.Context{ok}))
	if hasViolation(vios, "rm-reader-zone-binding") {
		t.Fatalf("matched binding flagged: %v", vios)
	}
}

func TestCleanWorkloadHasNoViolations(t *testing.T) {
	ch := Checker()
	cfg := DefaultWorkload(0)
	cfg.Cycles = 60
	cycles, err := Generate(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var all []*ctx.Context
	for _, cyc := range cycles {
		all = append(all, cyc...)
	}
	if len(all) == 0 {
		t.Fatal("empty workload")
	}
	vios := ch.Check(constraint.NewSliceUniverse(all))
	if len(vios) != 0 {
		t.Fatalf("clean workload produced %d violations, e.g. %v", len(vios), vios[0])
	}
}

func TestCorruptedWorkloadRuleOne(t *testing.T) {
	ch := Checker()
	cfg := DefaultWorkload(0.3)
	cfg.Cycles = 60
	cycles, err := Generate(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var all []*ctx.Context
	corrupted := 0
	for _, cyc := range cycles {
		for _, c := range cyc {
			if c.Truth.Corrupted {
				corrupted++
			}
		}
		all = append(all, cyc...)
	}
	if corrupted < 40 {
		t.Fatalf("only %d corrupted reads at rate 0.3", corrupted)
	}
	vios := ch.Check(constraint.NewSliceUniverse(all))
	if len(vios) == 0 {
		t.Fatal("no violations despite corruption")
	}
	for _, v := range vios {
		any := false
		for _, m := range v.Link.Contexts() {
			if m.Truth.Corrupted {
				any = true
				break
			}
		}
		if !any {
			t.Fatalf("violation %v involves no corrupted read (Rule 1 broken)", v)
		}
	}
}

func TestWorkloadDeterministicPerSeed(t *testing.T) {
	cfg := DefaultWorkload(0.2)
	cfg.Cycles = 30
	a, err := Generate(cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("cycle counts differ")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("cycle %d sizes differ", i)
		}
		for j := range a[i] {
			za, _ := rfid.ReadZone(a[i][j])
			zb, _ := rfid.ReadZone(b[i][j])
			if za != zb || a[i][j].Truth.Corrupted != b[i][j].Truth.Corrupted {
				t.Fatalf("cycle %d read %d differs", i, j)
			}
		}
	}
}

func TestSituationsTrackWatchedItem(t *testing.T) {
	e := Engine()
	home := read("a", 1, t0, WatchedTag, WatchedZone, "reader-1")
	e.Evaluate(constraint.NewSliceUniverse([]*ctx.Context{home}), t0)
	if !e.Active("rm-item-on-shelf") || !e.Active("rm-item-visible") {
		t.Fatal("home situations inactive")
	}
	if e.Active("rm-item-misplaced") {
		t.Fatal("misplaced active at home")
	}
	away := read("b", 2, t0.Add(time.Minute), WatchedTag, "zone-3", "reader-3")
	e.Evaluate(constraint.NewSliceUniverse([]*ctx.Context{away}), t0.Add(time.Minute))
	if !e.Active("rm-item-misplaced") || e.Active("rm-item-on-shelf") {
		t.Fatal("misplaced transition wrong")
	}
}

func hasViolation(vios []constraint.Violation, name string) bool {
	for _, v := range vios {
		if v.Constraint == name {
			return true
		}
	}
	return false
}

// TestZoneAndReaderParseMatchSscanf compares the table-backed zone and
// reader parsers with the fmt.Sscanf parse they replace, on every zone and
// reader name the seeded generator emits plus malformed names.
func TestZoneAndReaderParseMatchSscanf(t *testing.T) {
	oldZone := func(z string) (int, bool) {
		var n int
		_, err := fmt.Sscanf(z, "zone-%d", &n)
		return n, err == nil
	}
	oldReader := func(r string) (int, bool) {
		var n int
		if _, err := fmt.Sscanf(r, "reader-%d", &n); err == nil {
			return n, true
		}
		var alt int
		_, err := fmt.Sscanf(r, "reader-zone-%d", &alt)
		return alt, err == nil
	}
	inputs := []string{"", "zone-", "zone-01", "zone-1x", "zone-+1", "zone--1", "zone-9",
		"reader-zone-3", "reader-", "reader-02", "reader-zone-", "reader-zone-7x", "reader-x"}
	cycles, err := Generate(DefaultWorkload(0.5), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	generated := map[string]bool{}
	for _, cycle := range cycles {
		for _, c := range cycle {
			z, _ := rfid.ReadZone(c)
			r, _ := c.StrField(rfid.FieldReader)
			generated[z], generated[r] = true, true
		}
	}
	if !generated["reader-zone-1"] && !generated["reader-zone-2"] {
		t.Fatalf("generator emitted no corrupted reader names: %v", generated)
	}
	for s := range generated {
		inputs = append(inputs, s)
	}
	for _, s := range inputs {
		wn, wok := oldZone(s)
		gn, gok := zoneNumber(s)
		if wok != gok || (wok && wn != gn) {
			t.Errorf("zoneNumber(%q) = %d, %v; Sscanf gives %d, %v", s, gn, gok, wn, wok)
		}
		wn, wok = oldReader(s)
		gn, gok = readerZone(s)
		if wok != gok || (wok && wn != gn) {
			t.Errorf("readerZone(%q) = %d, %v; Sscanf gives %d, %v", s, gn, gok, wn, wok)
		}
	}
}
