// Package rfidmon implements the RFID data anomalies application of the
// paper's experiments, adapted from the RFID data-cleansing settings of
// Jeffery et al. and Rao et al. (VLDB 2006): tagged items sit on monitored
// shelves, readers produce noisy read streams, and the application reacts
// to stock situations. Its five consistency constraints encode RFID
// plausibility requirements; its three situations drive shelf monitoring.
package rfidmon

import (
	"fmt"
	"math/rand"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/errmodel"
	"ctxres/internal/rfid"
	"ctxres/internal/situation"
)

// Deployment parameters for the bundled scenario.
const (
	// Zones is the number of shelf zones (one reader each).
	Zones = 4
	// ZonePitch is the distance between neighbouring readers in metres.
	ZonePitch = 10
	// ReaderRange is each reader's read radius in metres.
	ReaderRange = 4
	// Tags is the number of tagged items.
	Tags = 6
	// CyclePeriod is the inventory period.
	CyclePeriod = 2 * time.Second
	// ContextTTL is each read context's available period: a read stops
	// driving situations three inventory rounds after it was taken.
	ContextTTL = 3 * CyclePeriod
	// WatchedTag is the item the situations track.
	WatchedTag = "item-1"
	// WatchedZone is where the watched item belongs.
	WatchedZone = "zone-1"
	// GhostFactor scales the per-reader ghost-read probability relative to
	// the controlled error rate. Ghost reads are coin-flip ambiguous (a
	// same-instant zone conflict carries no count information), so they are
	// kept a minority of the injected errors.
	GhostFactor = 0.5
	// MissRate is the per-read false-negative probability. Missed reads
	// matter beyond realism: a corrupted read whose predecessor was missed
	// slips past the arrival-time check and only conflicts with the *next*
	// cycle's read — the Scenario-B pattern that separates drop-latest
	// from drop-bad.
	MissRate = 0.35
)

// zoneNames lists the deployment's zones.
func zoneNames() []string {
	names := make([]string, Zones)
	for i := range names {
		names[i] = fmt.Sprintf("zone-%d", i+1)
	}
	return names
}

// Constraints returns the application's five consistency constraints over
// rfid.read contexts.
func Constraints() []*constraint.Constraint {
	samePair := func(gap time.Duration) constraint.Formula {
		return constraint.And(
			constraint.SameSubject("a", "b"), // same tag
			constraint.Distinct("a", "b"),
			constraint.WithinGap("a", "b", gap),
		)
	}
	teleport := func(name string, gap time.Duration) *constraint.Constraint {
		return &constraint.Constraint{
			Name: name,
			Doc: "a tag's reads within the gap stay in the same or an adjacent " +
				"zone (Section 3.1-style refinement: the longer gap examines " +
				"non-adjacent read pairs too, sharpening count values)",
			Formula: constraint.Forall("a", ctx.KindRFIDRead,
				constraint.Forall("b", ctx.KindRFIDRead,
					constraint.Implies(
						constraint.And(samePair(gap),
							constraint.Before("a", "b")),
						zonesAdjacent("a", "b")))),
		}
	}
	return []*constraint.Constraint{
		{
			Name: "rm-single-zone",
			Doc:  "a tag cannot be read in two different zones within one cycle",
			Formula: constraint.Forall("a", ctx.KindRFIDRead,
				constraint.Forall("b", ctx.KindRFIDRead,
					constraint.Implies(samePair(CyclePeriod/2),
						constraint.FieldsEqual("a", "b", rfid.FieldZone)))),
		},
		teleport("rm-no-teleport", CyclePeriod+CyclePeriod/2),
		teleport("rm-no-teleport-skip1", 2*CyclePeriod+CyclePeriod/2),
		{
			Name: "rm-well-formed",
			Doc:  "every read reports a deployed zone and a deployed tag",
			Formula: constraint.Forall("a", ctx.KindRFIDRead,
				constraint.And(knownZone("a"), knownTag("a"))),
		},
		{
			Name: "rm-reader-zone-binding",
			Doc:  "the reporting reader matches the zone it monitors",
			Formula: constraint.Forall("a", ctx.KindRFIDRead,
				readerMatchesZone("a")),
		},
	}
}

// zonesAdjacent holds when the two reads' zones are equal or neighbouring
// (zone-i and zone-i±1).
func zonesAdjacent(a, b string) constraint.Formula {
	return constraint.Pred("zonesAdjacent", func(bound []*ctx.Context) bool {
		za, okA := rfid.ReadZone(bound[0])
		zb, okB := rfid.ReadZone(bound[1])
		if !okA || !okB {
			return true
		}
		ia, okA := zoneNumber(za)
		ib, okB := zoneNumber(zb)
		if !okA || !okB {
			return true // unparseable zones are rm-known-zone's business
		}
		d := ia - ib
		return d >= -1 && d <= 1
	}, a, b)
}

// knownZone holds when the read's zone is one of the deployed zones.
func knownZone(a string) constraint.Formula {
	known := make(map[string]bool, Zones)
	for _, z := range zoneNames() {
		known[z] = true
	}
	return constraint.Pred("knownZone", func(bound []*ctx.Context) bool {
		z, ok := rfid.ReadZone(bound[0])
		return ok && known[z]
	}, a)
}

// knownTag holds when the read's tag is one of the deployed tags.
func knownTag(a string) constraint.Formula {
	known := make(map[string]bool, Tags)
	for i := 1; i <= Tags; i++ {
		known[fmt.Sprintf("item-%d", i)] = true
	}
	return constraint.Pred("knownTag", func(bound []*ctx.Context) bool {
		tag, ok := rfid.ReadTag(bound[0])
		return ok && known[tag]
	}, a)
}

// readerMatchesZone holds when the reporting reader monitors the reported
// zone (reader-i ↔ zone-i).
func readerMatchesZone(a string) constraint.Formula {
	return constraint.Pred("readerMatchesZone", func(bound []*ctx.Context) bool {
		z, okZ := rfid.ReadZone(bound[0])
		r, okR := bound[0].StrField(rfid.FieldReader)
		if !okZ || !okR {
			return false
		}
		iz, ok := zoneNumber(z)
		if !ok {
			return true
		}
		ir, ok := readerZone(r)
		return ok && ir == iz
	}, a)
}

// Zone and reader numbers of the deployment's own names, so the predicates
// above parse the strings the generator produces without fmt.Sscanf.
var zoneNumbers, readerNumbers = func() (zones, readers map[string]int) {
	zones = make(map[string]int, Zones)
	readers = make(map[string]int, 2*Zones)
	for i, z := range zoneNames() {
		zones[z] = i + 1
		readers[fmt.Sprintf("reader-%d", i+1)] = i + 1
		readers["reader-"+z] = i + 1 // a corrupted read's reader
	}
	return zones, readers
}()

// zoneNumber is N of a "zone-N" name, as fmt.Sscanf(z, "zone-%d") reads it.
func zoneNumber(z string) (int, bool) {
	if n, ok := zoneNumbers[z]; ok {
		return n, true
	}
	var n int
	_, err := fmt.Sscanf(z, "zone-%d", &n)
	return n, err == nil
}

// readerZone is the zone number a reader name claims: N of "reader-N", or
// of "reader-zone-N", the name corrupted reads carry.
func readerZone(r string) (int, bool) {
	if n, ok := readerNumbers[r]; ok {
		return n, true
	}
	var n int
	if _, err := fmt.Sscanf(r, "reader-%d", &n); err == nil {
		return n, true
	}
	_, err := fmt.Sscanf(r, "reader-zone-%d", &n)
	return n, err == nil
}

// Situations returns the application's three shelf-monitoring situations
// for the watched item.
func Situations() []*situation.Situation {
	watched := func(zonePred constraint.Formula) constraint.Formula {
		return constraint.Exists("a", ctx.KindRFIDRead,
			constraint.And(constraint.SubjectIs("a", WatchedTag), zonePred))
	}
	return []*situation.Situation{
		{
			Name:    "rm-item-on-shelf",
			Doc:     "the watched item is seen in its home zone",
			Formula: watched(constraint.FieldEquals("a", rfid.FieldZone, ctx.String(WatchedZone))),
		},
		{
			Name: "rm-item-misplaced",
			Doc:  "the watched item is seen outside its home zone",
			Formula: watched(constraint.Not(
				constraint.FieldEquals("a", rfid.FieldZone, ctx.String(WatchedZone)))),
		},
		{
			Name: "rm-item-visible",
			Doc:  "the watched item is seen by any reader",
			Formula: constraint.Exists("a", ctx.KindRFIDRead,
				constraint.SubjectIs("a", WatchedTag)),
		},
	}
}

// Engine builds a situation engine with the application's situations.
func Engine() *situation.Engine {
	e := situation.NewEngine()
	for _, s := range Situations() {
		e.MustRegister(s)
	}
	return e
}

// Checker builds a checker with the application's constraints.
func Checker() *constraint.Checker {
	ch := constraint.NewChecker()
	for _, c := range Constraints() {
		ch.MustRegister(c)
	}
	return ch
}

// WorkloadConfig parameterizes the generated read stream.
type WorkloadConfig struct {
	// Cycles is the number of inventory rounds.
	Cycles int
	// ErrorRate is the controlled corruption probability per read.
	ErrorRate float64
	// MoveEvery makes the watched item hop to a random zone every n
	// cycles (0 disables movement); movement drives situation changes.
	MoveEvery int
	// Start is the logical start time.
	Start time.Time
}

// DefaultWorkload returns the configuration the experiments use.
func DefaultWorkload(errorRate float64) WorkloadConfig {
	return WorkloadConfig{
		Cycles:    120,
		ErrorRate: errorRate,
		MoveEvery: 10,
		Start:     time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC),
	}
}

// Generate produces the read stream of one experiment group, grouped by
// inventory cycle, corrupted at the configured error rate. The returned
// contexts carry ground truth; clone before feeding a middleware.
func Generate(cfg WorkloadConfig, rng *rand.Rand) ([][]*ctx.Context, error) {
	dep, err := rfid.ShelfDeployment(Zones, ZonePitch, ReaderRange)
	if err != nil {
		return nil, fmt.Errorf("deployment: %w", err)
	}
	readers := dep.Readers()
	for i := 1; i <= Tags; i++ {
		home := readers[(i-1)%Zones]
		pos := home.Pos.Add(ctx.Point{X: 0, Y: 1})
		if err := dep.AddTag(fmt.Sprintf("item-%d", i), pos); err != nil {
			return nil, fmt.Errorf("add tag: %w", err)
		}
	}

	injector, err := errmodel.NewInjector(cfg.ErrorRate, rng)
	if err != nil {
		return nil, fmt.Errorf("injector: %w", err)
	}
	injector.Register(ctx.KindRFIDRead, errmodel.ZoneSwap(zoneNames()))

	var seq uint64
	watchedZone := 0 // index into readers; item-1 starts at zone-1
	cycles := make([][]*ctx.Context, 0, cfg.Cycles)
	for i := 0; i < cfg.Cycles; i++ {
		if cfg.MoveEvery > 0 && i > 0 && i%cfg.MoveEvery == 0 {
			// Real movement is always to an adjacent zone, so genuine moves
			// never trip the no-teleport constraint (Heuristic Rule 1: no
			// false inconsistency reports from expected contexts).
			if watchedZone == 0 {
				watchedZone = 1
			} else if watchedZone == len(readers)-1 {
				watchedZone--
			} else if rng.Intn(2) == 0 {
				watchedZone--
			} else {
				watchedZone++
			}
			z := readers[watchedZone]
			if err := dep.MoveTag(WatchedTag, z.Pos.Add(ctx.Point{X: 0, Y: 1})); err != nil {
				return nil, fmt.Errorf("move tag: %w", err)
			}
		}
		at := cfg.Start.Add(time.Duration(i) * CyclePeriod)
		// Ghost reads scale with the controlled error rate. A ghost that
		// arrives before the same tag's real read makes the *real* read
		// the "latest context causing an inconsistency" — the structural
		// Scenario-B failure of drop-latest (Section 2.2).
		rates := rfid.AnomalyRates{Miss: MissRate, Ghost: GhostFactor * cfg.ErrorRate}
		reads := dep.ReadCycle(at, rates, rng, ctx.WithTTL(ContextTTL))
		for _, r := range reads {
			seq++
			r.Seq = seq
			injector.Apply(r)
		}
		cycles = append(cycles, reads)
	}
	return cycles, nil
}
