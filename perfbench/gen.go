package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ctxres/internal/apps/callforward"
	"ctxres/internal/apps/rfidmon"
	"ctxres/internal/ctx"
	"ctxres/internal/simspace"
)

// OpKind names one client operation of a workload's op stream.
type OpKind uint8

// Operation kinds.
const (
	opSubmit    OpKind = iota + 1 // one data context
	opBatch                       // batch-submit of data contexts
	opUse                         // use by ID
	opUseLatest                   // use-latest of (kind, subject)
	opBeacon                      // one beacon context (drives the push subscriptions)
)

func (k OpKind) String() string {
	switch k {
	case opSubmit:
		return "submit"
	case opBatch:
		return "batch"
	case opUse:
		return "use"
	case opUseLatest:
		return "use-latest"
	case opBeacon:
		return "beacon"
	}
	return "invalid"
}

// Op is one request a lane sends.
type Op struct {
	Kind    OpKind         `json:"kind"`
	Ctx     *ctx.Context   `json:"ctx,omitempty"`
	Batch   []*ctx.Context `json:"batch,omitempty"`
	ID      ctx.ID         `json:"id,omitempty"`
	LKind   ctx.Kind       `json:"lkind,omitempty"`
	Subject string         `json:"subject,omitempty"`
}

// contexts is the number of contexts the op submits.
func (o *Op) contexts() int {
	switch o.Kind {
	case opSubmit, opBeacon:
		return 1
	case opBatch:
		return len(o.Batch)
	}
	return 0
}

// Inputs is everything a run sends, generated from the seed before any
// timing starts.
type Inputs struct {
	Lanes   [2][]Op        `json:"lanes"`
	Preload []*ctx.Context `json:"preload,omitempty"`
	Warmup  int            `json:"warmup"` // ops per lane sent during set-up
}

// Beacon kinds. Beacons alternate between the two kinds; each one expires
// its predecessor (its TTL ends just before the next beacon's timestamp),
// so every beacon op flips both subscriptions and the activation push of
// its own kind is triggered by that op alone.
const (
	beaconA = ctx.Kind("bench.beacon-a")
	beaconB = ctx.Kind("bench.beacon-b")
)

var beaconFormulas = map[string]string{
	"a": "exists b: bench.beacon-a . true",
	"b": "exists b: bench.beacon-b . true",
}

func beaconSub(k ctx.Kind) string {
	if k == beaconA {
		return "a"
	}
	return "b"
}

var epoch = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

// opsNeeded is the number of ops each lane must hold: the warm-up, the
// nominal phase and every other ladder step, whichever way the ladder is
// climbed.
func opsNeeded(w *WorkloadSpec, nominal, step time.Duration) [2]int {
	warm := w.gen("warmup_ops")
	var n [2]int
	for lane := 0; lane < 2; lane++ {
		total := warm + phaseOps(laneRate(w.Nominal, lane), nominal)
		for _, r := range w.Ladder {
			if r != w.Nominal {
				total += phaseOps(laneRate(r, lane), step)
			}
		}
		n[lane] = total
	}
	return n
}

func laneRate(r Rate, lane int) float64 {
	if lane == 0 {
		return r.A
	}
	return r.B
}

func phaseOps(rate float64, d time.Duration) int {
	return int(math.Ceil(rate * d.Seconds()))
}

// generate builds a workload's inputs for one seed.
func generate(w *WorkloadSpec, seed int64, nominal, step time.Duration) (*Inputs, error) {
	need := opsNeeded(w, nominal, step)
	rng := rand.New(rand.NewSource(seed))
	var in *Inputs
	var err error
	switch w.Name {
	case "rfid-resolve":
		in, err = genRFID(w, rng, need)
	case "ingest-routed":
		in, err = genIngest(w, rng, need)
	case "large-pool":
		in, err = genLargePool(w, rng, need, w.gen("warmup_ops"), phaseOps(w.Nominal.A, nominal))
	default:
		return nil, fmt.Errorf("no generator for workload %q", w.Name)
	}
	if err != nil {
		return nil, err
	}
	in.Warmup = w.gen("warmup_ops")
	setBeaconTTLs(in.Lanes[0])
	setBeaconTTLs(in.Lanes[1])
	return in, nil
}

// setBeaconTTLs ends each beacon's available period one millisecond (the
// wire's TTL resolution) before the next beacon's timestamp.
func setBeaconTTLs(lane []Op) {
	var prev *ctx.Context
	for i := range lane {
		if lane[i].Kind != opBeacon {
			continue
		}
		c := lane[i].Ctx
		if prev != nil {
			prev.TTL = c.Timestamp.Sub(prev.Timestamp) - time.Millisecond
		}
		prev = c
	}
	if prev != nil {
		prev.TTL = time.Hour
	}
}

func beacon(k int, at time.Time) Op {
	kind := beaconA
	if k%2 == 1 {
		kind = beaconB
	}
	c := ctx.New(kind, at, nil, ctx.WithID(ctx.ID(fmt.Sprintf("bc%d", k))),
		ctx.WithSource("beacon"), ctx.WithSubject("beacon"), ctx.WithTTL(time.Hour))
	return Op{Kind: opBeacon, Ctx: c}
}

// genRFID replays the paper's RFID application as one ordered stream:
// cycle i's reads, two beacons, then uses of cycle i-2's reads.
func genRFID(w *WorkloadSpec, rng *rand.Rand, need [2]int) (*Inputs, error) {
	cycles := need[0]/4 + 8
	cfg := rfidmon.DefaultWorkload(w.Generator["error_rate"])
	cfg.Cycles = cycles
	cfg.Start = epoch
	reads, err := rfidmon.Generate(cfg, rng)
	if err != nil {
		return nil, err
	}
	delay := w.gen("use_delay_cycles")
	var lane []Op
	beacons := 0
	for i, cyc := range reads {
		for j, c := range cyc {
			c.ID = ctx.ID(fmt.Sprintf("r%d.%d", i, j))
			lane = append(lane, Op{Kind: opSubmit, Ctx: c})
		}
		at := epoch.Add(time.Duration(i) * rfidmon.CyclePeriod)
		for b := 1; b <= 2; b++ {
			lane = append(lane, beacon(beacons, at.Add(time.Duration(2*b)*time.Millisecond)))
			beacons++
		}
		if j := i - delay; j >= 0 {
			for _, c := range reads[j] {
				lane = append(lane, Op{Kind: opUse, ID: c.ID})
			}
		}
		if len(lane) >= need[0] {
			break
		}
	}
	if len(lane) < need[0] {
		return nil, fmt.Errorf("rfid generator produced %d of %d ops", len(lane), need[0])
	}
	return &Inputs{Lanes: [2][]Op{lane[:need[0]], nil}}, nil
}

// Ingest parameters fixed by the workload's definition.
const (
	sensorKind = ctx.Kind("sensor.reading")
	ingestStep = 4 * time.Millisecond // logical time between consecutive contexts
)

// genIngest builds the gateway traffic: each lane sends a 16-context
// batch followed by two beacons (lane a) or two use-latest reads of a
// source the lane just wrote (lane b). Timestamps follow the order the two
// lanes interleave in at equal rates.
func genIngest(w *WorkloadSpec, rng *rand.Rand, need [2]int) (*Inputs, error) {
	sources := w.gen("sources")
	batch := w.gen("batch")
	ttl := time.Duration(w.gen("ttl_steps")) * ingestStep
	srcSeq := make([]uint64, sources)
	var seq int64
	beacons := 0
	mkBatch := func() []*ctx.Context {
		out := make([]*ctx.Context, batch)
		for i := range out {
			s := rng.Intn(sources)
			srcSeq[s]++
			seq++
			src := fmt.Sprintf("gw-%03d", s)
			out[i] = ctx.New(sensorKind, epoch.Add(time.Duration(seq)*ingestStep),
				map[string]ctx.Value{"value": ctx.Float(math.Round(rng.Float64()*1000) / 10)},
				ctx.WithID(ctx.ID(fmt.Sprintf("s%d", seq))), ctx.WithSource(src),
				ctx.WithSubject(src), ctx.WithSeq(srcSeq[s]), ctx.WithTTL(ttl))
		}
		return out
	}
	var lanes [2][]Op
	var lastB string
	for k := 0; len(lanes[0]) < need[0] || len(lanes[1]) < need[1]; k++ {
		for lane := 0; lane < 2; lane++ {
			if k%3 == 0 {
				op := Op{Kind: opBatch, Batch: mkBatch()}
				if lane == 1 {
					lastB = op.Batch[len(op.Batch)-1].Source
				}
				lanes[lane] = append(lanes[lane], op)
				continue
			}
			if lane == 0 {
				// The two beacons after a batch sit 1 and 3 ms past its
				// step, so each still expires before the next.
				at := epoch.Add(time.Duration(seq)*ingestStep + time.Duration(2*(k%3)-1)*time.Millisecond)
				lanes[0] = append(lanes[0], beacon(beacons, at))
				beacons++
			} else {
				lanes[1] = append(lanes[1], Op{Kind: opUseLatest, LKind: sensorKind, Subject: lastB})
			}
		}
	}
	return &Inputs{Lanes: [2][]Op{lanes[0][:need[0]], lanes[1][:need[1]]}}, nil
}

// Large-pool parameters fixed by the workload's definition.
const (
	bgKind   = ctx.Kind("bench.background")
	poolStep = 500 * time.Millisecond // logical time between readings
)

var watched = []string{callforward.Subject, "anna", "bob", "carla"}

// genLargePool builds location readings of the watched subjects (lane
// a), use-latest reads of them alternating with beacons (lane b, which
// runs at twice lane a's rate so beacon k falls between readings k+1 and
// k+2), and the background entries preloaded during set-up, each expiring
// just before the reading that replaces it in the count.
func genLargePool(w *WorkloadSpec, rng *rand.Rand, need [2]int, warmA, nominalA int) (*Inputs, error) {
	subjects := w.gen("subjects")
	if subjects > len(watched) {
		return nil, fmt.Errorf("large-pool: at most %d subjects", len(watched))
	}
	ttl := time.Duration(w.gen("reading_ttl_steps")) * poolStep
	walk := callforward.Walk(simspace.OfficeFloor())
	phase := make([]time.Duration, subjects)
	for s := range phase {
		phase[s] = time.Duration(rng.Intn(600)) * time.Second
	}
	seqs := make([]uint64, subjects)
	laneA := make([]Op, need[0])
	for i := range laneA {
		s := i % subjects
		seqs[s]++
		at := epoch.Add(time.Duration(i+1) * poolStep)
		pos := walk.PositionAt(at.Sub(epoch) + phase[s])
		c := ctx.NewLocation(watched[s], at, pos,
			ctx.WithID(ctx.ID(fmt.Sprintf("l%d", i+1))),
			ctx.WithSource("badge-"+watched[s]), ctx.WithSeq(seqs[s]), ctx.WithTTL(ttl))
		laneA[i] = Op{Kind: opSubmit, Ctx: c}
	}
	laneB := make([]Op, need[1])
	for i := range laneB {
		k := i / 2
		if i%2 == 1 {
			laneB[i] = beacon(k, epoch.Add(time.Duration(k+1)*poolStep+poolStep/2))
			continue
		}
		laneB[i] = Op{Kind: opUseLatest, LKind: ctx.KindLocation, Subject: watched[k%subjects]}
	}
	// Enough background for the pool to stay above the floor through the
	// warm-up and the nominal phase.
	bg := w.gen("pool_floor") + warmA + nominalA
	pre := make([]*ctx.Context, bg)
	for k := range pre {
		at := epoch.Add(-time.Duration(bg-k) * time.Millisecond)
		expiry := epoch.Add(time.Duration(k+1)*poolStep - poolStep/4)
		pre[k] = ctx.New(bgKind, at, map[string]ctx.Value{"n": ctx.Float(float64(k))},
			ctx.WithID(ctx.ID(fmt.Sprintf("bg%d", k))), ctx.WithSource("bg"),
			ctx.WithSubject(fmt.Sprintf("bg%d", k)), ctx.WithTTL(expiry.Sub(at)))
	}
	// One reading per subject at the epoch, so a read never races the
	// subject's first reading.
	for s := range seqs {
		pre = append(pre, ctx.NewLocation(watched[s], epoch, walk.PositionAt(phase[s]),
			ctx.WithID(ctx.ID("l0-"+watched[s])), ctx.WithSource("badge-"+watched[s]),
			ctx.WithSeq(0), ctx.WithTTL(ttl)))
	}
	return &Inputs{Lanes: [2][]Op{laneA, laneB}, Preload: pre}, nil
}
