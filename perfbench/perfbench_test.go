package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func specFor(t *testing.T, name string) *WorkloadSpec {
	t.Helper()
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	w, ok := specs[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

func streamBytes(t *testing.T, w *WorkloadSpec, seed int64) []byte {
	t.Helper()
	nominal, step := w.phases(4)
	in, err := generate(w, seed, nominal, step)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The op stream is a function of the seed alone.
func TestSameSeedSameStream(t *testing.T) {
	for _, name := range []string{"rfid-resolve", "ingest-routed", "large-pool"} {
		t.Run(name, func(t *testing.T) {
			w := specFor(t, name)
			a, b := streamBytes(t, w, 7), streamBytes(t, w, 7)
			if !bytes.Equal(a, b) {
				t.Fatal("seed 7 generated two different op streams")
			}
			if bytes.Equal(a, streamBytes(t, w, 8)) {
				t.Fatal("seeds 7 and 8 generated the same op stream")
			}
		})
	}
}

// outcome is what a client saw for one op.
type outcome struct {
	Class Class
	Vios  int
}

// replayRFID sends the first n ops of rfid-resolve closed-loop to a fresh
// server (probed or not), then shuts it down and recovers it. It returns
// every op's outcome and the recovered fingerprint.
func replayRFID(t *testing.T, w *WorkloadSpec, in *Inputs, n int, p *probes) ([]outcome, string) {
	t.Helper()
	a := app{spec: &w.Server, p: p, noCompact: true}
	if p != nil {
		p.on.Store(true)
	}
	ss, err := setup(a, in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ss.rn.closed([2]int{n - in.Warmup, 0})
	if _, err := ss.beaconMatch(); err != nil {
		t.Fatal(err)
	}
	out := make([]outcome, n)
	for i := range out {
		r := ss.rn.results[0][i]
		if r.Class == classFailed {
			t.Fatalf("op %d failed: %s", i, r.Err)
		}
		out[i] = outcome{r.Class, r.Vios}
	}
	ss.cs.close()
	ss.cs = nil
	ss.s.halt()
	before, err := ss.s.shards[0].mw.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.s.stop(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := ss.s.recoverShard(ss.s.shards[0])
	if err != nil {
		t.Fatal(err)
	}
	after, err := rec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("recovered fingerprint differs from the one at shutdown")
	}
	return out, after
}

// The probes (listener, journal file and strategy decorator) observe
// without changing what the program does.
func TestProbesDoNotChangeOutcomes(t *testing.T) {
	w := specFor(t, "rfid-resolve")
	in, err := generate(w, 3, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	plain, plainFP := replayRFID(t, w, in, n, nil)
	p := newProbes()
	probed, probedFP := replayRFID(t, w, in, n, p)
	for i := range plain {
		if plain[i] != probed[i] {
			t.Fatalf("op %d (%s): without probes %+v, with probes %+v", i, in.Lanes[0][i].Kind, plain[i], probed[i])
		}
	}
	if plainFP != probedFP {
		t.Fatal("recovered fingerprints differ with and without probes")
	}
	if len(p.sock.take()) == 0 || len(p.wal.take()) == 0 || len(p.strat.take()) == 0 {
		t.Fatal("a probe recorded nothing")
	}
	if err := rfidReference(&runner{in: in, results: [2][]Result{withRan(plain), nil}, pos: [2]int{n, 0}}); err != nil {
		t.Fatal(err)
	}
}

func withRan(out []outcome) []Result {
	res := make([]Result, len(out))
	for i, o := range out {
		res[i] = Result{Class: o.Class, Vios: o.Vios, Ran: true}
	}
	return res
}
