// Command benchcheck validates a BENCH_*.json perf report written by
// `ctxbench -perf` and exits nonzero when the schema or the numbers are
// off. The CI bench-smoke job runs the load generator for a few seconds
// in both wire formats and pipes the report through this check, so a
// refactor that silently breaks the perf harness (empty sections, zero
// throughput, missing latency fields) fails the build rather than
// producing a plausible-looking artifact.
//
// Usage: benchcheck [-full] report.json
//
// By default only the loadgen section is required (the smoke run skips
// the slow phases). -full additionally requires the figure, telemetry
// overhead, tracing overhead, daemon histogram, and push-latency
// sections, and enforces two acceptance floors: the batched/group-commit
// configuration must reach at least 2x the single-submit json baseline at
// equal durability, and distributed tracing at its production 1% sampling
// rate must stay under 5% submit-path overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type report struct {
	Generated string           `json:"generated"`
	Build     json.RawMessage  `json:"build"`
	Figures   []map[string]any `json:"figures"`
	Telemetry []map[string]any `json:"telemetryOverhead"`
	Tracing   []struct {
		App              string  `json:"app"`
		SampleRate       float64 `json:"sampleRate"`
		BaselineNsPerCtx float64 `json:"baselineNsPerCtx"`
		TracedNsPerCtx   float64 `json:"tracedNsPerCtx"`
		OverheadPct      float64 `json:"overheadPct"`
	} `json:"tracingOverhead"`
	Daemon *struct {
		Histograms map[string]json.RawMessage `json:"histograms"`
	} `json:"daemon"`
	Push *struct {
		Toggles       int     `json:"toggles"`
		EndToEndP50Ms float64 `json:"endToEndP50Millis"`
		EndToEndP99Ms float64 `json:"endToEndP99Millis"`
		ServerPush    struct {
			Count uint64 `json:"count"`
		} `json:"serverPushSeconds"`
	} `json:"push"`
	Loadgen *struct {
		Method  string `json:"method"`
		Results []struct {
			Config            string  `json:"config"`
			WireFormat        string  `json:"wireFormat"`
			BatchSize         int     `json:"batchSize"`
			Fsync             string  `json:"fsync"`
			CapacityOpsPerSec float64 `json:"capacityOpsPerSec"`
			Points            []struct {
				TargetOpsPerSec   float64 `json:"targetOpsPerSec"`
				AchievedOpsPerSec float64 `json:"achievedOpsPerSec"`
				LatencyP50Millis  float64 `json:"latencyP50Millis"`
				LatencyP99Millis  float64 `json:"latencyP99Millis"`
			} `json:"points"`
		} `json:"results"`
		GroupBatchSpeedup float64 `json:"groupBatchSpeedup"`
		Baseline          string  `json:"baseline"`
		Candidate         string  `json:"candidate"`
	} `json:"loadgen"`
}

func main() {
	full := flag.Bool("full", false, "require every report section and the 2x speedup floor")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-full] report.json")
		os.Exit(2)
	}
	if err := check(flag.Arg(0), *full); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %s ok\n", flag.Arg(0))
}

func check(path string, full bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Generated == "" {
		return fmt.Errorf("missing generated timestamp")
	}
	if len(rep.Build) == 0 {
		return fmt.Errorf("missing build info")
	}
	if rep.Loadgen == nil {
		return fmt.Errorf("missing loadgen section")
	}
	lg := rep.Loadgen
	if lg.Method == "" {
		return fmt.Errorf("loadgen: missing method description")
	}
	if len(lg.Results) == 0 {
		return fmt.Errorf("loadgen: no results")
	}
	formats := map[string]bool{}
	for _, r := range lg.Results {
		if r.Config == "" {
			return fmt.Errorf("loadgen: unnamed result")
		}
		if r.Fsync != "always" {
			return fmt.Errorf("loadgen %s: fsync = %q, want always (equal-durability comparison)", r.Config, r.Fsync)
		}
		if r.CapacityOpsPerSec <= 0 {
			return fmt.Errorf("loadgen %s: capacity %.2f, want > 0", r.Config, r.CapacityOpsPerSec)
		}
		if len(r.Points) == 0 {
			return fmt.Errorf("loadgen %s: no open-loop points", r.Config)
		}
		for i, p := range r.Points {
			if p.TargetOpsPerSec <= 0 || p.AchievedOpsPerSec <= 0 {
				return fmt.Errorf("loadgen %s point %d: nonpositive rate", r.Config, i)
			}
			if p.LatencyP50Millis <= 0 || p.LatencyP99Millis < p.LatencyP50Millis {
				return fmt.Errorf("loadgen %s point %d: implausible latencies p50=%.3f p99=%.3f",
					r.Config, i, p.LatencyP50Millis, p.LatencyP99Millis)
			}
		}
		formats[r.WireFormat] = true
	}
	if full {
		for _, want := range []string{"json", "binary"} {
			if !formats[want] {
				return fmt.Errorf("loadgen: no %s-format result", want)
			}
		}
		if len(rep.Figures) == 0 {
			return fmt.Errorf("missing figures section")
		}
		if len(rep.Telemetry) == 0 {
			return fmt.Errorf("missing telemetry overhead section")
		}
		if len(rep.Tracing) == 0 {
			return fmt.Errorf("missing tracing overhead section")
		}
		// The tracing acceptance floor: at the production 1% sampling
		// rate, distributed tracing must stay under 5% submit-path
		// overhead.
		for _, tr := range rep.Tracing {
			if tr.BaselineNsPerCtx <= 0 || tr.TracedNsPerCtx <= 0 {
				return fmt.Errorf("tracing %s: nonpositive per-context times", tr.App)
			}
			if tr.SampleRate <= 0 || tr.SampleRate > 1 {
				return fmt.Errorf("tracing %s: sample rate %.4f outside (0,1]", tr.App, tr.SampleRate)
			}
			if tr.OverheadPct >= 5 {
				return fmt.Errorf("tracing %s: %.1f%% submit-path overhead at %.0f%% sampling, want < 5%%",
					tr.App, tr.OverheadPct, tr.SampleRate*100)
			}
		}
		if rep.Daemon == nil || len(rep.Daemon.Histograms) == 0 {
			return fmt.Errorf("missing daemon histograms")
		}
		if rep.Push == nil {
			return fmt.Errorf("missing push latency section")
		}
		if rep.Push.Toggles <= 0 || rep.Push.EndToEndP50Ms <= 0 ||
			rep.Push.EndToEndP99Ms < rep.Push.EndToEndP50Ms {
			return fmt.Errorf("push: implausible round trip: %+v", *rep.Push)
		}
		if rep.Push.ServerPush.Count == 0 {
			return fmt.Errorf("push: server push histogram empty")
		}
		if lg.GroupBatchSpeedup < 2 {
			return fmt.Errorf("loadgen: %s vs %s speedup %.2fx, want >= 2x",
				lg.Candidate, lg.Baseline, lg.GroupBatchSpeedup)
		}
	}
	return nil
}
