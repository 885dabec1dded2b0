package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// workloadsJSON is the benchmark's workload definition: rates, ladders,
// p99 limits and server settings. It is compiled in so the definition
// the binary runs is exactly the one in the repository.
//
//go:embed workloads.json
var workloadsJSON []byte

// Rate is an offered rate in operations per second for each client
// connection ("lane"). Lane b may be zero (rfid-resolve's second
// connection only receives pushes).
type Rate struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
}

// ServerSpec is the part of a workload's definition that configures the
// servers under test.
type ServerSpec struct {
	Shards     int    `json:"shards"`
	Checker    string `json:"checker"`
	Situations string `json:"situations"`
	Fsync      string `json:"fsync"`
	// SegmentMB is the journal segment size; 0 keeps the WAL default.
	// Rotation syncs the sealed segment, so under fsync=never a large
	// segment keeps that one disk flush out of the measured phase.
	SegmentMB            int  `json:"segment_mb"`
	CheckpointAfterSetup bool `json:"checkpoint_after_setup"`
	// CheckpointAtShutdown takes a final checkpoint when the servers stop,
	// as ctxmwd's graceful shutdown does; recovery then restores the
	// snapshot instead of replaying the log.
	CheckpointAtShutdown bool `json:"checkpoint_at_shutdown"`
}

// WorkloadSpec is one workload's definition.
type WorkloadSpec struct {
	Name string `json:"-"`
	// NominalShare is the part of --seconds the nominal phase takes; the
	// rest is budgeted for two ladder steps.
	NominalShare float64            `json:"nominal_share"`
	Nominal      Rate               `json:"nominal"`
	Ladder       []Rate             `json:"ladder"`
	P99LimitMs   map[string]float64 `json:"p99_limit_ms"`
	Server       ServerSpec         `json:"server"`
	Generator    map[string]float64 `json:"generator"`
}

type specFile struct {
	Workloads map[string]*WorkloadSpec `json:"workloads"`
}

// loadSpecs parses the embedded workload definitions.
func loadSpecs() (map[string]*WorkloadSpec, error) {
	var f specFile
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range f.Workloads {
		w.Name = name
		if len(w.Ladder) == 0 {
			return nil, fmt.Errorf("workloads.json: %s has no ladder", name)
		}
		if s := w.Server.Situations; s != "none" && s != "rfidmon" && s != "callforward" {
			return nil, fmt.Errorf("workloads.json: %s: unknown situations %q", name, s)
		}
		if w.NominalShare <= 0 || w.NominalShare >= 1 {
			return nil, fmt.Errorf("workloads.json: %s: nominal_share must be in (0, 1)", name)
		}
		sort.Slice(w.Ladder, func(i, j int) bool { return w.Ladder[i].A < w.Ladder[j].A })
		if w.nominalStep() < 0 {
			return nil, fmt.Errorf("workloads.json: %s: nominal rate is not a ladder step", name)
		}
	}
	return f.Workloads, nil
}

// nominalStep is the index of the nominal rate on the ladder.
func (w *WorkloadSpec) nominalStep() int {
	for i, r := range w.Ladder {
		if r == w.Nominal {
			return i
		}
	}
	return -1
}

// phases splits the measured seconds into the nominal phase and one
// ladder step.
func (w *WorkloadSpec) phases(seconds int) (nominal, step time.Duration) {
	total := float64(seconds) * float64(time.Second)
	return time.Duration(total * w.NominalShare), time.Duration(total * (1 - w.NominalShare) / 2)
}

// gen reads an integer generator parameter.
func (w *WorkloadSpec) gen(key string) int { return int(w.Generator[key]) }
