package main

import (
	"fmt"
	"strings"

	"qdc/internal/dist/engine"
	"qdc/internal/exp"
)

// workload is one named input set. The seed is its only parameter; the
// program under test receives only the scenarios the matrix expands to.
type workload struct {
	name   string
	matrix func(seed int64) exp.Matrix
	// want is one pass's total simulated cost, summed over its records'
	// engine.Stats. It is gated at countSeed, or at every seed when
	// anySeed is set (the flood workloads never draw from their rng).
	want      engine.Stats
	countSeed int64
	anySeed   bool
	// baseline, if set, is the tracked canonical snapshot (relative to the
	// repository root) that every pass at countSeed must reproduce byte for
	// byte.
	baseline string
}

// floodGrid is grid102400/flood/<backend>/B64, the n = 102,400 cell of the
// roundbench matrix: a 320×320 grid flooded from vertex 0.
func floodGrid(backend string) func(int64) exp.Matrix {
	return func(seed int64) exp.Matrix {
		return exp.Matrix{
			Name:       "flood-grid100k",
			Topologies: []exp.TopologySpec{{Family: exp.FamilyGrid, Size: 102_400}},
			Bandwidths: []int{64},
			Backends:   []string{backend},
			Algorithms: []string{exp.AlgFlood},
			BaseSeed:   seed,
		}
	}
}

// floodWant is the flood's cost at every seed: one stage of ecc(0)+2 = 640
// rounds, one 19-bit announcement per directed edge (4·320·319 = 408,320).
var floodWant = engine.Stats{Stages: 1, Rounds: 640, Messages: 408_320, Bits: 7_758_080}

// workloads, in the order BENCHMARK.json lists them. Why each exists:
//
//   - flood-grid100k: the large-n round loop where almost every node is
//     idle (one message per ~160 node-rounds); congest rounds take ~96% of
//     the wall. An active-set loop or a leaner delivery shows here.
//   - flood-grid100k-par: the same inputs through the parallel backend's
//     merge and worker-pool barriers, with GOMAXPROCS stepping goroutines,
//     so a change trading sequential against parallel speed shows as one
//     flood workload improving while this one worsens.
//   - sweep-default: the registered default matrix (97 small-n scenarios,
//     398 stages), dominated by per-round and per-stage fixed costs; the
//     only workload touching simulation, lbnetwork, Kruskal and the sinks.
//     An active-set loop should barely move it.
var workloads = []workload{
	{name: "flood-grid100k", matrix: floodGrid(exp.BackendLocal), want: floodWant, anySeed: true},
	{name: "flood-grid100k-par", matrix: floodGrid(exp.BackendParallel), want: floodWant, anySeed: true},
	{
		name: "sweep-default",
		matrix: func(seed int64) exp.Matrix {
			m, _ := exp.LookupMatrix("default")
			m.BaseSeed = seed
			return m
		},
		want:      engine.Stats{Stages: 398, Rounds: 14_537, Messages: 144_615, Bits: 1_373_683, QuantumBits: 17_856},
		countSeed: 1,
		baseline:  "BENCH_default.json",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func (w workload) gated(seed int64) bool { return w.anySeed || seed == w.countSeed }

// checkCounts compares one pass's total simulated cost with the expected
// constants, where the workload gates them at this seed.
func (w workload) checkCounts(seed int64, records []exp.Record) error {
	if !w.gated(seed) {
		return nil
	}
	if got := totals(records); got != w.want {
		return fmt.Errorf("pass counts %+v, want %+v", got, w.want)
	}
	return nil
}

// totals sums the records' simulated cost.
func totals(records []exp.Record) engine.Stats {
	var t engine.Stats
	for _, r := range records {
		t.Stages += r.Stats.Stages
		t.Rounds += r.Stats.Rounds
		t.Messages += r.Stats.Messages
		t.Bits += r.Stats.Bits
		t.QuantumBits += r.Stats.QuantumBits
	}
	return t
}
