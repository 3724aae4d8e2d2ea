package exp

import "sort"

// This file supports `qdcbench roundbench`, the bridge between the round-loop
// microbenchmarks (internal/congest's BenchmarkRoundLoop*) and the results
// pipeline. The microbenchmarks report wall-clock throughput and allocation
// counts, which are host-dependent and therefore must never enter a canonical
// BENCH_*.json snapshot; the "roundbench" matrix runs the same flood
// workloads through the ordinary scenario pipeline, whose Records carry only
// deterministic rounds/bits. FoldRecords then splices those records into an
// existing snapshot (CI's bench-smoke.json), so `qdcbench trend` tracks the
// round loop's cost trajectory across PRs next to the algorithm sweeps.

// FoldRecords merges updates into base by scenario name: an update replaces
// the base record of the same name, new names are added, and the result is
// sorted by name — the canonical snapshot order, so writing the fold through
// a JSONSink stays byte-deterministic. Neither input is modified.
func FoldRecords(base, updates []Record) []Record {
	replaced := make(map[string]bool, len(updates))
	for _, r := range updates {
		replaced[r.Scenario.Name] = true
	}
	out := make([]Record, 0, len(base)+len(updates))
	for _, r := range base {
		if !replaced[r.Scenario.Name] {
			out = append(out, r)
		}
	}
	out = append(out, updates...)
	sort.Slice(out, func(i, j int) bool { return out[i].Scenario.Name < out[j].Scenario.Name })
	return out
}

// NodeRoundsPerSec returns the record's simulation throughput in
// node-rounds per second — the realised vertex count (TopologySpec.Nodes)
// times the rounds, over the wall time — or 0 when the record carries no
// wall time (e.g. after canonicalisation zeroed it). It is display-only:
// wall time is host-dependent and never part of a snapshot's identity.
func NodeRoundsPerSec(r Record) float64 {
	if r.WallMillis <= 0 {
		return 0
	}
	return float64(r.Stats.Rounds) * float64(r.Scenario.Topology.Nodes()) / (r.WallMillis / 1000)
}
