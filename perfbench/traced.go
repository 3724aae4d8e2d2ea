package main

import (
	"fmt"
	"time"

	"qdc/internal/exp"
)

// Backends and algorithms the per-layer split reports one by one. Every
// workload reports every name; a backend or algorithm the workload does not
// run reads zero.
var (
	backends   = []string{exp.BackendLocal, exp.BackendParallel, exp.BackendQuantum, exp.BackendSimulation}
	algorithms = []string{exp.AlgVerify, exp.AlgMST, exp.AlgMSTApprox, exp.AlgDisjointness, exp.AlgFlood}
)

// closureLayers are the layer self times a traced pass is split into; the
// benchmark checks that they sum to within closureLimit of the pass's wall.
var closureLayers = []string{
	"exp.expand_s", "graph.build_s", "engine.self_s", "congest.setup_s", "congest.round_s",
	"congest.tail_s", "dist.self_s", "ref.check_s", "exp.sink_s",
}

const closureLimit = 0.05

// measureTraced is the traced run: for the window, an untraced pass (its
// records are what the replica must reproduce, and its wall is the
// baseline of the tracing overhead) alternates with a traced one.
func (b *bench) measureTraced(window time.Duration) result {
	var (
		e       e2e
		walls   []time.Duration
		passes  []map[string]float64
		gaps    []float64
		unattr  []float64
		counted []exp.Record
	)
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < window {
		if !b.untraced(&e) {
			break
		}
		t, records, wall, err := tracedPass(b.w, b.seed)
		if err != nil {
			b.fail("traced pass: %v", err)
			break
		}
		b.checkReplica(records)
		walls = append(walls, wall)
		passes = append(passes, t.sums)
		for _, g := range t.gaps {
			gaps = append(gaps, float64(g)/float64(time.Microsecond))
		}
		named := 0.0
		for _, l := range closureLayers {
			named += t.sums[l]
		}
		unattr = append(unattr, (wall.Seconds()-named)/wall.Seconds())
		counted = records
	}
	b.note("untraced passes %d, traced passes %d, round samples %d", len(e.walls), len(walls), len(gaps))
	b.reportReference()

	// The untraced passes' end-to-end figures are printed for reference;
	// the result carries the per-layer metrics only.
	endToEnd := b.metrics(&e)
	for _, m := range endToEnd.order {
		v := endToEnd.metrics[m]
		b.note("end-to-end (untraced passes of this run) %s = %g %s", m, v.Value, v.Unit)
	}

	med := func(name string) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p[name]
		}
		return quantile(xs, 0.5)
	}
	ratio := func(num, den string) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p[num] / p[den]
		}
		return quantile(xs, 0.5)
	}
	secs := func(ds []time.Duration) []float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = d.Seconds()
		}
		return xs
	}
	var res result
	res.set("graph.build_s", med("graph.build_s"), "s")
	res.set("graph.alloc_mb", med("graph.alloc_mb"), "MiB")
	res.set("congest.setup_s", med("congest.setup_s"), "s")
	res.set("congest.setup_alloc_mb", med("congest.setup_alloc_mb"), "MiB")
	res.set("congest.round_s", med("congest.round_s"), "s")
	res.set("congest.round_alloc_mb", med("congest.round_alloc_mb"), "MiB")
	res.set("congest.round_us.p50", quantile(gaps, 0.50), "us")
	res.set("congest.round_us.p99", quantile(gaps, 0.99), "us")
	res.set("congest.tail_s", med("congest.tail_s"), "s")
	res.set("congest.node_rounds_per_s", ratio("congest.timed_node_rounds", "congest.round_s"), "1/s")
	res.set("congest.msgs_per_s", ratio("congest.timed_msgs", "congest.round_s"), "1/s")
	for _, be := range backends {
		res.set("congest.setup_s."+be, med("congest.setup_s."+be), "s")
		res.set("congest.round_s."+be, med("congest.round_s."+be), "s")
	}
	res.set("engine.self_s", med("engine.self_s"), "s")
	for _, be := range backends {
		res.set("engine.self_s."+be, med("engine.self_s."+be), "s")
	}
	res.set("dist.self_s", med("dist.self_s"), "s")
	for _, alg := range algorithms {
		res.set("dist.self_s."+alg, med("dist.self_s."+alg), "s")
	}
	res.set("dist.alloc_mb", med("dist.alloc_mb"), "MiB")
	res.set("ref.check_s", med("ref.check_s"), "s")
	res.set("exp.self_s", quantile(secs(e.execSelf), 0.5), "s")
	res.set("exp.sink_close_s", quantile(secs(e.sinkClose), 0.5), "s")
	res.set("exp.expand_s", quantile(secs(e.expand), 0.5), "s")
	res.set("exp.scenario_ms.p99", tailQuantile(e.scenarioMs), "ms")
	c := totals(counted)
	res.set("congest.stages", float64(c.Stages), "count")
	res.set("congest.rounds", float64(c.Rounds), "count")
	res.set("congest.msgs", float64(c.Messages), "count")
	res.set("congest.bits", float64(c.Bits), "count")
	res.set("congest.qubits", float64(c.QuantumBits), "count")
	traced, untraced := medianDuration(walls).Seconds(), medianDuration(e.walls).Seconds()
	res.set("trace.iter_s", traced, "s")
	res.set("trace.overhead_s", traced-untraced, "s")
	closure := quantile(unattr, 0.5)
	res.set("trace.unattributed_pct", 100*closure, "%")
	if closure > closureLimit || closure < -closureLimit {
		b.fail("layer self times leave %.1f%% of the traced pass unattributed (limit %.0f%%)", 100*closure, 100*closureLimit)
	} else {
		b.report = append(b.report, fmt.Sprintf("check breakdown closes: layers cover all but %.2f%% of the traced pass", 100*closure))
	}
	return res
}

// checkReplica compares the traced pipeline's records with exp.Execute's:
// equal engine.Stats and verdict per scenario, and the pass's counts.
func (b *bench) checkReplica(records []exp.Record) {
	b.attempted += len(records)
	bad := 0
	for _, r := range records {
		ref, known := b.ref[r.Scenario.Name]
		if r.Failed() || !known || r.Stats != ref.Stats || r.OK != ref.OK {
			b.fail("replica of %s: stats %+v ok %v error %q; exp.Execute: stats %+v ok %v",
				r.Scenario.Name, r.Stats, r.OK, r.Error, ref.Stats, ref.OK)
			bad++
		}
	}
	if err := b.w.checkCounts(b.seed, records); err != nil {
		b.fail("replica %v", err)
		bad = len(records)
	}
	b.failed += bad
}
