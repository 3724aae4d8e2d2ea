package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"qdc/internal/congest"
	"qdc/internal/dist/disjointness"
	"qdc/internal/dist/engine"
	"qdc/internal/dist/flood"
	"qdc/internal/dist/mst"
	"qdc/internal/dist/verify"
	"qdc/internal/exp"
	"qdc/internal/graph"
	"qdc/internal/lbnetwork"
	"qdc/internal/simulation"
)

// The traced run replicates each scenario's pipeline (exp's runScenario)
// out of the layers' public calls and times every call from here, in
// memory: TopologySpec.Build/BuildCSR, the runner constructors, the dist
// algorithms, RunStage through a wrapping engine.Runner, and the reference
// checks. Each congest.Network.Run is split through two public runner
// hooks: the SetCancel poll fires once per round before the round's nodes
// step, so its first call ends run-state set-up and the gaps between calls
// are round times; the StageObserver fires as soon as Run returns, ending
// the tail (the last round, output collection and the stats fold).
//
// Attribution the hooks cannot refine, stated once here:
//   - congest.setup_s includes the runner's input install, which runs
//     between RunStage entry and run-state build (a one-entry map for the
//     flood, at most n = 121 entries in the default sweep);
//   - congest.round_s on the quantum and simulation backends includes their
//     per-message trace callbacks (stream volume, three-party ownership);
//   - installing the observer turns on congest's PerRound recording, one
//     append per round, which no Stats field reads;
//   - congest.round_alloc_mb runs from the first poll to the end of Run,
//     so it includes the tail's allocation (output collection, the stats
//     fold). Ending it at the last poll would need a heap read every round,
//     about 0.6 µs, which would add ~9% to congest.round_s on sweep-default.

// runnerHooks is the public surface every backend exposes beyond Runner.
type runnerHooks interface {
	engine.Runner
	SetCancel(func() bool)
	SetObserver(engine.StageObserver)
}

// tracer accumulates one traced pass.
type tracer struct {
	// sums holds the pass's per-layer totals by metric name.
	sums    map[string]float64
	gaps    []time.Duration
	sample  []metrics.Sample
	backend string
	nodes   int

	// Per-stage state, reset on every RunStage.
	polls       int
	first, last time.Time
	firstAlloc  uint64
	doneAt      time.Time
	doneAlloc   uint64
	done        bool
	timedMsgs   int
}

func newTracer() *tracer {
	return &tracer{sums: map[string]float64{}, sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// allocs is the process's cumulative heap allocation in bytes. Unlike
// runtime.ReadMemStats it does not stop the world; it is exact to the
// span the allocating goroutine is filling (a few KiB).
func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) add(name string, d time.Duration) { t.sums[name] += d.Seconds() }

func (t *tracer) addMiB(name string, from, to uint64) {
	t.sums[name] += float64(to-from) / (1 << 20)
}

// poll is the SetCancel hook.
func (t *tracer) poll() bool {
	now := time.Now()
	if t.polls == 0 {
		t.first, t.firstAlloc = now, t.allocs()
	} else {
		t.gaps = append(t.gaps, now.Sub(t.last))
	}
	t.last = now
	t.polls++
	return false
}

// StageDone implements engine.StageObserver.
func (t *tracer) StageDone(res *congest.Result) {
	t.doneAt, t.doneAlloc, t.done = time.Now(), t.allocs(), true
	t.timedMsgs = 0
	if len(res.PerRound) > 0 {
		for _, r := range res.PerRound[:len(res.PerRound)-1] {
			t.timedMsgs += r.Messages
		}
	}
}

// span runs fn and charges its wall time (and heap allocation, when
// allocName is set) to the named layer metric.
func (t *tracer) span(name, allocName string, fn func()) time.Duration {
	var a0 uint64
	if allocName != "" {
		a0 = t.allocs()
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(name, d)
	if allocName != "" {
		t.addMiB(allocName, a0, t.allocs())
	}
	return d
}

// tracedRunner is the wrapping engine.Runner the dist algorithms run on.
type tracedRunner struct {
	engine.Runner
	t *tracer
}

// RunStage implements engine.Runner: the stage's wall time, split into
// congest set-up, rounds and tail by the hooks, with the remainder
// charged to the engine.
func (r *tracedRunner) RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error) {
	t := r.t
	t.polls, t.done = 0, false
	a0 := t.allocs()
	start := time.Now()
	res, err := r.Runner.RunStage(factory, inputs, maxRounds)
	end := time.Now()
	a1 := t.allocs()

	wall := end.Sub(start)
	var setup, rounds, tail time.Duration
	switch {
	case t.polls > 0 && t.done:
		setup, rounds, tail = t.first.Sub(start), t.last.Sub(t.first), t.doneAt.Sub(t.last)
		t.addMiB("congest.setup_alloc_mb", a0, t.firstAlloc)
		t.addMiB("congest.round_alloc_mb", t.firstAlloc, t.doneAlloc)
		t.sums["congest.timed_node_rounds"] += float64(t.nodes) * float64(t.polls-1)
		t.sums["congest.timed_msgs"] += float64(t.timedMsgs)
	case t.done:
		setup = t.doneAt.Sub(start)
	default:
		setup = wall
	}
	t.add("congest.setup_s", setup)
	t.add("congest.setup_s."+t.backend, setup)
	t.add("congest.round_s", rounds)
	t.add("congest.round_s."+t.backend, rounds)
	t.add("congest.tail_s", tail)
	self := wall - setup - rounds - tail
	t.add("engine.self_s", self)
	t.add("engine.self_s."+t.backend, self)
	t.add("stage.wall_s", wall)
	t.addMiB("stage.alloc_mb", a0, a1)
	return res, err
}

// newRunner realises the scenario's topology and backend exactly as exp's
// runScenario does: the streaming CSR route for flood on streamable
// families, the map-based Build otherwise, and the parallel backend with
// GOMAXPROCS stepping goroutines (Execute's budget at one scenario worker).
func newRunner(s exp.Scenario, rng *rand.Rand, t *tracer) (runnerHooks, *graph.Graph, *graph.CSR, error) {
	var (
		g    *graph.Graph
		csr  *graph.CSR
		lb   *lbnetwork.Network
		topo congest.Topology
		err  error
	)
	t.span("graph.build_s", "graph.alloc_mb", func() {
		if s.Algorithm == exp.AlgFlood && s.Topology.Streamable() {
			csr, err = s.Topology.BuildCSR(rng)
			topo = csr
			return
		}
		built, berr := s.Topology.Build(rng)
		if err = berr; err == nil {
			g, topo, lb = built.Graph, built.Graph, built.LB
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var r runnerHooks
	d := t.span("engine.self_s", "", func() {
		switch s.Backend {
		case exp.BackendLocal:
			r, err = engine.NewLocal(topo, s.Bandwidth, s.Seed)
		case exp.BackendParallel:
			var p *engine.Parallel
			if p, err = engine.NewParallel(topo, s.Bandwidth, s.Seed); err == nil {
				p.SetWorkers(runtime.GOMAXPROCS(0))
				r = p
			}
		case exp.BackendQuantum:
			r, err = engine.NewQuantum(topo, s.Bandwidth, s.Seed)
		case exp.BackendSimulation:
			r, err = simulation.NewRunner(lb, s.Bandwidth, s.Seed)
		default:
			err = fmt.Errorf("unknown backend %q", s.Backend)
		}
	})
	t.add("engine.self_s."+s.Backend, d)
	if err != nil {
		return nil, nil, nil, err
	}
	return r, g, csr, nil
}

// replay runs one scenario through the traced pipeline and returns its
// record (Stats, verdict, error) for comparison with exp.Execute's.
func replay(s exp.Scenario, t *tracer) (rec exp.Record) {
	rec.Scenario = s
	if ok, reason := exp.Compatible(s.Topology, s.Algorithm, s.Backend, s.Bandwidth); !ok {
		rec.Error = "incompatible scenario: " + reason
		return rec
	}
	rng := rand.New(rand.NewSource(s.Seed))
	inner, g, csr, err := newRunner(s, rng, t)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	inner.SetCancel(t.poll)
	inner.SetObserver(t)
	t.backend, t.nodes = s.Backend, inner.Size()
	r := &tracedRunner{Runner: inner, t: t}

	stageWall, stageAlloc := t.sums["stage.wall_s"], t.sums["stage.alloc_mb"]
	dist := func(fn func()) { t.span("dist.span_s", "dist.span_mb", fn) }
	ref := func(fn func()) { t.span("ref.check_s", "", fn) }
	switch s.Algorithm {
	case exp.AlgFlood:
		var res *flood.Result
		dist(func() { res, err = flood.Run(r, 0) })
		if err == nil {
			ref(func() {
				var want []int
				if csr != nil {
					want = csr.BFSDist(0)
				} else {
					want = g.BFS(0).Dist
				}
				rec.OK = len(want) == len(res.Dist)
				for v, d := range res.Dist {
					rec.OK = rec.OK && d == want[v]
				}
			})
		}
	case exp.AlgVerify:
		var tree []graph.Edge
		ref(func() { tree, _ = g.KruskalMST() })
		if len(tree) == 0 {
			err = fmt.Errorf("verify needs a topology with at least one edge")
			break
		}
		dist(func() {
			m := graph.NewEdgeSetFrom(tree)
			var pos, neg *verify.Outcome
			if pos, err = verify.SpanningTree(r, g, m); err != nil {
				return
			}
			broken := m.Clone()
			broken.Remove(tree[0].U, tree[0].V)
			if neg, err = verify.SpanningTree(r, g, broken); err != nil {
				return
			}
			rec.OK = pos.Answer && !neg.Answer
		})
	case exp.AlgMST, exp.AlgMSTApprox:
		alpha := 0.0
		if s.Algorithm == exp.AlgMSTApprox {
			alpha = 2
		}
		var (
			want      []graph.Edge
			refWeight float64
			res       *mst.Result
		)
		ref(func() { want, refWeight = g.KruskalMST() })
		dist(func() { res, err = mst.Run(r, g, mst.Config{Alpha: alpha}) })
		if err == nil {
			bound := refWeight
			if alpha > 1 {
				bound = alpha * refWeight
			}
			rec.OK = len(res.Tree) == len(want) && res.OriginalWeight <= bound*(1+1e-9)
		}
	case exp.AlgDisjointness:
		b := exp.DisjointnessInputBits(r.Bandwidth())
		x, y := make([]int, b), make([]int, b)
		var res *disjointness.Result
		dist(func() {
			for i := range x {
				if rng.Float64() < 0.05 {
					x[i] = 1
				}
				if rng.Float64() < 0.05 {
					y[i] = 1
				}
			}
			res, err = disjointness.RunOn(r, x, y)
		})
		if err == nil {
			ref(func() {
				intersect := false
				for i := range x {
					intersect = intersect || (x[i] == 1 && y[i] == 1)
				}
				rec.OK = res.Disjoint == !intersect
			})
		}
	default:
		err = fmt.Errorf("unknown algorithm %q", s.Algorithm)
	}
	// dist self time is the algorithms' own time outside RunStage.
	self := t.sums["dist.span_s"] - (t.sums["stage.wall_s"] - stageWall)
	t.sums["dist.self_s"] += self
	t.sums["dist.self_s."+s.Algorithm] += self
	t.sums["dist.alloc_mb"] += t.sums["dist.span_mb"] - (t.sums["stage.alloc_mb"] - stageAlloc)
	t.sums["dist.span_s"], t.sums["dist.span_mb"] = 0, 0
	rec.Stats = inner.Stats()
	if err != nil {
		rec.OK = false
		rec.Error = err.Error()
	}
	return rec
}

// tracedPass is one traced iteration: expand, replay every scenario, write
// and close the canonical sink, with every span recorded. The sink's
// output is unused; it runs so the traced pass does the untraced pass's
// work, which trace.overhead_s and the closure check compare against.
func tracedPass(w workload, seed int64) (*tracer, []exp.Record, time.Duration, error) {
	t := newTracer()
	start := time.Now()
	var scenarios []exp.Scenario
	t.span("exp.expand_s", "", func() { scenarios = w.matrix(seed).Expand() })
	var buf bytes.Buffer
	snap := exp.NewJSONSink(&buf)
	records := make([]exp.Record, 0, len(scenarios))
	var err error
	for _, s := range scenarios {
		rec := replay(s, t)
		records = append(records, rec)
		t.span("exp.sink_s", "", func() { err = snap.Write(rec) })
		if err != nil {
			return nil, nil, 0, err
		}
	}
	t.span("exp.sink_s", "", func() { err = snap.Close() })
	return t, records, time.Since(start), err
}

// realisedSizes returns each scenario's node count as its runner reports
// it (Runner.Size). TopologySpec.Size is only nominal: it counts the
// lower-bound network by its path count Γ and rounds grids down to squares.
func realisedSizes(scenarios []exp.Scenario) (map[string]int, error) {
	sizes := make(map[string]int, len(scenarios))
	for _, s := range scenarios {
		r, _, _, err := newRunner(s, rand.New(rand.NewSource(s.Seed)), newTracer())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		sizes[s.Name] = r.Size()
	}
	return sizes, nil
}
