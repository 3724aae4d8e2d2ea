package congest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"qdc/internal/graph"
)

// oracleRun is a naive CONGEST(B) simulator, written to be obviously
// correct rather than fast: the model as Section 2.1 of the paper states it
// and nothing more. Every node steps in every round, so sleep hints are
// ignored. Each round's traffic is validated in sender-ID order against a
// map of per-edge bit counts, and delivered in round r+1 into fresh
// inboxes. Network.Run must agree with it on the Result, the error text and
// the trace stream.
//
// Boxed contents are tracked the naive way too: the oracle captures each
// boxed message's content from its sender as it is sent, in a map keyed by
// (owner, handle), and after every round checks that each delivered boxed
// message still resolves to that content through the receiver's
// ctx.Payload, however many entries the owners have added since.
func oracleRun(nw *Network, factory NodeFactory, opts Options) (*Result, error) {
	n := nw.topo.N()
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 64*n + 64
	}
	info := &runInfo{n: n, bandwidth: nw.bandwidth, ctxs: make([]Context, n)}
	ctxs := make([]*Context, n)
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		ctx := &info.ctxs[v]
		*ctx = Context{id: v, run: info, input: nw.inputs[v], rngSeed: nw.seed*1_000_003 + int64(v)}
		nbrs := nw.topo.Neighbors(v)
		sort.Ints(nbrs)
		for _, u := range nbrs {
			if w, ok := nw.topo.Weight(v, u); ok {
				ctx.neighbors = append(ctx.neighbors, u)
				ctx.weights = append(ctx.weights, w)
			}
		}
		ctxs[v] = ctx
		nodes[v] = factory(ctx)
	}
	for v := range nodes {
		nodes[v].Init(ctxs[v])
	}
	res := &Result{Outputs: map[int]any{}}
	fail := func(err error) (*Result, error) {
		for v, ctx := range ctxs {
			if out, ok := ctx.Output(); ok {
				res.Outputs[v] = out
			}
		}
		return res, err
	}

	inboxes := map[int][]Message{}
	sent := map[[2]uint64]any{}
	for round := 1; round <= opts.MaxRounds; round++ {
		if opts.Cancel != nil && opts.Cancel() {
			return fail(fmt.Errorf("%w: before round %d", ErrCancelled, round))
		}
		res.Rounds = round
		outboxes := make([][]Message, n)
		allDone := true
		for v := 0; v < n; v++ {
			out, done := nodes[v].Round(ctxs[v], round, inboxes[v])
			outboxes[v] = slices.Clone(out)
			allDone = allDone && done
			for _, msg := range out {
				if key := [2]uint64{msg.W1, msg.W0}; msg.Kind == KindBoxed && msg.W0 != 0 && sent[key] == nil {
					sent[key] = ctxs[v].Payload(msg)
				}
			}
		}
		for u, inbox := range inboxes {
			for _, msg := range inbox {
				if want, got := sent[[2]uint64{msg.W1, msg.W0}], ctxs[u].Payload(msg); !reflect.DeepEqual(got, want) {
					return fail(fmt.Errorf("oracle: boxed message %d -> %d resolves to %v, sent %v", msg.From, u, got, want))
				}
			}
		}

		edgeBits := map[[2]int]int{}
		next := map[int][]Message{}
		var traffic RoundTraffic
		for v := 0; v < n; v++ {
			for _, msg := range outboxes[v] {
				msg.From = int32(v)
				to := int(msg.To)
				if !slices.Contains(ctxs[v].neighbors, to) {
					return fail(fmt.Errorf("%w: node %d -> %d in round %d", ErrNotNeighbor, v, msg.To, round))
				}
				msg.Bits = max(msg.Bits, 0)
				edge := [2]int{v, to}
				edgeBits[edge] += int(msg.Bits)
				if edgeBits[edge] > nw.bandwidth {
					return fail(fmt.Errorf("%w: node %d -> %d sent %d bits in round %d (B=%d)",
						ErrBandwidthExceeded, v, msg.To, edgeBits[edge], round, nw.bandwidth))
				}
				next[to] = append(next[to], msg)
				traffic.Messages++
				res.TotalMessages++
				res.TotalBits += int64(msg.Bits)
				if msg.Quantum {
					res.QuantumBits += int64(msg.Bits)
					traffic.QuantumBits += int64(msg.Bits)
				} else {
					traffic.ClassicalBits += int64(msg.Bits)
				}
				if opts.Trace != nil {
					opts.Trace(round, msg)
				}
				res.MaxEdgeBitsPerRound = max(res.MaxEdgeBitsPerRound, edgeBits[edge])
			}
		}
		if opts.PerRound {
			res.PerRound = append(res.PerRound, traffic)
		}
		inboxes = next
		if allDone && len(next) == 0 {
			res.Terminated = true
			break
		}
	}
	if !res.Terminated {
		return fail(fmt.Errorf("%w: after %d rounds", ErrRoundLimit, res.Rounds))
	}
	return fail(nil)
}

// mix is a small deterministic hash (splitmix64 finaliser) folding words
// into a state.
func mix(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		h ^= w + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// scriptNode is a randomised node program whose every act is a function of
// (seed, ID, round, everything heard so far) and its private random stream.
// It sends word, boxed and qubit messages of uneven sizes, sleeps, sets
// alarms, finishes and un-finishes, and in faulty scripts overruns B or
// addresses a non-neighbour. It keeps its own sleep promise: while its
// hint is pending, a round with an empty inbox returns (nil, done) and
// touches nothing, so stepping it anyway (the oracle) and skipping it (the
// active set) must look the same from outside.
type scriptNode struct {
	seed    uint64
	faulty  bool
	horizon int

	heard  uint64
	done   bool
	wakeAt int // round of the pending alarm; math.MaxInt while asleep
	out    []Message
}

func (s *scriptNode) Init(*Context) {}

func (s *scriptNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if len(inbox) == 0 && round < s.wakeAt {
		return nil, s.done
	}
	s.wakeAt = 0
	for _, m := range inbox {
		p, _ := ctx.Payload(m).(int)
		s.heard = mix(s.heard, uint64(m.From), uint64(m.Kind), m.W0, uint64(m.Bits), uint64(p))
	}
	h := mix(s.seed, uint64(ctx.ID()), uint64(round), s.heard, uint64(ctx.Rand().Intn(1000)))
	if round >= s.horizon {
		s.done = true
		ctx.SetOutput(s.heard)
		s.wakeAt = math.MaxInt
		ctx.Sleep()
		return nil, true
	}

	s.out = s.out[:0]
	share := ctx.Bandwidth() / 3
	for i := 0; i < ctx.Degree(); i++ {
		g := mix(h, uint64(i))
		if g%3 != 0 {
			continue
		}
		to := ctx.NeighborAt(i)
		bits := int(g>>8) % (share + 1)
		switch g >> 16 % 5 {
		case 0:
			s.out = append(s.out, NewMessage(ctx, to, int(g>>24%100), bits))
		case 1:
			s.out = append(s.out, NewQubitMessage(ctx, to, nil, bits))
		case 2:
			s.out = append(s.out, NewWordMessage(to, 1, g, 0, -1))
		default:
			s.out = append(s.out, NewWordMessage(to, 1, g>>32, h, bits))
		}
	}
	if s.faulty && h%53 == 0 {
		if to := (ctx.ID() + 2) % ctx.N(); !ctx.IsNeighbor(to) {
			s.out = append(s.out, NewMessage(ctx, to, 0, 1))
		}
	}
	if s.faulty && h%59 == 0 && ctx.Degree() > 0 {
		to := ctx.NeighborAt(0)
		s.out = append(s.out, NewMessage(ctx, to, 0, share), NewMessage(ctx, to, 0, share), NewMessage(ctx, to, 0, share), NewMessage(ctx, to, 0, share))
	}

	switch h >> 40 % 7 {
	case 0:
		s.done = true
		ctx.SetOutput(s.heard)
	case 1:
		s.done = false
	}
	switch h >> 48 % 6 {
	case 0, 1:
		if s.done || h%4 == 0 {
			s.wakeAt = math.MaxInt
			ctx.Sleep()
		}
	case 2, 3:
		s.wakeAt = round + int(h>>56%7)
		ctx.SleepUntil(s.wakeAt)
	}
	return s.out, s.done
}

// adjTopo is an explicit adjacency-list topology with unit weights. Its
// lists need not be symmetric, which exercises an in-edge index that
// differs from the out-edge one.
type adjTopo [][]int

func (a adjTopo) N() int                { return len(a) }
func (a adjTopo) Neighbors(v int) []int { return slices.Clone(a[v]) }
func (a adjTopo) Weight(u, v int) (float64, bool) {
	return 1, slices.Contains(a[u], v)
}

type oracleEvent struct {
	Round int
	Msg   Message
}

// oracleCase is one differential scenario: a topology, a bandwidth, a
// script and the run options, all derived from one seed.
type oracleCase struct {
	topo      Topology
	bandwidth int
	script    scriptNode
	opts      Options
	// cancelAfter > 0 makes the run's Cancel poll stop it after that many
	// rounds.
	cancelAfter int
}

func newOracleCase(seed uint64) oracleCase {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 1 + rng.Intn(14)
	var topo Topology
	switch rng.Intn(4) {
	case 0:
		topo = graph.RandomGraph(n, 0.35, rng)
	case 1:
		topo = graph.FromGraph(graph.RandomConnectedGraph(n, 0.2, rng))
	case 2:
		topo = ring(max(n, 3))
	default:
		adj := make(adjTopo, n)
		for u := range adj {
			for v := 0; v < n; v++ {
				if v != u && rng.Intn(3) == 0 {
					adj[u] = append(adj[u], v)
				}
			}
		}
		topo = adj
	}
	c := oracleCase{
		topo:      topo,
		bandwidth: 6 + rng.Intn(40),
		script:    scriptNode{seed: seed, faulty: rng.Intn(3) == 0, horizon: 4 + rng.Intn(24)},
		opts:      Options{MaxRounds: 10 + rng.Intn(30), PerRound: rng.Intn(2) == 0},
	}
	if rng.Intn(6) == 0 {
		c.cancelAfter = 1 + rng.Intn(20)
	}
	return c
}

// run executes the case on one simulator, returning the Result, the error
// text and the trace stream.
func (c oracleCase) run(t *testing.T, sim func(*Network, NodeFactory, Options) (*Result, error), workers int) (*Result, string, []oracleEvent) {
	t.Helper()
	nw, err := NewNetwork(c.topo, c.bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(int64(c.script.seed))
	var events []oracleEvent
	opts := c.opts
	opts.Workers = workers
	opts.Trace = func(round int, msg Message) { events = append(events, oracleEvent{round, msg}) }
	if c.cancelAfter > 0 {
		left := c.cancelAfter
		opts.Cancel = func() bool { left--; return left < 0 }
	}
	res, err := sim(nw, func(*Context) Node { s := c.script; return &s }, opts)
	text := ""
	if err != nil {
		text = err.Error()
	}
	return res, text, events
}

// checkAgainstOracle runs one seed's case on the oracle and on Network.Run
// at Workers 1, 2 and 4, and reports the first disagreement.
func checkAgainstOracle(t *testing.T, seed uint64) (outcome string) {
	c := newOracleCase(seed)
	want, wantErr, wantTrace := c.run(t, oracleRun, 0)
	for _, workers := range []int{1, 2, 4} {
		got, gotErr, gotTrace := c.run(t, (*Network).Run, workers)
		if gotErr != wantErr {
			t.Fatalf("seed %d workers %d: error %q, oracle %q", seed, workers, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d workers %d: Result diverged from the oracle:\ngot    %+v\noracle %+v", seed, workers, got, want)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("seed %d workers %d: trace diverged from the oracle (%d vs %d events)", seed, workers, len(gotTrace), len(wantTrace))
		}
	}
	return wantErr
}

// TestRoundLoopMatchesOracle is the differential check of the optimised
// round loop (active set, timers, CSR tables, the delivery arena, worker
// pools) against oracleRun over small random topologies, symmetric and
// not, and scripted programs that send, sleep, set alarms, overrun B,
// address non-neighbours, finish and get cancelled. The mix of outcomes is
// asserted too, so the seeds keep covering every exit path.
func TestRoundLoopMatchesOracle(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	outcomes := map[error]int{}
	for seed := 1; seed <= seeds; seed++ {
		text := checkAgainstOracle(t, uint64(seed))
		kind := error(nil)
		for _, e := range []error{ErrBandwidthExceeded, ErrNotNeighbor, ErrRoundLimit, ErrCancelled} {
			if len(text) >= len(e.Error()) && text[:len(e.Error())] == e.Error() {
				kind = e
			}
		}
		outcomes[kind]++
	}
	for _, e := range []error{nil, ErrBandwidthExceeded, ErrNotNeighbor, ErrRoundLimit, ErrCancelled} {
		if outcomes[e] == 0 && !testing.Short() {
			t.Errorf("no seed ended with %v; outcomes %v", e, outcomes)
		}
	}
}

// FuzzRoundLoopMatchesOracle widens TestRoundLoopMatchesOracle to arbitrary
// seeds under `go test -fuzz`; the seed corpus below runs in every test
// pass.
func FuzzRoundLoopMatchesOracle(f *testing.F) {
	for _, seed := range []uint64{0, 7, 99, 12345, math.MaxUint64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkAgainstOracle(t, seed) })
}
