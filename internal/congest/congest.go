// Package congest implements a synchronous message-passing simulator for the
// CONGEST(B) distributed computing model of Peleg, the model in which all of
// the paper's upper and lower bounds are stated (Section 2.1 and Appendix A.1).
//
// A network is an undirected graph whose vertices are processors. Computation
// proceeds in synchronous rounds. In each round every node may send at most B
// bits over each incident edge in each direction; messages sent in round r are
// delivered at the beginning of round r+1. Nodes have unbounded local
// computation power, so only the number of rounds and the number of bits on
// the wire are accounted for.
//
// The paper's *quantum* CONGEST model allows qubits and shared entanglement on
// top of this; since all the paper's quantitative statements are about round
// and bit counts, the simulator models communication classically and exposes
// exact accounting, while package quantum provides the quantum primitives
// (EPR pairs, teleportation, Grover search) whose costs are plugged into the
// same accounting (see DESIGN.md, substitution table).
//
// The simulator is engineered for scale: the round loop is steady-state
// allocation-free (CSR edge index, double-buffered inboxes/outboxes, a
// write-disjoint parallel merge behind Options.Workers), messages carry
// small contents word-encoded in two inline uint64s instead of a boxed
// Payload (see payload.go — Kind/W0/W1, with boxed `any` kept as the escape
// hatch), and a topology implementing IndexedTopology (such as *graph.CSR,
// built by the streaming graph.Builder) is adopted without per-node copies
// or sorts. A round steps only the active nodes: a node that has nothing to
// do until a message arrives, or until a given round, says so with
// Context.Sleep or Context.SleepUntil, and the loop keeps a sorted list of
// the nodes still to step, so a round costs O(active + traffic) rather than
// O(n). The list is kept in node-ID order, which leaves delivery positions,
// accounting and trace order exactly as if every node stepped. Together
// these carry the same bit-exact accounting from the paper-sized networks
// up to million-node topologies; see DESIGN.md, "The congest hot path" and
// "Compact payloads and streaming topologies".
package congest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
)

// Default bandwidths used across benchmarks. CONGEST conventionally takes
// B = Θ(log n); DefaultBandwidth is a convenient fixed stand-in for
// moderate n.
const DefaultBandwidth = 32

// Message is a single message sent over one edge in one round.
//
// A message carries its content in one of two representations. Word-encoded
// messages (Kind != KindBoxed) pack the content into the two inline words W0
// and W1 — no heap allocation, no interface header, no type assertion on
// delivery — and are what the hot-path algorithms in internal/dist send.
// Boxed messages (Kind == KindBoxed) carry arbitrary structured content in
// Payload; they remain the escape hatch for payloads that do not fit two
// words (quantum state references, variable-length chunks). The simulator
// treats both identically: only Bits is charged against the bandwidth
// budget, and the merge, trace and accounting paths never look inside
// either representation.
type Message struct {
	// From and To are node IDs; To must be a neighbour of From.
	From, To int
	// Payload is the boxed message content, interpreted by the receiving
	// node. It is nil for word-encoded messages.
	Payload any
	// Bits is the size charged against the per-edge, per-round budget.
	Bits int
	// Quantum marks the message as carrying qubits rather than classical
	// bits. The paper's quantum CONGEST model (Section 2.1) charges qubits
	// against the same per-edge bandwidth B, so the budget check is
	// identical; the split only matters for accounting — Result reports
	// quantum and classical wire traffic separately, which is what the
	// Grover re-accounting backend (engine.NewQuantum) and any future
	// genuinely quantum node program feed on.
	Quantum bool
	// Kind tags a word-encoded message. KindBoxed (the zero value) means
	// the content is in Payload; any other value is algorithm-defined and
	// says how to decode W0/W1. Kinds are scoped to one node program — the
	// simulator never interprets them — so algorithms declare their own
	// small constants starting at 1.
	Kind uint8
	// W0 and W1 are the inline payload words of a word-encoded message.
	// The typed accessors (Int0, Int1, Bool0, …) and the pack helpers
	// (PackIDs, WordFromBool) in payload.go are the supported encodings.
	W0, W1 uint64
}

// Node is the per-processor state machine supplied by an algorithm.
//
// The simulator calls Init exactly once before the first round. Every node
// steps in round 1; after that a node steps in every round unless it asked
// to sleep (Context.Sleep, Context.SleepUntil) during its previous step. A
// sleeping node is stepped again in the first round that delivers it a
// message or, after SleepUntil(r), in round r, whichever comes first. The
// run ends when every node's last reported done is true and no messages
// remain in flight, or when the round limit is reached.
type Node interface {
	// Init is called once with the node's static context before round 1.
	Init(ctx *Context)
	// Round is called with the messages delivered this round (i.e. sent
	// during the previous round). It returns the messages to send this
	// round and whether the node has terminated. A terminated node that
	// does not sleep is still called in later rounds (it may simply return
	// nil, true); a sleeping node keeps the done value of its last call.
	Round(ctx *Context, round int, inbox []Message) (outbox []Message, done bool)
}

// NodeFactory builds the Node that will run at the given context's node.
// The context is fully initialised (ID, neighbours, input) when the factory
// is invoked.
type NodeFactory func(ctx *Context) Node

// Context is the static, per-node view of the network handed to a Node. It
// corresponds to the paper's assumption that a node knows its own ID, the IDs
// of its neighbours, the weights of its incident edges, the network size n,
// and its problem-specific input, and nothing else about the topology.
type Context struct {
	id        int
	n         int
	bandwidth int
	neighbors []int
	// weights[i] is the weight of the edge to neighbors[i]. The parallel
	// sorted slices replace the old per-node map so that the hot-path
	// lookups (IsNeighbor, EdgeWeight, the simulator's own edge indexing)
	// are a rank scan instead of a hash.
	weights []float64
	input   any
	// rng is built lazily from rngSeed on the first Rand() call: a
	// rand.Rand is several kilobytes of generator state, which at
	// million-node scale would dwarf the topology itself, and most node
	// programs never draw randomness.
	rngSeed int64
	rng     *rand.Rand

	output    any
	outputSet bool

	// wake is the sleep hint left by the current Round call: 0 when the
	// node stays awake, otherwise the round by which it must be stepped
	// again (math.MaxInt for Sleep). The round loop clears it before every
	// Round call.
	wake int
}

// ID returns this node's identifier (0..n-1).
func (c *Context) ID() int { return c.id }

// N returns the number of nodes in the network.
func (c *Context) N() int { return c.n }

// Bandwidth returns the per-edge, per-round bit budget B.
func (c *Context) Bandwidth() int { return c.bandwidth }

// Degree returns the number of neighbours.
func (c *Context) Degree() int { return len(c.neighbors) }

// Neighbors returns the IDs of the neighbours in ascending order. The slice
// is a copy and may be modified by the caller.
func (c *Context) Neighbors() []int {
	out := make([]int, len(c.neighbors))
	copy(out, c.neighbors)
	return out
}

// NeighborAt returns the i-th neighbour in ascending-ID order, 0 <= i <
// Degree(). Together with Degree it is the zero-alloc form of Neighbors().
func (c *Context) NeighborAt(i int) int { return c.neighbors[i] }

// ForEachNeighbor calls f for every neighbour in ascending-ID order without
// copying the neighbour list.
func (c *Context) ForEachNeighbor(f func(v int)) {
	for _, v := range c.neighbors {
		f(v)
	}
}

// IsNeighbor reports whether v is adjacent to this node.
func (c *Context) IsNeighbor(v int) bool { return c.neighborRank(v) >= 0 }

// EdgeWeight returns the weight of the edge to neighbour v.
func (c *Context) EdgeWeight(v int) (float64, bool) {
	r := c.neighborRank(v)
	if r < 0 {
		return 0, false
	}
	return c.weights[r], true
}

// neighborRank returns v's index in the sorted neighbour list, or -1 when v
// is not a neighbour. Real topologies are dominated by small degrees, where
// a linear scan beats binary search; large degrees fall back to the search.
func (c *Context) neighborRank(v int) int {
	ns := c.neighbors
	if len(ns) <= 16 {
		for i, u := range ns {
			if u == v {
				return i
			}
		}
		return -1
	}
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ns) && ns[lo] == v {
		return lo
	}
	return -1
}

// Input returns the problem-specific input assigned to this node via
// Network.SetInput (nil if none).
func (c *Context) Input() any { return c.input }

// Rand returns this node's private deterministic random source. Nodes at
// different IDs receive independent streams; re-running the same network
// with the same seed reproduces the same stream (the paper's algorithms are
// Monte Carlo, so reproducibility matters for tests). The source is
// constructed on first use, so runs whose node programs never draw
// randomness pay nothing for it.
func (c *Context) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.rngSeed))
	}
	return c.rng
}

// SetOutput records the node's final output for the problem being solved.
func (c *Context) SetOutput(v any) {
	c.output = v
	c.outputSet = true
}

// Output returns the node's recorded output and whether one was set.
func (c *Context) Output() (any, bool) { return c.output, c.outputSet }

// Sleep asks the simulator not to step this node again until a message
// arrives for it. It is a hint about the rounds after the current one and
// only counts when called from Round; the last Sleep or SleepUntil of a
// Round call wins.
//
// By calling it the program promises that, in every round it skips, Round
// on an empty inbox would return (nil, the same done) and change no state:
// no output, no randomness drawn, nothing it would behave differently on
// later. The skipped rounds are then indistinguishable from stepped ones,
// which is what keeps a run's Result and trace identical to one that steps
// every node every round. The node keeps the done value it just returned
// while it sleeps.
func (c *Context) Sleep() { c.wake = math.MaxInt }

// SleepUntil is Sleep with an alarm: the node is stepped again in round r,
// or earlier if a message arrives for it. A round r no later than the next
// one is no sleep at all, and a round past Options.MaxRounds is Sleep. The
// same promise as Sleep's covers the skipped rounds.
func (c *Context) SleepUntil(r int) { c.wake = r }

// Errors reported by the simulator.
var (
	// ErrBandwidthExceeded reports that a node attempted to send more than B
	// bits over a single edge in a single round.
	ErrBandwidthExceeded = errors.New("congest: bandwidth exceeded")
	// ErrNotNeighbor reports a message addressed to a non-neighbour.
	ErrNotNeighbor = errors.New("congest: message to non-neighbour")
	// ErrNoTopology reports a network constructed without a topology.
	ErrNoTopology = errors.New("congest: nil topology")
	// ErrBandwidthTooLarge reports a bandwidth the per-edge accounting
	// cannot hold: above math.MaxInt32 bits per round.
	ErrBandwidthTooLarge = errors.New("congest: bandwidth above 2^31-1 bits per round")
	// ErrRoundLimit reports that the round limit was reached before all
	// nodes terminated.
	ErrRoundLimit = errors.New("congest: round limit reached before termination")
	// ErrCancelled reports that Options.Cancel requested a stop before all
	// nodes terminated.
	ErrCancelled = errors.New("congest: run cancelled")
)

// Topology is the read-only view of the underlying graph that the simulator
// needs. *graph.Graph satisfies it.
type Topology interface {
	N() int
	Neighbors(v int) []int
	Weight(u, v int) (float64, bool)
}

// IndexedTopology is the optional fast-path extension of Topology: a
// topology that can enumerate each vertex's incident edges by rank, in
// ascending neighbour-ID order, without allocating. For such a topology the
// simulator builds every per-node context from two shared flat arrays — no
// per-node Neighbors copy, no per-node sort, no per-edge Weight lookup —
// which is what makes million-node run construction feasible. *graph.CSR
// implements it; implementations must return neighbours in strictly
// ascending ID order or the simulator's edge index is undefined.
type IndexedTopology interface {
	Topology
	// Degree returns the number of neighbours of v.
	Degree(v int) int
	// Neighbor returns the i-th neighbour of v in ascending-ID order and
	// the weight of the connecting edge, 0 <= i < Degree(v).
	Neighbor(v, i int) (int, float64)
}

// Network is a configured CONGEST(B) network ready to run algorithms.
// A Network may be reused for several runs; per-run state lives in Run.
type Network struct {
	topo      Topology
	bandwidth int
	seed      int64
	inputs    map[int]any
}

// NewNetwork returns a network over the given topology with per-edge
// bandwidth B (bits per round per direction). If bandwidth <= 0,
// DefaultBandwidth is used; a bandwidth above math.MaxInt32 is rejected with
// ErrBandwidthTooLarge, because the round loop counts each edge's bits in an
// int32.
func NewNetwork(topo Topology, bandwidth int) (*Network, error) {
	if topo == nil {
		return nil, ErrNoTopology
	}
	if bandwidth > math.MaxInt32 {
		return nil, fmt.Errorf("%w: B=%d", ErrBandwidthTooLarge, bandwidth)
	}
	if bandwidth <= 0 {
		bandwidth = DefaultBandwidth
	}
	return &Network{
		topo:      topo,
		bandwidth: bandwidth,
		seed:      1,
		inputs:    make(map[int]any),
	}, nil
}

// SetSeed fixes the seed from which all per-node random streams are derived.
func (nw *Network) SetSeed(seed int64) { nw.seed = seed }

// SetInput assigns a problem-specific input to node id. It silently ignores
// out-of-range ids (they cannot correspond to any node).
func (nw *Network) SetInput(id int, input any) {
	if id < 0 || id >= nw.topo.N() {
		return
	}
	nw.inputs[id] = input
}

// ClearInputs removes all per-node inputs.
func (nw *Network) ClearInputs() { nw.inputs = make(map[int]any) }

// Bandwidth returns the configured per-edge bandwidth.
func (nw *Network) Bandwidth() int { return nw.bandwidth }

// Size returns the number of nodes.
func (nw *Network) Size() int { return nw.topo.N() }

// RoundTraffic splits one round's wire traffic into classical bits and
// qubits (messages sent with Message.Quantum set), plus the number of
// messages delivered — the per-round feed of the observability layer's
// histograms (internal/obs via engine.StageObserver).
type RoundTraffic struct {
	Messages      int
	ClassicalBits int64
	QuantumBits   int64
}

// Result summarises one run of an algorithm.
type Result struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Terminated reports whether every node signalled done within the limit.
	Terminated bool
	// TotalMessages is the number of messages delivered.
	TotalMessages int
	// TotalBits is the number of bits sent over all edges in all rounds,
	// classical and quantum together.
	TotalBits int64
	// QuantumBits is the subset of TotalBits carried by quantum-marked
	// messages (qubits on the wire).
	QuantumBits int64
	// PerRound is the round-by-round quantum-vs-classical split of the wire
	// traffic; PerRound[r-1] describes round r. It is recorded only when
	// Options.PerRound is set (aggregate QuantumBits always is).
	PerRound []RoundTraffic
	// MaxEdgeBitsPerRound is the maximum number of bits observed on any
	// single directed edge in any single round (always <= bandwidth).
	MaxEdgeBitsPerRound int
	// Outputs maps node ID to the output recorded via Context.SetOutput.
	Outputs map[int]any
}

// Options configures a run.
type Options struct {
	// MaxRounds limits the number of rounds; if the limit is hit before all
	// nodes terminate, Run returns the partial result and ErrRoundLimit.
	// Zero means a default of 64*n + 64 rounds.
	MaxRounds int
	// Trace, if non-nil, is invoked for every accepted message with the
	// round in which it was sent, in deterministic sender-ID order (outbox
	// order within a sender). It is used by the Simulation Theorem engine
	// (internal/simulation) to re-account each message to the party that
	// owns its sender, and by the Grover backend to measure stream volume.
	// Tracing no longer forces the sequential merge: under Workers > 1 the
	// validate phase records accepted messages into per-worker buffers and
	// the round's barrier folds them back into sender-ID order before the
	// callback runs, so the observed event stream is identical to a
	// sequential run's (the callback itself always executes on one
	// goroutine, after validation, never concurrently).
	Trace func(round int, msg Message)
	// Workers selects how many goroutines step nodes and merge traffic
	// within each round. Values <= 1 run sequentially. Any value produces
	// bit-for-bit identical Results: nodes only interact through messages
	// delivered at round boundaries, each node owns a private random
	// stream, every per-round quantity is a sum or max folded in
	// deterministic order, and messages are delivered at positions computed
	// from the CSR edge index, independent of worker scheduling.
	Workers int
	// Cancel, if non-nil, is polled once per round before the round's nodes
	// step; when it returns true, Run stops and returns the partial result
	// with ErrCancelled. It is how the experiment harness makes a
	// per-scenario timeout actually terminate the simulating goroutine
	// instead of abandoning it mid-sweep.
	Cancel func() bool
	// PerRound opts into recording Result.PerRound, the round-by-round
	// classical/quantum traffic split; long sweeps leave it off and pay
	// nothing for the breakdown.
	PerRound bool
}

// Run executes the algorithm produced by factory on every node and returns
// run statistics. It is deterministic for a fixed seed.
//
// The round loop is steady-state allocation-free: the per-run state below
// (CSR edge index, flat bandwidth tables, double-buffered inboxes, the
// active list) is built once, and each round only resets lengths and
// counters. A node's inbox slice is therefore valid only for the duration
// of the Round call that receives it — the buffer is reused for a later
// round's delivery (payload values themselves are never touched; only the
// []Message backing array is recycled). A round steps only the active
// nodes, those that did not sleep, got a message or hit their SleepUntil
// round, so its cost is O(active + traffic) rather than O(n). See
// DESIGN.md, "The congest hot path".
func (nw *Network) Run(factory NodeFactory, opts Options) (*Result, error) {
	st, err := newRunState(nw, factory, opts)
	if err != nil {
		return nil, err
	}
	defer st.close()
	return st.run()
}

// runState is the per-run working set of Network.Run. Everything in it is
// allocated before round 1 and reused by every round.
type runState struct {
	nw   *Network
	opts Options
	n    int
	res  *Result

	ctxs  []*Context
	nodes []Node
	// done is every node's last reported done; notDone counts the false
	// entries, so termination is an O(1) test. Workers update it only when
	// a node's done flips, which is rare, hence the atomic.
	done    []bool
	notDone atomic.Int64

	// inboxes are the messages delivered this round; next is the buffer
	// the current round's traffic is staged into. The two swap at every
	// round boundary. Every non-empty inbox belongs to a node that steps
	// this round and is length-reset right after it steps, so the staging
	// buffer is all empty when it comes round again.
	inboxes  [][]Message
	next     [][]Message
	outboxes [][]Message

	// The active set. active lists this round's nodes in ascending ID
	// order; only they step, send and are merged. The next round's list
	// is built during the round: keep collects the nodes that did not
	// sleep (already in order, being a subsequence of active), fresh
	// collects receivers and due timers not already queued, and the two
	// are merged. queued[v] is set while v is on the list being built and
	// cleared when v steps; the parallel validate phase sets it with a
	// compare-and-swap. wakeAt[v] is v's armed SleepUntil round (0 when
	// none), which tells live timers from stale ones.
	active []int32
	keep   []int32
	fresh  []int32
	queued []uint32
	wakeAt []int
	timers timerHeap

	// The CSR edge index. Directed edge (v -> u) has slot
	// offsets[v] + rank of u in v's sorted neighbour list; node v owns
	// slots offsets[v]..offsets[v+1]. inSlot is the reverse view used by
	// the parallel merge: in-edge i of receiver u (from its i-th smallest
	// neighbour) is slot inSlot[offsets[u]+i].
	offsets []int32
	inSlot  []int32

	// Flat per-directed-edge tables, indexed by slot and reset via the
	// touched lists so a quiet round costs O(traffic), not O(m).
	// NewNetwork caps the bandwidth at math.MaxInt32, so the int32 bit
	// counts cannot overflow.
	edgeBits []int32 // bits charged this round
	edgeMsgs []int32 // messages staged this round
	basePos  []int32 // parallel merge: first inbox position of the slot
	cursor   []int32 // parallel merge: next free offset within the slot
	touched  []int32 // slots charged this round (sequential merge)

	round      int
	anyMessage bool

	// Parallel execution (Options.Workers > 1): a pool of goroutines that
	// lives for the whole run, per-worker accounting scratch, and the
	// phase closures built once so rounds allocate nothing.
	pool        *workerPool
	scratch     []mergeScratch
	panics      []any
	panicked    atomic.Bool
	mergeFailed atomic.Bool
	nextNode    atomic.Int64
	stepJob     func(w int)
	validateJob func(w int)
	sizeJob     func(w int)
	scatterJob  func(w int)
	// wokenBufs[w] holds the receivers worker w queued during the
	// validate phase; they are folded into fresh after the barrier.
	wokenBufs [][]int32
	// The parallel round tracer (Options.Trace with Workers > 1): each
	// worker appends the messages it accepts during the validate phase to
	// its own reused buffer. A worker's successive claims cover strictly
	// increasing stretches of the sorted active list and every sender is
	// claimed by exactly one worker, so each buffer is sorted by sender ID
	// and the buffers partition the round's senders — emitTrace merges
	// them back into the exact sequential callback order after the
	// barrier.
	traceBufs [][]Message
	traceIdx  []int
	// asymmetric marks a degenerate Topology whose neighbour lists are not
	// symmetric; the reverse edge index is unusable then, so the merge
	// stays on the sequential path.
	asymmetric bool
}

func newRunState(nw *Network, factory NodeFactory, opts Options) (*runState, error) {
	n := nw.topo.N()
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 64*n + 64
	}
	st := &runState{
		nw:   nw,
		opts: opts,
		n:    n,
		res:  &Result{Outputs: make(map[int]any, n)},
	}

	// Contexts are slab-allocated: one backing array instead of n small
	// heap objects. An IndexedTopology additionally gets its neighbour and
	// weight lists carved out of two shared flat arrays (already sorted by
	// contract), skipping the per-node copy/sort/Weight-lookup detour of
	// the generic path.
	st.ctxs = make([]*Context, n)
	st.nodes = make([]Node, n)
	ctxSlab := make([]Context, n)
	if ix, ok := nw.topo.(IndexedTopology); ok {
		total := 0
		for v := 0; v < n; v++ {
			total += ix.Degree(v)
		}
		flatNbrs := make([]int, total)
		flatWts := make([]float64, total)
		pos := 0
		for v := 0; v < n; v++ {
			deg := ix.Degree(v)
			nbrs := flatNbrs[pos : pos+deg : pos+deg]
			wts := flatWts[pos : pos+deg : pos+deg]
			for i := 0; i < deg; i++ {
				nbrs[i], wts[i] = ix.Neighbor(v, i)
			}
			pos += deg
			ctxSlab[v] = Context{
				id:        v,
				n:         n,
				bandwidth: nw.bandwidth,
				neighbors: nbrs,
				weights:   wts,
				input:     nw.inputs[v],
				rngSeed:   nw.seed*1_000_003 + int64(v),
			}
			st.ctxs[v] = &ctxSlab[v]
		}
	} else {
		for v := 0; v < n; v++ {
			nbrs := nw.topo.Neighbors(v)
			sort.Ints(nbrs)
			neighbors := make([]int, 0, len(nbrs))
			weights := make([]float64, 0, len(nbrs))
			for _, u := range nbrs {
				if w, ok := nw.topo.Weight(v, u); ok {
					neighbors = append(neighbors, u)
					weights = append(weights, w)
				}
			}
			ctxSlab[v] = Context{
				id:        v,
				n:         n,
				bandwidth: nw.bandwidth,
				neighbors: neighbors,
				weights:   weights,
				input:     nw.inputs[v],
				rngSeed:   nw.seed*1_000_003 + int64(v),
			}
			st.ctxs[v] = &ctxSlab[v]
		}
	}
	for v := 0; v < n; v++ {
		st.nodes[v] = factory(st.ctxs[v])
		if st.nodes[v] == nil {
			return nil, fmt.Errorf("congest: factory returned nil node for id %d", v)
		}
	}
	for v := 0; v < n; v++ {
		st.nodes[v].Init(st.ctxs[v])
	}

	// CSR edge index over the contexts' sorted neighbour lists.
	st.offsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		st.offsets[v+1] = st.offsets[v] + int32(len(st.ctxs[v].neighbors))
	}
	slots := st.offsets[n]
	st.edgeBits = make([]int32, slots)
	st.edgeMsgs = make([]int32, slots)

	st.inboxes = make([][]Message, n)
	st.next = make([][]Message, n)
	st.outboxes = make([][]Message, n)
	st.done = make([]bool, n)
	st.notDone.Store(int64(n))

	// Every node steps in round 1.
	st.active = make([]int32, n)
	for v := range st.active {
		st.active[v] = int32(v)
	}
	st.keep = make([]int32, 0, n)
	st.queued = make([]uint32, n)
	st.wakeAt = make([]int, n)

	workers := min(opts.Workers, n)
	if workers <= 1 {
		return st, nil
	}
	// The parallel merge's reverse edge index and delivery tables; the
	// sequential merge needs neither.
	st.inSlot = make([]int32, slots)
	for u := 0; u < n; u++ {
		for i, v := range st.ctxs[u].neighbors {
			r := st.ctxs[v].neighborRank(u)
			if r < 0 {
				st.asymmetric = true
				continue
			}
			st.inSlot[st.offsets[u]+int32(i)] = st.offsets[v] + int32(r)
		}
	}
	st.basePos = make([]int32, slots)
	st.cursor = make([]int32, slots)
	st.pool = newWorkerPool(workers)
	st.scratch = make([]mergeScratch, workers)
	st.panics = make([]any, n)
	st.stepJob = st.stepWorker
	st.validateJob = st.validateWorker
	st.sizeJob = st.sizeWorker
	st.scatterJob = st.scatterWorker
	st.wokenBufs = make([][]int32, workers)
	if opts.Trace != nil {
		st.traceBufs = make([][]Message, workers)
		st.traceIdx = make([]int, workers)
	}
	return st, nil
}

// close releases the worker pool; it is safe on the sequential path.
func (st *runState) close() {
	if st.pool != nil {
		st.pool.close()
	}
}

func (st *runState) run() (*Result, error) {
	res := st.res
	for round := 1; round <= st.opts.MaxRounds; round++ {
		if st.opts.Cancel != nil && st.opts.Cancel() {
			st.collectOutputs()
			return res, fmt.Errorf("%w: before round %d", ErrCancelled, round)
		}
		res.Rounds = round
		st.step(round)
		st.settle(round)
		if err := st.merge(round); err != nil {
			st.collectOutputs()
			return res, err
		}
		st.inboxes, st.next = st.next, st.inboxes
		st.active, st.keep = st.keep, st.active[:0]
		if st.notDone.Load() == 0 && !st.anyMessage {
			res.Terminated = true
			break
		}
	}
	st.collectOutputs()
	if !res.Terminated {
		return res, fmt.Errorf("%w: after %d rounds", ErrRoundLimit, res.Rounds)
	}
	return res, nil
}

// collectOutputs copies every node's recorded output into the result. It
// runs on every exit path — success, round limit, cancellation and message
// validation errors alike — so partial results always carry whatever the
// nodes managed to decide.
func (st *runState) collectOutputs() {
	for v := 0; v < st.n; v++ {
		if out, ok := st.ctxs[v].Output(); ok {
			st.res.Outputs[v] = out
		}
	}
}

// step invokes Round on every active node for the given round, filling
// outboxes and done.
func (st *runState) step(round int) {
	st.round = round
	if st.pool == nil {
		for _, v := range st.active {
			if p := st.stepOne(int(v)); p != nil {
				panic(panicText(int(v), round, p))
			}
		}
		return
	}
	st.panicked.Store(false)
	st.nextNode.Store(0)
	st.pool.run(st.stepJob)
	if st.panicked.Load() {
		// Re-raise the panic of the lowest-ID panicking node, so a failing
		// run reports identically whatever the worker count or scheduling.
		for _, v := range st.active {
			if p := st.panics[v]; p != nil {
				panic(panicText(int(v), round, p))
			}
		}
	}
}

// stepOne runs one node's Round and returns its panic value, if any, so the
// caller can surface it deterministically. It takes the node off the list
// being built, clears its sleep hint before the call and its inbox after.
func (st *runState) stepOne(v int) (panicked any) {
	defer func() { panicked = recover() }()
	st.queued[v] = 0
	ctx := st.ctxs[v]
	ctx.wake = 0
	out, done := st.nodes[v].Round(ctx, st.round, st.inboxes[v])
	st.outboxes[v] = out
	st.inboxes[v] = st.inboxes[v][:0]
	if done != st.done[v] {
		st.done[v] = done
		if done {
			st.notDone.Add(-1)
		} else {
			st.notDone.Add(1)
		}
	}
	return nil
}

// settle reads the sleep hints the active nodes just left: a node that
// stays awake goes on next round's list, a SleepUntil arms a timer, and a
// Sleep (or an alarm past the round limit) leaves the node to be woken by
// a message.
func (st *runState) settle(round int) {
	for _, v := range st.active {
		switch wake := st.ctxs[v].wake; {
		case wake <= round+1:
			st.wakeAt[v] = 0
			st.queued[v] = 1
			st.keep = append(st.keep, v)
		case wake > st.opts.MaxRounds:
			st.wakeAt[v] = 0
		case wake != st.wakeAt[v]:
			// Re-arming the same round keeps its heap entry; only a new
			// round needs one.
			st.wakeAt[v] = wake
			st.timers.push(timer{at: wake, v: v})
		}
	}
}

// merge validates, accounts and delivers the round's traffic, then builds
// next round's active list. The parallel path requires the reverse edge
// index, so asymmetric topologies stay sequential; tracing runs on either
// path (see the parallel round tracer in parallel.go).
func (st *runState) merge(round int) error {
	st.anyMessage = false
	if st.pool == nil || st.asymmetric {
		if err := st.mergeSeq(round); err != nil {
			return err
		}
		st.buildNext(round)
		return nil
	}
	return st.mergePar(round)
}

// queue puts receiver u on next round's list unless it is already there.
func (st *runState) queue(u int) {
	if st.queued[u] == 0 {
		st.queued[u] = 1
		st.fresh = append(st.fresh, int32(u))
	}
}

// buildNext completes next round's active list in keep: it adds the
// sleepers whose alarm rings next round to the woken receivers in fresh,
// sorts those, and merges them into keep, which is already in ID order. The
// merge runs backwards in place, so no buffer beyond keep's capacity is
// needed.
func (st *runState) buildNext(round int) {
	for len(st.timers) > 0 && st.timers[0].at <= round+1 {
		t := st.timers.pop()
		if st.wakeAt[t.v] == t.at {
			st.wakeAt[t.v] = 0
			st.queue(int(t.v))
		}
	}
	if len(st.fresh) == 0 {
		return
	}
	slices.Sort(st.fresh)
	i, j := len(st.keep)-1, len(st.fresh)-1
	st.keep = append(st.keep, st.fresh...)
	for k := len(st.keep) - 1; j >= 0; k-- {
		if i >= 0 && st.keep[i] > st.fresh[j] {
			st.keep[k] = st.keep[i]
			i--
		} else {
			st.keep[k] = st.fresh[j]
			j--
		}
	}
	st.fresh = st.fresh[:0]
}

// mergeSeq is the sequential merge: one pass over the active senders in ID
// order, appending into the reused next-inbox buffers and queuing each
// receiver. It is also the reference semantics the parallel path replays on
// its (cold) error paths, so the two return bit-for-bit identical partial
// results.
func (st *runState) mergeSeq(round int) error {
	res := st.res
	bandwidth := st.nw.bandwidth
	var traffic RoundTraffic
	for _, v32 := range st.active {
		v := int(v32)
		ctx := st.ctxs[v]
		base := st.offsets[v]
		for _, msg := range st.outboxes[v] {
			msg.From = v
			r := ctx.neighborRank(msg.To)
			if r < 0 {
				st.resetEdgeTables()
				return fmt.Errorf("%w: node %d -> %d in round %d", ErrNotNeighbor, v, msg.To, round)
			}
			if msg.Bits < 0 {
				msg.Bits = 0
			}
			slot := base + int32(r)
			if st.edgeMsgs[slot] == 0 {
				st.touched = append(st.touched, slot)
			}
			total := int(st.edgeBits[slot]) + msg.Bits
			if total > bandwidth {
				st.resetEdgeTables()
				return fmt.Errorf("%w: node %d -> %d sent %d bits in round %d (B=%d)",
					ErrBandwidthExceeded, v, msg.To, total, round, bandwidth)
			}
			st.edgeBits[slot] = int32(total)
			st.edgeMsgs[slot]++
			st.next[msg.To] = append(st.next[msg.To], msg)
			st.queue(msg.To)
			traffic.Messages++
			res.TotalMessages++
			res.TotalBits += int64(msg.Bits)
			if msg.Quantum {
				res.QuantumBits += int64(msg.Bits)
				traffic.QuantumBits += int64(msg.Bits)
			} else {
				traffic.ClassicalBits += int64(msg.Bits)
			}
			st.anyMessage = true
			if st.opts.Trace != nil {
				st.opts.Trace(round, msg)
			}
			if total > res.MaxEdgeBitsPerRound {
				res.MaxEdgeBitsPerRound = total
			}
		}
	}
	if st.opts.PerRound {
		res.PerRound = append(res.PerRound, traffic)
	}
	st.resetEdgeTables()
	return nil
}

// resetEdgeTables zeroes only the slots the round actually charged, so the
// per-round cost tracks traffic rather than graph size.
func (st *runState) resetEdgeTables() {
	for _, slot := range st.touched {
		st.edgeBits[slot] = 0
		st.edgeMsgs[slot] = 0
	}
	st.touched = st.touched[:0]
}

// timer is an armed SleepUntil: node v is due back in round at.
type timer struct {
	at int
	v  int32
}

// timerHeap is a binary min-heap of timers by round, written out rather
// than built on container/heap, whose Push boxes every entry. Entries are
// never removed early: a node woken by a message before its alarm, or
// re-armed for another round, leaves a stale entry behind, and wakeAt tells
// the two apart when the entry surfaces.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *timerHeap) pop() timer {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(s) && s[l].at < s[least].at {
			least = l
		}
		if r < len(s) && s[r].at < s[least].at {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}
