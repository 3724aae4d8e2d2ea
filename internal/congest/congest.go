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
// The simulator is engineered for scale. A Message is 32 bytes with no
// pointers; boxed content lives out of line in its sender's table (see
// payload.go). Every round runs the same phases at any Options.Workers —
// step, validate, size one flat inbox arena, scatter into it — on the
// calling goroutine or on a persistent pool, allocation-free in steady
// state and bit-for-bit equal across worker counts. An IndexedTopology
// (such as *graph.CSR) is adopted without per-node copies. Only active
// nodes step: a node with nothing to do until a message arrives, or until
// a given round, says so with Context.Sleep or Context.SleepUntil, so a
// round costs O(active + traffic) rather than O(n). See DESIGN.md, "The
// congest hot path" and "Compact payloads and streaming topologies".
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
// A Message is 32 bytes and holds no pointers, so outboxes, inboxes and the
// delivery arena are plain memory the garbage collector never scans. It
// carries its content in one of two representations. Word-encoded messages
// (Kind != KindBoxed) pack the content into the two inline words W0 and W1
// and are what the hot-path algorithms in internal/dist send. Boxed
// messages (Kind == KindBoxed) carry arbitrary structured content out of
// line: the boxed constructors in payload.go store it in a table owned by
// the sending node and put a handle in W0, and the receiver reads it back
// with Context.Payload. The simulator treats both identically: only Bits is
// charged against the bandwidth budget, and the delivery, trace and
// accounting paths never look inside either representation.
type Message struct {
	// From and To are node IDs; To must be a neighbour of From. From is
	// filled in by the simulator.
	From, To int32
	// Bits is the size charged against the per-edge, per-round budget. The
	// constructors saturate sizes beyond the int32 range, so an oversized
	// message fails validation instead of wrapping round.
	Bits int32
	// Quantum marks the message as carrying qubits rather than classical
	// bits. The paper's quantum CONGEST model (Section 2.1) charges qubits
	// against the same per-edge bandwidth B, so the budget check is
	// identical; the split only matters for accounting — Result reports
	// quantum and classical wire traffic separately, which is what the
	// Grover re-accounting backend (engine.NewQuantum) and any future
	// genuinely quantum node program feed on.
	Quantum bool
	// Kind tags a word-encoded message. KindBoxed (the zero value) means
	// the content is boxed and W0/W1 locate it; any other value is
	// algorithm-defined and says how to decode W0/W1. Kinds are scoped to
	// one node program — the simulator never interprets them — so
	// algorithms declare their own small constants starting at 1.
	Kind uint8
	// W0 and W1 are the inline payload words of a word-encoded message.
	// The typed accessors (Int0, Int1, Bool0, …) and the pack helpers
	// (PackIDs, WordFromBool) in payload.go are the supported encodings.
	// A boxed message keeps its handle in W0 and its owner's ID in W1.
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
	//
	// The inbox is a window on the round's delivery arena and is valid only
	// until Round returns: a later round reuses the memory. A node that
	// needs a message later copies it (Messages are plain values, so an
	// assignment or append does). The outbox is only read, never modified
	// or kept past the round, so a node may return the same slice every
	// round.
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
	id int
	// run is what every context of the run shares: n, B, and the contexts
	// ctx.Payload resolves boxed messages through.
	run       *runInfo
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

	// boxes holds the contents of the boxed messages this node built; the
	// first boxed constructor allocates it, so word-only nodes carry a nil
	// pointer (see payload.go).
	boxes *boxTable
}

// runInfo is the part of a run every Context points at: the network's size
// and bandwidth, and the run's contexts, through which Context.Payload
// reaches a boxed message's owner. One pointer to it stands in for
// per-context copies of n and B.
type runInfo struct {
	n, bandwidth int
	ctxs         []Context
}

// ID returns this node's identifier (0..n-1).
func (c *Context) ID() int { return c.id }

// N returns the number of nodes in the network.
func (c *Context) N() int { return c.run.n }

// Bandwidth returns the per-edge, per-round bit budget B.
func (c *Context) Bandwidth() int { return c.run.bandwidth }

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
	// order within a sender), with From filled in and a negative Bits
	// clamped to 0. It is used by the Simulation Theorem engine
	// (internal/simulation) to re-account each message to the party that
	// owns its sender, and by the Grover backend to measure stream volume.
	// The validate phase records accepted messages into per-worker buffers
	// and the round folds them back into sender-ID order before the
	// callback runs, so the event stream is the same at every worker count;
	// the callback always executes on one goroutine, after validation,
	// never concurrently. A boxed message is traced with its handle, which
	// is the same at every worker count.
	Trace func(round int, msg Message)
	// Workers selects how many goroutines step nodes and deliver traffic
	// within each round. Values <= 1 run every phase on the calling
	// goroutine. Any value produces bit-for-bit identical Results: nodes
	// only interact through messages delivered at round boundaries, each
	// node owns a private random stream, every per-round quantity is a sum
	// or max folded in deterministic order, and each inbox holds its
	// messages in the order computed from the in-edge index, independent of
	// worker scheduling.
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
// (CSR edge index and its in-edge view, flat per-edge tables, the
// double-buffered inbox arena, the active list) is built once, and each
// round only resets lengths and counters. A round steps only the active
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
	runInfo
	opts Options
	res  *Result

	nodes []Node
	// done is every node's last reported done; notDone counts the false
	// entries, so termination is an O(1) test. Workers update it only when
	// a node's done flips, which is rare, hence the atomic.
	done    []bool
	notDone atomic.Int64

	// outboxes[v] is what v returned from its last Round; scatter drops it,
	// so a one-shot outbox is garbage once delivered.
	outboxes [][]Message
	// The inbox arena. This round's inboxes live in arena[cur] and next
	// round's are scattered into arena[cur^1], so an outbox that aliases an
	// inbox is never overwritten while it is read. inbox[v] locates v's
	// inbox in arena[cur]: the size phase sets it for every node on next
	// round's list, and stepping v empties it. Each arena is sized from its
	// round's traffic and grows only to the busiest round.
	arena    [2][]Message
	cur      int
	inbox    []span
	arenaTop atomic.Int64 // next free arena position in the size phase

	// The active set. active lists this round's nodes in ascending ID
	// order; only they step, send and are delivered from. The next round's
	// list is built during the round: keep collects the nodes that did not
	// sleep (already in order, being a subsequence of active), fresh
	// collects receivers and due timers not already queued, and the two
	// are merged. queued[v] is set while v is on the list being built and
	// cleared when v steps; the validate phase sets it with a
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
	// slots offsets[v]..offsets[v+1]. The in-edge index is the reverse
	// view: receiver u's in-slots are inSlots[inOffsets[u]:inOffsets[u+1]],
	// in ascending sender ID. It is built by counting out-slots per
	// receiver, so it also holds for a Topology whose neighbour lists are
	// not symmetric; for a symmetric one inOffsets is offsets.
	offsets   []int32
	inOffsets []int32
	inSlots   []int32

	// Flat per-directed-edge tables, indexed by slot. Validate charges a
	// slot's bits and counts its messages; size turns each charged slot's
	// count into the arena position one past its last message, kept in
	// edgeBits; scatter counts edgeMsgs back down and clears edgeBits with
	// the slot's last message. Both tables are therefore zero again when a
	// round ends, at a cost proportional to its traffic. NewNetwork caps
	// the bandwidth at math.MaxInt32, so the int32 bit counts cannot
	// overflow.
	edgeBits []int32
	edgeMsgs []int32

	round      int
	anyMessage bool

	// The phases run on pool when Options.Workers > 1 and on the calling
	// goroutine otherwise. scratch holds each worker's state for the round.
	pool     *workerPool
	scratch  []mergeScratch
	failed   atomic.Bool
	nextNode atomic.Int64
	// wokenBufs[w] holds the receivers worker w queued during the
	// validate phase; they are folded into fresh after the barrier.
	wokenBufs [][]int32
	// The round tracer (Options.Trace): each worker appends the messages
	// it accepts during the validate phase to its own reused buffer, which
	// emitTrace merges back into sender-ID order after the barrier.
	traceBufs [][]Message
	traceIdx  []int
}

// span locates one inbox in the arena.
type span struct{ start, n int32 }

func newRunState(nw *Network, factory NodeFactory, opts Options) (*runState, error) {
	n := nw.topo.N()
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 64*n + 64
	}
	st := &runState{
		runInfo: runInfo{n: n, bandwidth: nw.bandwidth},
		opts:    opts,
		res:     &Result{Outputs: make(map[int]any, n)},
	}

	// Contexts are slab-allocated: one backing array instead of n small
	// heap objects. An IndexedTopology additionally gets its neighbour and
	// weight lists carved out of two shared flat arrays (already sorted by
	// contract), skipping the per-node copy/sort/Weight-lookup detour of
	// the generic path.
	st.ctxs = make([]Context, n)
	for v := range st.ctxs {
		st.ctxs[v] = Context{id: v, run: &st.runInfo, input: nw.inputs[v], rngSeed: nw.seed*1_000_003 + int64(v)}
	}
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
			st.ctxs[v].neighbors, st.ctxs[v].weights = nbrs, wts
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
			st.ctxs[v].neighbors, st.ctxs[v].weights = neighbors, weights
		}
	}
	st.nodes = make([]Node, n)
	for v := 0; v < n; v++ {
		st.nodes[v] = factory(&st.ctxs[v])
		if st.nodes[v] == nil {
			return nil, fmt.Errorf("congest: factory returned nil node for id %d", v)
		}
	}
	for v := 0; v < n; v++ {
		st.nodes[v].Init(&st.ctxs[v])
	}

	// CSR edge index over the contexts' sorted neighbour lists, and its
	// in-edge view by a counting pass: count each receiver's in-slots into
	// inOffsets[u+1], prefix-sum, then place the slots with inOffsets[u]
	// as the cursor — senders in ascending order, so each receiver's
	// in-slots come out sorted by sender — and shift the cursors, which
	// now hold the ends, back into starts.
	st.offsets = make([]int32, n+1)
	st.inOffsets = make([]int32, n+1)
	for v := range st.ctxs {
		st.offsets[v+1] = st.offsets[v] + int32(len(st.ctxs[v].neighbors))
		for _, u := range st.ctxs[v].neighbors {
			st.inOffsets[u+1]++
		}
	}
	slots := st.offsets[n]
	for u := 0; u < n; u++ {
		st.inOffsets[u+1] += st.inOffsets[u]
	}
	st.inSlots = make([]int32, slots)
	for v := range st.ctxs {
		for i, u := range st.ctxs[v].neighbors {
			st.inSlots[st.inOffsets[u]] = st.offsets[v] + int32(i)
			st.inOffsets[u]++
		}
	}
	copy(st.inOffsets[1:], st.inOffsets[:n])
	st.inOffsets[0] = 0
	if slices.Equal(st.inOffsets, st.offsets) {
		st.inOffsets = st.offsets
	}
	st.edgeBits = make([]int32, slots)
	st.edgeMsgs = make([]int32, slots)

	st.inbox = make([]span, n)
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

	workers := max(1, min(opts.Workers, n))
	if workers > 1 {
		st.pool = newWorkerPool(st, workers)
	}
	st.scratch = make([]mergeScratch, workers)
	st.wokenBufs = make([][]int32, workers)
	if opts.Trace != nil {
		st.traceBufs = make([][]Message, workers)
		st.traceIdx = make([]int, workers)
	}
	return st, nil
}

// close releases the worker pool, if the run has one.
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

// phase runs job on every worker, or on the calling goroutine when the run
// has one worker, with the shared claim counter reset.
func (st *runState) phase(job phaseJob) {
	st.nextNode.Store(0)
	if st.pool == nil {
		job(st, 0)
		return
	}
	st.pool.run(job)
}

// step invokes Round on every active node for the given round, filling
// outboxes and done. A node panic is re-raised after the phase, as the
// panic of the lowest-ID panicking node, so a failing run reports
// identically whatever the worker count or scheduling.
func (st *runState) step(round int) {
	st.round = round
	clear(st.scratch)
	st.phase((*runState).stepWorker)
	first := -1
	var p any
	for w := range st.scratch {
		if sc := &st.scratch[w]; sc.panicked != nil && (first < 0 || sc.panicNode < first) {
			first, p = sc.panicNode, sc.panicked
		}
	}
	if first >= 0 {
		panic(panicText(first, round, p))
	}
}

// stepOne runs one node's Round and returns its panic value, if any, so the
// caller can surface it deterministically. It takes the node off the list
// being built, clears its sleep hint before the call and empties its inbox
// after.
func (st *runState) stepOne(v int) (panicked any) {
	defer func() { panicked = recover() }()
	st.queued[v] = 0
	ctx := &st.ctxs[v]
	ctx.wake = 0
	in := st.inbox[v]
	end := in.start + in.n
	out, done := st.nodes[v].Round(ctx, st.round, st.arena[st.cur][in.start:end:end])
	st.outboxes[v] = out
	st.inbox[v] = span{}
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

// merge validates, accounts and delivers the round's traffic and builds
// next round's active list. Its phases are described in parallel.go.
func (st *runState) merge(round int) error {
	for w := range st.traceBufs {
		st.traceBufs[w] = st.traceBufs[w][:0]
	}
	st.failed.Store(false)
	st.phase((*runState).validateWorker)
	if st.failed.Load() {
		return st.fail(round)
	}

	res := st.res
	var traffic RoundTraffic
	for w := range st.scratch {
		sc := &st.scratch[w]
		st.account(sc)
		traffic.Messages += sc.totalMessages
		traffic.QuantumBits += sc.quantumBits
		traffic.ClassicalBits += sc.classicalBits
	}
	if st.opts.PerRound {
		res.PerRound = append(res.PerRound, traffic)
	}
	st.anyMessage = traffic.Messages > 0
	if st.traceBufs != nil {
		st.emitTrace(round)
	}
	for w, woken := range st.wokenBufs {
		st.fresh = append(st.fresh, woken...)
		st.wokenBufs[w] = woken[:0]
	}
	st.buildNext(round)
	if st.anyMessage {
		next := &st.arena[st.cur^1]
		*next = slices.Grow((*next)[:0], traffic.Messages)[:traffic.Messages]
		st.arenaTop.Store(0)
		st.phase((*runState).sizeWorker)
		st.phase((*runState).scatterWorker)
		st.cur ^= 1
	}
	return nil
}

// account folds one worker's accepted traffic into the Result.
func (st *runState) account(sc *mergeScratch) {
	res := st.res
	res.TotalMessages += sc.totalMessages
	res.TotalBits += sc.totalBits
	res.QuantumBits += sc.quantumBits
	res.MaxEdgeBitsPerRound = max(res.MaxEdgeBitsPerRound, sc.maxEdgeBits)
}

// fail ends a round whose traffic broke the model. The Result must carry
// exactly the messages before the first bad one in sender order, which is
// what a single worker's validate pass accounts before it stops. With
// several workers each may have charged messages beyond another's failure,
// so the round's tables are wiped and the same validate pass re-run on the
// calling goroutine.
func (st *runState) fail(round int) error {
	if st.pool != nil {
		for _, v := range st.active {
			clear(st.edgeBits[st.offsets[v]:st.offsets[v+1]])
			clear(st.edgeMsgs[st.offsets[v]:st.offsets[v+1]])
		}
		clear(st.scratch)
		for w := range st.traceBufs {
			st.traceBufs[w] = st.traceBufs[w][:0]
		}
		st.failed.Store(false)
		st.nextNode.Store(0)
		st.validateWorker(0)
	}
	st.account(&st.scratch[0])
	if st.traceBufs != nil {
		st.emitTrace(round)
	}
	return st.scratch[0].err
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
			if st.queued[t.v] == 0 {
				st.queued[t.v] = 1
				st.fresh = append(st.fresh, t.v)
			}
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
