package congest

import (
	"fmt"
	"testing"

	"qdc/internal/graph"
)

// measureRunAllocs returns the average heap allocations of one full Run of
// the given workload for the given round count.
func measureRunAllocs(t *testing.T, topo Topology, workers, rounds int, node func(rounds int) Node) float64 {
	t.Helper()
	nw, err := NewNetwork(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(*Context) Node { return node(rounds) }
	opts := Options{MaxRounds: rounds + 4, Workers: workers}
	return testing.AllocsPerRun(5, func() {
		if _, err := nw.Run(factory, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// staggeredNode keeps the active set churning: node v broadcasts only in
// rounds r with (v+r) % 3 == 0 and otherwise sleeps until its next such
// round, so every round some nodes wake by alarm, others by message, and
// alarms go stale. An empty inbox never changes its state, as the sleep
// contract requires.
type staggeredNode struct {
	rounds int
	outbox []Message
}

func (s *staggeredNode) Init(ctx *Context) {
	s.outbox = BroadcastAll(ctx, 1, 8)
}

func (s *staggeredNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round > s.rounds {
		ctx.Sleep()
		return nil, true
	}
	if (ctx.ID()+round)%3 == 0 {
		ctx.SleepUntil(round + 3)
		return s.outbox, false
	}
	ctx.SleepUntil(round + 3 - (ctx.ID()+round)%3)
	return nil, false
}

// boxedEchoNode boxes its payload once in Init and re-sends the same outbox
// every round, and resolves every message it receives through ctx.Payload,
// so both ends of the boxed path are in the measured steady state.
type boxedEchoNode struct {
	rounds int
	outbox []Message
	heard  int
}

func (b *boxedEchoNode) Init(ctx *Context) {
	b.outbox = BroadcastAll(ctx, [2]int{ctx.ID(), 1}, 8)
}

func (b *boxedEchoNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if p, ok := ctx.Payload(m).([2]int); ok {
			b.heard += p[1]
		}
	}
	if round > b.rounds {
		return nil, true
	}
	return b.outbox, false
}

// TestAppendConstructorsAllocFree pins the contract the Into constructors
// advertise: appending into a slice with retained capacity allocates nothing,
// so a node that keeps one outbox across rounds builds its messages entirely
// off the heap. The boxed variants are measured with a pre-boxed payload —
// boxing the value into an interface is the caller's business. Each boxed
// call adds one entry to the sender's box table, which allocates only when
// the table doubles, so the per-call average rounds to zero.
func TestAppendConstructorsAllocFree(t *testing.T) {
	nw, err := NewNetwork(graph.Star(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	var hub *Context
	if _, err := nw.Run(func(ctx *Context) Node {
		if ctx.ID() == 0 {
			hub = ctx
		}
		return &benchFloodNode{rounds: 0}
	}, Options{MaxRounds: 4}); err != nil {
		t.Fatal(err)
	}
	neighbors := hub.Neighbors()
	var payload any = 1
	dst := make([]Message, 0, 64)
	cases := map[string]func(){
		"AppendMessage":         func() { dst = AppendMessage(hub, dst[:0], 1, payload, 8) },
		"AppendWordMessage":     func() { dst = AppendWordMessage(dst[:0], 1, 1, 7, 0, 8) },
		"BroadcastInto":         func() { dst = BroadcastInto(hub, dst[:0], neighbors, payload, 8) },
		"BroadcastWordsInto":    func() { dst = BroadcastWordsInto(dst[:0], neighbors, 1, 7, 0, 8) },
		"BroadcastAllInto":      func() { dst = BroadcastAllInto(hub, dst[:0], payload, 8) },
		"BroadcastAllWordsInto": func() { dst = BroadcastAllWordsInto(dst[:0], hub, 1, 7, 0, 8) },
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %.1f allocs per call into retained capacity, want 0", name, allocs)
		}
	}
}

// TestRoundLoopSteadyStateAllocFree pins the tentpole guarantee: once a
// run's buffers have warmed up (a handful of rounds), extra rounds allocate
// nothing. Two runs of the same workload that differ only in round count
// isolate the steady state — the per-run setup cost cancels in the
// difference, so (allocs(long) - allocs(short)) / extra rounds must be ~0
// at one worker and on the pool. The staggered workload pins the
// active-set upkeep (list rebuilds, alarms, wake-ups) at zero too, and the
// boxed one the out-of-line payload path: box once, re-send and resolve
// every round.
func TestRoundLoopSteadyStateAllocFree(t *testing.T) {
	topo := graph.Grid(24, 24)
	const short, long = 8, 104
	workloads := []struct {
		prefix string
		node   func(rounds int) Node
	}{
		{"", func(rounds int) Node { return &benchFloodNode{rounds: rounds} }},
		{"staggered/", func(rounds int) Node { return &staggeredNode{rounds: rounds} }},
		{"boxed/", func(rounds int) Node { return &boxedEchoNode{rounds: rounds} }},
	}
	for _, w := range workloads {
		node := w.node
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%sworkers=%d", w.prefix, workers), func(t *testing.T) {
				base := measureRunAllocs(t, topo, workers, short, node)
				grown := measureRunAllocs(t, topo, workers, long, node)
				perRound := (grown - base) / float64(long-short)
				if perRound > 0.5 {
					t.Errorf("steady state allocates %.2f objects/round (short run %.0f, long run %.0f); want 0",
						perRound, base, grown)
				}
			})
		}
	}
}
