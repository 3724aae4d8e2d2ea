package disjointness

import (
	"math/rand"
	"reflect"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/graph"
)

// Word-encoding equivalence pin: the migrated pipelined protocol must
// produce a Result bit-for-bit identical to the pre-refactor boxed
// implementation — same rounds, bits, outputs and trace stream — at every
// worker count, across bandwidths that exercise single-bit chunks (B=1),
// word-packed chunks (B=32, B=128) and the boxed fallback for chunks wider
// than two payload words (B=200). The boxed*
// types below are the pre-refactor program, changed only to the ctx-first
// boxed constructors and ctx.Payload.

type boxedAnswerMsg struct{ Disjoint bool }

type boxedPathNode struct {
	x, y     []int
	sent     int
	received []int
	answered bool
}

func (p *boxedPathNode) Init(ctx *congest.Context) {
	in, _ := ctx.Input().(pathInput)
	p.x, p.y = in.X, in.Y
}

func (p *boxedPathNode) Round(ctx *congest.Context, round int, inbox []congest.Message) ([]congest.Message, bool) {
	id, last := ctx.ID(), ctx.N()-1
	var out []congest.Message

	for _, m := range inbox {
		switch payload := ctx.Payload(m).(type) {
		case chunkMsg:
			if id == last {
				p.received = append(p.received, payload.Bits...)
			} else {
				out = append(out, congest.NewMessage(ctx, id+1, payload, len(payload.Bits)))
			}
		case boxedAnswerMsg:
			p.answered = true
			ctx.SetOutput(payload.Disjoint)
			if id > 0 {
				out = append(out, congest.NewMessage(ctx, id-1, payload, congest.BitsForBool))
			}
		}
	}

	if id == 0 && p.sent < len(p.x) {
		hi := p.sent + ctx.Bandwidth()
		if hi > len(p.x) {
			hi = len(p.x)
		}
		chunk := p.x[p.sent:hi]
		p.sent = hi
		out = append(out, congest.NewMessage(ctx, 1, chunkMsg{Bits: chunk}, len(chunk)))
	}

	if id == last && !p.answered && len(p.received) >= len(p.y) && len(p.y) > 0 {
		disjoint := true
		for i, yi := range p.y {
			if yi == 1 && p.received[i] == 1 {
				disjoint = false
				break
			}
		}
		p.answered = true
		ctx.SetOutput(disjoint)
		out = append(out, congest.NewMessage(ctx, id-1, boxedAnswerMsg{Disjoint: disjoint}, congest.BitsForBool))
	}

	return out, p.answered
}

// traceEv is the accounting-visible view of one traced message. The payload
// representation intentionally differs between the two programs, so Kind
// and the words (a boxed message's handle and owner) are excluded from the
// comparison.
type traceEv struct {
	Round, From, To, Bits int
	Quantum               bool
}

func runPathTraced(t *testing.T, nodes, bandwidth int, x, y []int, factory congest.NodeFactory, workers int) (*congest.Result, []traceEv) {
	t.Helper()
	nw, err := congest.NewNetwork(graph.Path(nodes), bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(13)
	nw.SetInput(0, pathInput{X: x})
	nw.SetInput(nodes-1, pathInput{Y: y})
	chunks := (len(x) + bandwidth - 1) / bandwidth
	var evs []traceEv
	res, err := nw.Run(factory, congest.Options{
		MaxRounds: chunks + 2*nodes + 16,
		Workers:   workers,
		Trace: func(round int, m congest.Message) {
			evs = append(evs, traceEv{round, int(m.From), int(m.To), int(m.Bits), m.Quantum})
		},
	})
	if err != nil {
		t.Fatalf("B=%d workers=%d: %v", bandwidth, workers, err)
	}
	return res, evs
}

func TestWordChunksMatchBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const b = 300
	x, y := make([]int, b), make([]int, b)
	for i := 0; i < b; i++ {
		x[i] = rng.Intn(2)
		// Sparse Y keeps the disjoint verdict input-dependent, not constant.
		if rng.Intn(8) == 0 {
			y[i] = 1
		}
	}
	const nodes = 9
	for _, bandwidth := range []int{1, 32, 128, 200} {
		for _, workers := range []int{0, 1, 4} {
			wordRes, wordEvs := runPathTraced(t, nodes, bandwidth, x, y, func(*congest.Context) congest.Node { return &pathNode{} }, workers)
			boxedRes, boxedEvs := runPathTraced(t, nodes, bandwidth, x, y, func(*congest.Context) congest.Node { return &boxedPathNode{} }, workers)
			if !reflect.DeepEqual(wordRes, boxedRes) {
				t.Errorf("B=%d workers=%d: results differ\n word:  %+v\n boxed: %+v", bandwidth, workers, wordRes, boxedRes)
			}
			if !reflect.DeepEqual(wordEvs, boxedEvs) {
				t.Errorf("B=%d workers=%d: trace streams differ (%d vs %d events)", bandwidth, workers, len(wordEvs), len(boxedEvs))
			}
		}
	}
}
