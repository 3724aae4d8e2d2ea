package congest

import (
	"math"
	"math/bits"
)

// Bit-size helpers. The CONGEST model charges per bit; the helpers below give
// the sizes used uniformly across the algorithms in internal/dist so that the
// measured TotalBits of a run reflects the paper's accounting (IDs and
// weights are O(log n)-bit words).

// BitsForID returns the number of bits needed to name one of n distinct
// values (at least 1).
func BitsForID(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// BitsForInt returns the number of bits needed to represent the non-negative
// integer v (at least 1).
func BitsForInt(v int) int {
	if v < 0 {
		v = -v
	}
	if v <= 1 {
		return 1
	}
	return int(math.Floor(math.Log2(float64(v)))) + 1
}

// BitsForWeight is the fixed word size charged for one edge weight. Weights
// are real numbers in the paper; a 64-bit word is the standard encoding.
const BitsForWeight = 64

// BitsForBool is the size of a single flag.
const BitsForBool = 1

// Word-encoded payloads. A message whose content fits two 64-bit words
// travels inline in Message.W0/W1 under an algorithm-defined Kind tag — no
// allocation when the message is built, no lookup when it is delivered. The
// wire cost is whatever Bits says in either representation; the encoding
// never changes the accounting.
//
// Encoding conventions used across internal/dist:
//   - a small non-negative integer is stored directly in a word (Int0/Int1);
//   - a flag is stored as 0/1 (WordFromBool/Bool0);
//   - two node IDs share one word via PackIDs/UnpackIDs (32 bits each);
//   - a float64 travels as math.Float64bits in a word.
//
// KindBoxed is the zero value: a message built by the boxed constructors
// (NewMessage, NewQubitMessage, Broadcast*, AppendMessage) is boxed.
const KindBoxed uint8 = 0

// Boxed payloads. Content that does not fit two words (the disjointness
// protocol's wide chunks, or anything a test sends) is stored by the boxed
// constructor in an append-only table owned by the sending node; the
// message carries the entry's handle in W0 and the owner's ID in W1, and
// the receiver reads the content with ctx.Payload. An entry stays valid for
// the rest of the run, so an outbox built once in Init can be re-sent every
// round and a received boxed message forwarded as it is. Handles depend
// only on the order of the owner's own constructor calls, so traces are
// identical at every worker count. A nil payload has handle 0 and no entry,
// and a node that never boxes never allocates a table.

// boxTable is one node's table of boxed payloads. Most boxing nodes box
// once, in Init, so entry 1 is held inline; entry h >= 2 lives in chunk
// k = floor(log2 h) of rest, which has 2^k entries. Entries never move once
// stored, so a receiver can read an entry sent in an earlier round while
// its owner, stepping on another worker, adds new ones.
type boxTable struct {
	n     uint64
	first any
	rest  *[64][]any
}

func (t *boxTable) add(payload any) uint64 {
	t.n++
	if t.n == 1 {
		t.first = payload
		return 1
	}
	if t.rest == nil {
		t.rest = new([64][]any)
	}
	k := bits.Len64(t.n) - 1
	if t.rest[k] == nil {
		t.rest[k] = make([]any, 1<<k)
	}
	t.rest[k][t.n-1<<k] = payload
	return t.n
}

func (t *boxTable) get(h uint64) any {
	if h == 1 {
		return t.first
	}
	k := bits.Len64(h) - 1
	return t.rest[k][h-1<<k]
}

// Payload returns the content of a boxed message: the payload its sender
// passed to a boxed constructor. It returns nil for a word-encoded message
// and for a boxed one built with a nil payload.
func (c *Context) Payload(m Message) any {
	if m.Kind != KindBoxed || m.W0 == 0 {
		return nil
	}
	return c.run.ctxs[m.W1].boxes.get(m.W0)
}

// boxed builds a boxed message from c's node.
func (c *Context) boxed(to int, payload any, bits int, quantum bool) Message {
	m := Message{To: sat32(to), Bits: sat32(bits), Quantum: quantum}
	if payload != nil {
		if c.boxes == nil {
			c.boxes = new(boxTable)
		}
		m.W0, m.W1 = c.boxes.add(payload), uint64(c.id)
	}
	return m
}

// sat32 narrows a constructor argument to a Message field, saturating
// instead of wrapping: an out-of-range destination is then never a
// neighbour, and an oversized message always exceeds B.
func sat32(x int) int32 {
	return int32(min(max(x, math.MinInt32), math.MaxInt32))
}

// IsWord reports whether the message is word-encoded (Kind != KindBoxed).
func (m *Message) IsWord() bool { return m.Kind != KindBoxed }

// Int0 returns W0 as a small non-negative integer.
func (m *Message) Int0() int { return int(m.W0) }

// Int1 returns W1 as a small non-negative integer.
func (m *Message) Int1() int { return int(m.W1) }

// Bool0 returns W0 as a flag (non-zero means true).
func (m *Message) Bool0() bool { return m.W0 != 0 }

// Bool1 returns W1 as a flag (non-zero means true).
func (m *Message) Bool1() bool { return m.W1 != 0 }

// WordFromBool encodes a flag as a payload word.
func WordFromBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PackIDs packs two node IDs into one payload word, 32 bits each. IDs are
// bounded by n, far below 2^32 for any simulable network.
func PackIDs(u, v int) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// UnpackIDs is the inverse of PackIDs.
func UnpackIDs(w uint64) (u, v int) { return int(w >> 32), int(uint32(w)) }

// NewMessage builds a boxed message from ctx's node to the given neighbour
// with an explicit bit size. From is filled in by the simulator.
func NewMessage(ctx *Context, to int, payload any, bits int) Message {
	return ctx.boxed(to, payload, bits, false)
}

// NewWordMessage builds a word-encoded message to the given neighbour: kind
// tags the encoding (an algorithm-defined constant >= 1), w0 and w1 are the
// inline payload words, and bits is the wire size charged, exactly as for a
// boxed message. From is filled in by the simulator.
func NewWordMessage(to int, kind uint8, w0, w1 uint64, bits int) Message {
	return Message{To: sat32(to), Kind: kind, W0: w0, W1: w1, Bits: sat32(bits)}
}

// NewQubitMessage builds a quantum-marked boxed message from ctx's node
// carrying the given number of qubits. Qubits are charged against the same
// per-edge bandwidth B as classical bits (the paper's quantum CONGEST
// model), but are accounted separately in Result.QuantumBits.
func NewQubitMessage(ctx *Context, to int, payload any, qubits int) Message {
	return ctx.boxed(to, payload, qubits, true)
}

// Broadcast builds one identical boxed message per listed neighbour. The
// payload is boxed once and shared by all of them.
func Broadcast(ctx *Context, neighbors []int, payload any, bits int) []Message {
	return BroadcastInto(ctx, make([]Message, 0, len(neighbors)), neighbors, payload, bits)
}

// BroadcastAll builds one identical boxed message per neighbour of ctx. It
// is the hot-path form of Broadcast(ctx, ctx.Neighbors(), ...): the same
// messages without first copying the neighbour list. The returned slice is
// owned by the caller and may be reused across rounds (the simulator never
// mutates a node's outbox).
func BroadcastAll(ctx *Context, payload any, bits int) []Message {
	return BroadcastAllInto(ctx, make([]Message, 0, ctx.Degree()), payload, bits)
}

// BroadcastAllWords is BroadcastAll for a word-encoded payload.
func BroadcastAllWords(ctx *Context, kind uint8, w0, w1 uint64, bits int) []Message {
	return BroadcastAllWordsInto(make([]Message, 0, ctx.Degree()), ctx, kind, w0, w1, bits)
}

// Append variants. The constructors above allocate a fresh slice per call;
// a node that sends every round should instead keep one outbox slice and
// append into it with the Into forms below — append against retained
// capacity allocates nothing (pinned by allocs_test.go). The pattern is
//
//	n.outbox = congest.BroadcastAllWordsInto(n.outbox[:0], ctx, kind, w0, w1, bits)
//	return n.outbox, false
//
// which is safe because the simulator copies messages out of the outbox
// during the round's delivery and never retains the slice. A boxed form
// adds one entry to the sender's box table, which allocates only when the
// table doubles.

// AppendMessage appends one boxed message from ctx's node to dst and
// returns the extended slice.
func AppendMessage(ctx *Context, dst []Message, to int, payload any, bits int) []Message {
	return append(dst, ctx.boxed(to, payload, bits, false))
}

// AppendWordMessage appends one word-encoded message to dst and returns the
// extended slice.
func AppendWordMessage(dst []Message, to int, kind uint8, w0, w1 uint64, bits int) []Message {
	return append(dst, NewWordMessage(to, kind, w0, w1, bits))
}

// BroadcastInto appends one identical boxed message per listed neighbour to
// dst and returns the extended slice. The payload is boxed once.
func BroadcastInto(ctx *Context, dst []Message, neighbors []int, payload any, bits int) []Message {
	m := ctx.boxed(0, payload, bits, false)
	for _, v := range neighbors {
		m.To = sat32(v)
		dst = append(dst, m)
	}
	return dst
}

// BroadcastWordsInto appends one identical word-encoded message per listed
// neighbour to dst and returns the extended slice.
func BroadcastWordsInto(dst []Message, neighbors []int, kind uint8, w0, w1 uint64, bits int) []Message {
	m := NewWordMessage(0, kind, w0, w1, bits)
	for _, v := range neighbors {
		m.To = sat32(v)
		dst = append(dst, m)
	}
	return dst
}

// BroadcastAllInto appends one identical boxed message per neighbour of ctx
// to dst and returns the extended slice. The payload is boxed once.
func BroadcastAllInto(ctx *Context, dst []Message, payload any, bits int) []Message {
	return BroadcastInto(ctx, dst, ctx.neighbors, payload, bits)
}

// BroadcastAllWordsInto appends one identical word-encoded message per
// neighbour of ctx to dst and returns the extended slice.
func BroadcastAllWordsInto(dst []Message, ctx *Context, kind uint8, w0, w1 uint64, bits int) []Message {
	return BroadcastWordsInto(dst, ctx.neighbors, kind, w0, w1, bits)
}
