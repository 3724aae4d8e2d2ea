package congest

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"qdc/internal/graph"
)

// TestMessageLayout pins the pointer-free 32-byte Message: inboxes, outboxes
// and the delivery arena are then plain memory the garbage collector never
// scans. It also caps Context at 136 bytes, so the box table costs a
// word-only run no more than one nil pointer per node.
func TestMessageLayout(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size != 32 {
		t.Errorf("Message is %d bytes, want 32", size)
	}
	typ := reflect.TypeOf(Message{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Int32, reflect.Uint64:
		default:
			t.Errorf("Message.%s is a %s, which may hold a pointer", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(Context{}); size > 136 {
		t.Errorf("Context is %d bytes, want at most 136", size)
	}
}

// TestConstructorsSaturate pins the int -> int32 narrowing of the
// constructors: an oversized message saturates at 2^31-1 bits and fails
// the bandwidth check, where wrapping would have made 1<<40 bits look
// like 0; an out-of-range destination saturates to a non-neighbour.
func TestConstructorsSaturate(t *testing.T) {
	for name, build := range map[string]func(ctx *Context, to, bits int) Message{
		"word":  func(_ *Context, to, bits int) Message { return NewWordMessage(to, 1, 0, 0, bits) },
		"boxed": func(ctx *Context, to, bits int) Message { return NewMessage(ctx, to, 7, bits) },
		"qubit": func(ctx *Context, to, bits int) Message { return NewQubitMessage(ctx, to, nil, bits) },
	} {
		for _, c := range []struct {
			to, bits int
			want     error
		}{
			{1, 1 << 40, ErrBandwidthExceeded},
			{1 + 1<<40, 1, ErrNotNeighbor},
			{-1 << 40, 1, ErrNotNeighbor},
		} {
			nw, err := NewNetwork(graph.Path(3), 64)
			if err != nil {
				t.Fatal(err)
			}
			_, err = nw.Run(func(*Context) Node {
				return nodeFunc(func(ctx *Context, round int, _ []Message) ([]Message, bool) {
					if ctx.ID() == 0 && round == 1 {
						return []Message{build(ctx, c.to, c.bits)}, false
					}
					return nil, true
				})
			}, Options{})
			if !errors.Is(err, c.want) {
				t.Errorf("%s to=%d bits=%d: err = %v, want %v", name, c.to, c.bits, err, c.want)
			}
		}
	}
	if m := NewWordMessage(1, 1, 0, 0, -1<<40); m.Bits != -1<<31 {
		t.Errorf("Bits = %d for -2^40, want the int32 minimum", m.Bits)
	}
}

// nodeFunc adapts a function to Node.
type nodeFunc func(ctx *Context, round int, inbox []Message) ([]Message, bool)

func (nodeFunc) Init(*Context) {}

func (f nodeFunc) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	return f(ctx, round, inbox)
}

// TestBoxTableKeepsEveryEntry fills one box table across many chunks and
// reads every entry back, at its handle, after all of them were added.
func TestBoxTableKeepsEveryEntry(t *testing.T) {
	var tab boxTable
	const entries = 5000
	for i := 1; i <= entries; i++ {
		if h := tab.add(i); h != uint64(i) {
			t.Fatalf("entry %d got handle %d", i, h)
		}
	}
	for h := uint64(1); h <= entries; h++ {
		if got := tab.get(h); got != int(h) {
			t.Fatalf("handle %d resolves to %v", h, got)
		}
	}
}
