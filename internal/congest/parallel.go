package congest

import (
	"fmt"
	"sync/atomic"
)

// The delivery path. Every round runs the same phases at any
// Options.Workers: on the calling goroutine for one worker, on a pool that
// lives for the whole run for more. Workers claim chunks of a sorted node
// list from a shared counter, and the job closures are built once, so the
// steady state allocates nothing.
//
//  1. step: call Round on the active nodes.
//  2. validate: charge each active sender's messages to its private slots
//     of the CSR edge index (edgeBits/edgeMsgs), sum the traffic into the
//     worker's scratch, record it for the tracer and queue the receivers.
//     A worker stops at its first bad message.
//  3. size: for the nodes on next round's list, a superset of the
//     receivers, reserve a block of the arena per claimed chunk and turn
//     each in-slot's count into the position one past the slot's last
//     message. In-slots are sorted by sender ID, so every inbox is laid out
//     in sender order. Each slot is an in-slot of exactly one receiver.
//  4. scatter: write each active sender's messages below their slots' end
//     positions, in outbox order.
//
// Slots of distinct senders are distinct, so every phase is write-disjoint,
// and accounting folds per-worker sums and maxes in worker-index order. So
// every worker count yields the same Result, inboxes and trace; only which
// arena block an inbox occupies depends on scheduling, and no node sees
// that. A round that fails validation under several workers is
// re-validated on the calling goroutine (runState.fail), so partial results
// and error text match the one-worker run too. DESIGN.md, "The congest hot
// path", has the full argument.

// mergeChunk is the number of consecutive list entries a worker claims per
// shared-counter increment.
const mergeChunk = 64

// mergeScratch is one worker's private state for a round: its accepted
// traffic, its first validation error, and the lowest-ID node that
// panicked on it. It is folded into the Result after the validate phase.
// Padded so adjacent workers' counters do not share a cache line.
type mergeScratch struct {
	totalMessages int
	totalBits     int64
	quantumBits   int64
	classicalBits int64
	maxEdgeBits   int
	err           error
	panicNode     int
	panicked      any
	_             [64]byte
}

// phaseJob is one phase's work for worker w. The phases are passed as
// method expressions, which, unlike method values, allocate nothing.
type phaseJob func(st *runState, w int)

// workerPool is a fixed set of goroutines that execute one phase of a run
// at a time. run dispatches the job to every worker and blocks until all
// report back; the pool is reused across rounds and phases without
// spawning.
type workerPool struct {
	workers int
	jobs    []chan phaseJob
	done    chan struct{}
}

func newWorkerPool(st *runState, workers int) *workerPool {
	p := &workerPool{
		workers: workers,
		jobs:    make([]chan phaseJob, workers),
		done:    make(chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		ch := make(chan phaseJob, 1)
		p.jobs[w] = ch
		go func(w int, ch chan phaseJob) {
			for job := range ch {
				job(st, w)
				p.done <- struct{}{}
			}
		}(w, ch)
	}
	return p
}

// run executes the job on every worker and returns when all have finished.
func (p *workerPool) run(job phaseJob) {
	for _, ch := range p.jobs {
		ch <- job
	}
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
}

// close terminates the pool's goroutines. The pool must be idle.
func (p *workerPool) close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

func panicText(v, round int, p any) string {
	return fmt.Sprintf("congest: node %d panicked in round %d: %v", v, round, p)
}

// claim hands the worker the next chunk [lo, hi) of a list of the given
// length; ok is false when the list is exhausted.
func (st *runState) claim(length int) (lo, hi int, ok bool) {
	end := int(st.nextNode.Add(mergeChunk))
	lo = end - mergeChunk
	if lo >= length {
		return 0, 0, false
	}
	return lo, min(end, length), true
}

// stepWorker is the step phase. A worker's claims are increasing, so the
// first panic it records is its lowest-ID one.
func (st *runState) stepWorker(w int) {
	sc := &st.scratch[w]
	for {
		lo, hi, ok := st.claim(len(st.active))
		if !ok {
			return
		}
		for _, v := range st.active[lo:hi] {
			if p := st.stepOne(int(v)); p != nil && sc.panicked == nil {
				sc.panicNode, sc.panicked = int(v), p
			}
		}
	}
}

// validateWorker is the validate phase. It stops at the worker's first bad
// message and raises failed, which stops the other workers at their next
// claim.
func (st *runState) validateWorker(w int) {
	sc := &st.scratch[w]
	for !st.failed.Load() {
		lo, hi, ok := st.claim(len(st.active))
		if !ok {
			return
		}
		for _, v := range st.active[lo:hi] {
			if sc.err = st.validate(w, int(v)); sc.err != nil {
				st.failed.Store(true)
				return
			}
		}
	}
}

// validate charges sender v's outbox to its edge slots and to worker w's
// scratch, queues its receivers and records its messages for the tracer.
// It returns the error for the first message that breaks the model; the
// messages before it stay accounted.
func (st *runState) validate(w, v int) error {
	sc := &st.scratch[w]
	ctx := &st.ctxs[v]
	base := st.offsets[v]
	for _, m := range st.outboxes[v] {
		r := ctx.neighborRank(int(m.To))
		if r < 0 {
			return fmt.Errorf("%w: node %d -> %d in round %d", ErrNotNeighbor, v, m.To, st.round)
		}
		m.Bits = max(m.Bits, 0)
		slot := base + int32(r)
		total := int(st.edgeBits[slot]) + int(m.Bits)
		if total > st.bandwidth {
			return fmt.Errorf("%w: node %d -> %d sent %d bits in round %d (B=%d)",
				ErrBandwidthExceeded, v, m.To, total, st.round, st.bandwidth)
		}
		st.edgeBits[slot] = int32(total)
		st.edgeMsgs[slot]++
		if q := &st.queued[m.To]; atomic.LoadUint32(q) == 0 && atomic.CompareAndSwapUint32(q, 0, 1) {
			st.wokenBufs[w] = append(st.wokenBufs[w], m.To)
		}
		if st.traceBufs != nil {
			m.From = int32(v)
			st.traceBufs[w] = append(st.traceBufs[w], m)
		}
		sc.totalMessages++
		sc.totalBits += int64(m.Bits)
		if m.Quantum {
			sc.quantumBits += int64(m.Bits)
		} else {
			sc.classicalBits += int64(m.Bits)
		}
		sc.maxEdgeBits = max(sc.maxEdgeBits, total)
	}
	return nil
}

// sizeWorker is the size phase. It walks next round's list (keep, completed
// by buildNext), which holds every receiver of the round, and sets the
// inbox of every node on it.
func (st *runState) sizeWorker(int) {
	for {
		lo, hi, ok := st.claim(len(st.keep))
		if !ok {
			return
		}
		chunk := st.keep[lo:hi]
		var total int32
		for _, u := range chunk {
			for _, slot := range st.inSlots[st.inOffsets[u]:st.inOffsets[u+1]] {
				total += st.edgeMsgs[slot]
			}
		}
		pos := int32(st.arenaTop.Add(int64(total))) - total
		for _, u := range chunk {
			start := pos
			for _, slot := range st.inSlots[st.inOffsets[u]:st.inOffsets[u+1]] {
				if c := st.edgeMsgs[slot]; c > 0 {
					pos += c
					st.edgeBits[slot] = pos
				}
			}
			st.inbox[u] = span{start, pos - start}
		}
	}
}

// scatterWorker is the scatter phase. A slot's messages all come from one
// sender, so one worker places them, in outbox order, and the slot's
// tables are zero again after its last one.
func (st *runState) scatterWorker(int) {
	arena := st.arena[st.cur^1]
	for {
		lo, hi, ok := st.claim(len(st.active))
		if !ok {
			return
		}
		for _, v := range st.active[lo:hi] {
			ctx := &st.ctxs[v]
			base := st.offsets[v]
			for _, m := range st.outboxes[v] {
				m.From = v
				m.Bits = max(m.Bits, 0)
				slot := base + int32(ctx.neighborRank(int(m.To)))
				left := st.edgeMsgs[slot]
				arena[st.edgeBits[slot]-left] = m
				if left == 1 {
					st.edgeBits[slot] = 0
				}
				st.edgeMsgs[slot] = left - 1
			}
			st.outboxes[v] = nil
		}
	}
}

// emitTrace replays the round's accepted messages to Options.Trace in
// ascending sender ID, outbox order within a sender. Each per-worker buffer
// is sorted by sender ID and the buffers partition the round's senders
// (claims hand each worker strictly increasing, disjoint stretches of the
// sorted active list), so a k-way merge on the head sender — draining each
// sender's contiguous run in one go — reproduces that order exactly. It
// runs on one goroutine, after the validate barrier, and allocates nothing.
func (st *runState) emitTrace(round int) {
	idx := st.traceIdx
	for w := range idx {
		idx[w] = 0
	}
	trace := st.opts.Trace
	for {
		best, bestFrom := -1, int32(0)
		for w := range st.traceBufs {
			if idx[w] >= len(st.traceBufs[w]) {
				continue
			}
			if from := st.traceBufs[w][idx[w]].From; best < 0 || from < bestFrom {
				best, bestFrom = w, from
			}
		}
		if best < 0 {
			return
		}
		buf := st.traceBufs[best]
		i := idx[best]
		for i < len(buf) && buf[i].From == bestFrom {
			trace(round, buf[i])
			i++
		}
		idx[best] = i
	}
}
