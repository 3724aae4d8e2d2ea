package congest

import (
	"fmt"
	"sync/atomic"
)

// The parallel execution path. With Options.Workers > 1 a run owns a pool of
// goroutines that lives from round 1 to termination; each round dispatches
// the same pre-built job closures to the pool, so the steady state allocates
// nothing. Workers claim chunks of the round's sorted active list from a
// shared counter, which amortises the atomic and keeps neighbouring nodes'
// state on one worker's cache.
//
// The contract is bit-for-bit equality with the sequential path, argued in
// DESIGN.md ("The congest hot path"): stepping is trivially order-free (a
// node's Round touches only its own state and inbox), accounting folds
// per-worker sums and maxes in worker-index order, and delivery writes every
// message at the exact index the sequential append would have used, computed
// from the CSR edge index. Every phase walks the same sorted active list
// the sequential merge walks, so sender-ID order, and with it every position
// and the trace order, does not depend on which nodes are asleep. Error
// rounds leave the parallel path entirely: the round is re-merged
// sequentially, so partial results and error text match the sequential run
// down to the byte.

// mergeChunk is the number of consecutive list entries a worker claims per
// shared-counter increment.
const mergeChunk = 64

// mergeScratch is one worker's private accounting for a round, folded into
// the shared Result between phases. Padded so adjacent workers' counters do
// not share a cache line.
type mergeScratch struct {
	totalMessages int
	totalBits     int64
	quantumBits   int64
	classicalBits int64
	maxEdgeBits   int
	anyMessage    bool
	_             [64]byte
}

func (sc *mergeScratch) reset() {
	*sc = mergeScratch{}
}

// workerPool is a fixed set of goroutines that execute one job function at a
// time. run dispatches the job to every worker and blocks until all report
// back; the pool is reused across rounds and phases without spawning.
type workerPool struct {
	workers int
	jobs    []chan func(w int)
	done    chan struct{}
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		workers: workers,
		jobs:    make([]chan func(w int), workers),
		done:    make(chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		ch := make(chan func(w int), 1)
		p.jobs[w] = ch
		go func(w int, ch chan func(w int)) {
			for job := range ch {
				job(w)
				p.done <- struct{}{}
			}
		}(w, ch)
	}
	return p
}

// run executes job(w) on every worker w and returns when all have finished.
func (p *workerPool) run(job func(w int)) {
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

// stepWorker steps claimed active nodes, recording panics per node so the
// caller can re-raise the lowest ID deterministically.
func (st *runState) stepWorker(int) {
	for {
		lo, hi, ok := st.claim(len(st.active))
		if !ok {
			return
		}
		for _, v := range st.active[lo:hi] {
			if p := st.stepOne(int(v)); p != nil {
				st.panics[v] = p
				st.panicked.Store(true)
			}
		}
	}
}

// mergePar is the parallel merge: three barrier-separated phases over the
// round's traffic.
//
//  1. validate: workers claim active senders and charge each message
//     against the sender-private slots of the CSR edge index
//     (edgeBits/edgeMsgs), summing traffic into per-worker scratch. Slots of
//     distinct senders are distinct, so no two workers touch the same table
//     entry. Each receiver not yet on next round's list is queued by the
//     worker that wins its queued flag.
//  2. size: once next round's list is built, workers claim its nodes, a
//     superset of the round's receivers, turn each one's in-slot message
//     counts into inbox positions (basePos), size its inbox buffer, and
//     zero the tables for the next round. Every slot is an in-slot of
//     exactly one receiver, so this phase is also write-disjoint.
//  3. scatter: workers claim active senders again and write each message at
//     basePos[slot]+cursor[slot]++ — the position the sequential merge's
//     append would have chosen, since a receiver's in-slots are ordered by
//     sender ID and cursors advance in outbox order.
//
// A validation failure abandons the round's staged state and replays the
// whole merge sequentially (cold path), reproducing the sequential partial
// accounting and error text exactly.
func (st *runState) mergePar(round int) error {
	for w := range st.scratch {
		st.scratch[w].reset()
	}
	for w := range st.traceBufs {
		st.traceBufs[w] = st.traceBufs[w][:0]
	}
	st.mergeFailed.Store(false)
	st.nextNode.Store(0)
	st.pool.run(st.validateJob)

	if st.mergeFailed.Load() {
		// Cold path: wipe the senders' staged tables and any half-recorded
		// trace buffers, and re-run the round's merge sequentially for
		// byte-identical partial results, trace stream and error. The run
		// ends with this round, so the queued marks need no undoing.
		for _, v := range st.active {
			for slot := st.offsets[v]; slot < st.offsets[v+1]; slot++ {
				st.edgeBits[slot] = 0
				st.edgeMsgs[slot] = 0
			}
		}
		for w := range st.traceBufs {
			st.traceBufs[w] = st.traceBufs[w][:0]
		}
		return st.mergeSeq(round)
	}

	res := st.res
	var traffic RoundTraffic
	for w := range st.scratch {
		sc := &st.scratch[w]
		if sc.anyMessage {
			st.anyMessage = true
		}
		res.TotalMessages += sc.totalMessages
		res.TotalBits += sc.totalBits
		res.QuantumBits += sc.quantumBits
		traffic.Messages += sc.totalMessages
		traffic.QuantumBits += sc.quantumBits
		traffic.ClassicalBits += sc.classicalBits
		if sc.maxEdgeBits > res.MaxEdgeBitsPerRound {
			res.MaxEdgeBitsPerRound = sc.maxEdgeBits
		}
	}
	if st.opts.PerRound {
		res.PerRound = append(res.PerRound, traffic)
	}
	if st.traceBufs != nil {
		st.emitTrace(round)
	}
	for w, woken := range st.wokenBufs {
		st.fresh = append(st.fresh, woken...)
		st.wokenBufs[w] = woken[:0]
	}
	st.buildNext(round)

	st.nextNode.Store(0)
	st.pool.run(st.sizeJob)
	st.nextNode.Store(0)
	st.pool.run(st.scatterJob)
	return nil
}

// validateWorker is phase 1 of mergePar.
func (st *runState) validateWorker(w int) {
	sc := &st.scratch[w]
	bandwidth := st.nw.bandwidth
	for {
		if st.mergeFailed.Load() {
			return
		}
		lo, hi, ok := st.claim(len(st.active))
		if !ok {
			return
		}
		for _, v32 := range st.active[lo:hi] {
			v := int(v32)
			ctx := st.ctxs[v]
			base := st.offsets[v]
			out := st.outboxes[v]
			for i := range out {
				to := out[i].To
				r := ctx.neighborRank(to)
				if r < 0 {
					st.mergeFailed.Store(true)
					return
				}
				bits := out[i].Bits
				if bits < 0 {
					bits = 0
				}
				slot := base + int32(r)
				total := int(st.edgeBits[slot]) + bits
				if total > bandwidth {
					st.mergeFailed.Store(true)
					return
				}
				st.edgeBits[slot] = int32(total)
				st.edgeMsgs[slot]++
				if atomic.LoadUint32(&st.queued[to]) == 0 && atomic.CompareAndSwapUint32(&st.queued[to], 0, 1) {
					st.wokenBufs[w] = append(st.wokenBufs[w], int32(to))
				}
				if st.traceBufs != nil {
					m := out[i]
					m.From = v
					m.Bits = bits
					st.traceBufs[w] = append(st.traceBufs[w], m)
				}
				sc.totalMessages++
				sc.totalBits += int64(bits)
				if out[i].Quantum {
					sc.quantumBits += int64(bits)
				} else {
					sc.classicalBits += int64(bits)
				}
				sc.anyMessage = true
				if total > sc.maxEdgeBits {
					sc.maxEdgeBits = total
				}
			}
		}
	}
}

// sizeWorker is phase 2 of mergePar. It walks next round's list (keep,
// completed by buildNext), which holds every receiver of the round.
func (st *runState) sizeWorker(int) {
	for {
		lo, hi, ok := st.claim(len(st.keep))
		if !ok {
			return
		}
		for _, u := range st.keep[lo:hi] {
			base := st.offsets[u]
			deg := st.offsets[u+1] - base
			var total int32
			for i := int32(0); i < deg; i++ {
				slot := st.inSlot[base+i]
				st.basePos[slot] = total
				st.cursor[slot] = 0
				total += st.edgeMsgs[slot]
				st.edgeMsgs[slot] = 0
				st.edgeBits[slot] = 0
			}
			buf := st.next[u]
			if cap(buf) < int(total) {
				buf = make([]Message, total)
			} else {
				buf = buf[:total]
			}
			st.next[u] = buf
		}
	}
}

// emitTrace replays the round's accepted messages to Options.Trace in the
// exact order the sequential merge emits them: ascending sender ID, outbox
// order within a sender. Each per-worker buffer is sorted by sender ID and
// the buffers partition the round's senders (claims hand each worker
// strictly increasing, disjoint stretches of the sorted active list), so a
// k-way merge on the head
// sender — draining each sender's contiguous run in one go — reproduces the
// sequential stream exactly. It runs on one goroutine, after the validate
// barrier, and allocates nothing.
func (st *runState) emitTrace(round int) {
	idx := st.traceIdx
	for w := range idx {
		idx[w] = 0
	}
	trace := st.opts.Trace
	for {
		best, bestFrom := -1, 0
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

// scatterWorker is phase 3 of mergePar.
func (st *runState) scatterWorker(int) {
	for {
		lo, hi, ok := st.claim(len(st.active))
		if !ok {
			return
		}
		for _, v32 := range st.active[lo:hi] {
			v := int(v32)
			ctx := st.ctxs[v]
			base := st.offsets[v]
			out := st.outboxes[v]
			for i := range out {
				msg := out[i]
				msg.From = v
				if msg.Bits < 0 {
					msg.Bits = 0
				}
				slot := base + int32(ctx.neighborRank(msg.To))
				pos := st.basePos[slot] + st.cursor[slot]
				st.cursor[slot]++
				st.next[msg.To][pos] = msg
			}
		}
	}
}
