// Package hpbd implements the paper's contribution: the High Performance
// Block Device. The client (Device) is a block device driver that serves
// the VM's swap requests by shipping pages to remote memory servers over
// InfiniBand verbs; the server (Server) is a RamDisk-backed daemon that
// moves page data with server-initiated RDMA READ/WRITE and overlaps those
// transfers with its local copies.
//
// Design elements reproduced from the paper (sections 4-5):
//
//   - pre-registered registration buffer pool with first-fit allocation,
//     free-neighbor merging, and an allocation wait queue (§4.2.2);
//   - server-initiated RDMA: READ pulls swap-out data from the client,
//     WRITE pushes swap-in data to the client (§4.2.1);
//   - event-based asynchronous communication: a sender thread and a
//     receiver thread woken by solicited completion events that drains
//     replies in bursts (§4.2.3, §5);
//   - credit (water-mark) flow control against the pre-posted receive
//     buffers (§4.2.4);
//   - multiple servers with the swap area distributed in contiguous
//     blocked (non-striped) ranges (§4.2.5).
package hpbd

import (
	"errors"
	"fmt"

	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// ErrPoolExhausted is returned by TryAlloc when no fitting block exists.
var ErrPoolExhausted = errors.New("hpbd: registration pool exhausted")

// extent is a free region [off, off+len).
type extent struct {
	off, len int
}

// BufferPool is the pre-registered communication buffer pool (§4.2.2):
// allocation is first fit over an address-ordered free list, deallocation
// merges with free neighbours to fight external fragmentation, keeping
// page-sized requests satisfiable from contiguous space, and requests that
// cannot be satisfied wait on an allocation queue retried on every free.
//
// Coalescing keeps the free list to a handful of extents (at most 6 in
// any experiment in the tree), so the first-fit scan is short; the merge
// binary-searches the list for the two neighbours instead of walking it.
type BufferPool struct {
	size int

	// free is the free set, sorted by offset, no two extents adjacent.
	free []extent
	// Largest free extent, maintained incrementally so telemetry sampling
	// and admission checks never rescan the free list: largestCnt counts
	// extents of exactly largest bytes, and only when it drops to zero is
	// the list rescanned.
	largest    int
	largestCnt int

	allocs  map[int]int
	waiters *sim.WaitQueue

	// Stats. AllocWaits and PeakInUse predate the telemetry registry and
	// stay exported for compatibility; SetTelemetry mirrors them into the
	// registry (pool.alloc.waits counter, pool.in_use gauge) alongside the
	// blocked-time histogram.
	AllocWaits int64 // allocations that had to block
	PeakInUse  int
	inUse      int

	// Telemetry handles (nil-safe: all no-ops until SetTelemetry).
	waitCount *telemetry.Counter   // = AllocWaits, registry view
	waitHist  *telemetry.Histogram // time spent blocked per waiting Alloc
	inUseG    *telemetry.Gauge     // bytes allocated (peak = PeakInUse)
	fragG     *telemetry.Gauge     // number of free extents
	largestG  *telemetry.Gauge     // largest contiguous free block, bytes
	tracer    *telemetry.Tracer
}

// NewBufferPool creates a pool of size bytes, all free.
func NewBufferPool(env *sim.Env, size int) *BufferPool {
	return &BufferPool{
		size:       size,
		free:       []extent{{0, size}},
		largest:    size,
		largestCnt: 1,
		allocs:     make(map[int]int),
		waiters:    sim.NewWaitQueue(env),
	}
}

// SetTelemetry backs the pool's counters with reg under the "pool."
// prefix: pool.alloc.waits (counter), pool.alloc.wait (histogram of time
// blocked), pool.in_use (gauge, bytes), pool.fragments and
// pool.largest_free (gauges). Call before first I/O.
func (b *BufferPool) SetTelemetry(reg *telemetry.Registry) {
	b.waitCount = reg.Counter("pool.alloc.waits")
	b.waitHist = reg.Histogram("pool.alloc.wait")
	b.inUseG = reg.Gauge("pool.in_use")
	b.fragG = reg.Gauge("pool.fragments")
	b.largestG = reg.Gauge("pool.largest_free")
	b.tracer = reg.Tracer()
	b.sample()
}

// sample publishes the incrementally maintained free-space shape.
func (b *BufferPool) sample() {
	b.fragG.Set(int64(b.Fragments()))
	b.largestG.Set(int64(b.LargestFree()))
}

// InUse returns currently allocated bytes.
func (b *BufferPool) InUse() int { return b.inUse }

// LargestFree returns the largest contiguous free block in O(1): the max
// is maintained incrementally across alloc/free (rescanning the free list
// here would make telemetry sampling an every-operation cost).
func (b *BufferPool) LargestFree() int {
	return b.largest
}

// Fragments returns the number of free extents.
func (b *BufferPool) Fragments() int { return len(b.free) }

// searchFree returns the index of the first free extent at or after off
// (hand-rolled: this sits on the hot path of every free, where
// sort.Search's indirect calls would dominate).
func (b *BufferPool) searchFree(off int) int {
	lo, hi := 0, len(b.free)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.free[mid].off < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bumpLargest/dropLargest maintain the incremental largest-free tracking.
func (b *BufferPool) bumpLargest(n int) {
	if n > b.largest {
		b.largest, b.largestCnt = n, 1
	} else if n == b.largest {
		b.largestCnt++
	}
}

func (b *BufferPool) dropLargest(n int) {
	if n != b.largest {
		return
	}
	if b.largestCnt--; b.largestCnt == 0 {
		// The last largest-sized extent disappeared: rescan for the max.
		b.largest = 0
		for _, e := range b.free {
			b.bumpLargest(e.len)
		}
	}
}

// TryAlloc performs a non-blocking allocation: address-ordered first fit.
func (b *BufferPool) TryAlloc(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("hpbd: invalid allocation size %d", n)
	}
	for i := range b.free {
		if b.free[i].len >= n {
			off := b.free[i].off
			l := b.free[i].len
			b.free[i].off += n
			b.free[i].len -= n
			if b.free[i].len == 0 {
				b.free = append(b.free[:i], b.free[i+1:]...)
			}
			b.dropLargest(l)
			b.allocs[off] = n
			b.inUse += n
			if b.inUse > b.PeakInUse {
				b.PeakInUse = b.inUse
			}
			b.inUseG.Set(int64(b.inUse))
			b.sample()
			return off, nil
		}
	}
	return 0, ErrPoolExhausted
}

// Alloc blocks on the allocation wait queue until a fitting block of n
// bytes is available (§4.2.2: "a memory allocation wait queue is used to
// accommodate the allocation requests that can not be filled temporarily").
func (b *BufferPool) Alloc(p *sim.Proc, n int) (int, error) {
	if n > b.size {
		return 0, fmt.Errorf("hpbd: allocation %d exceeds pool size %d", n, b.size)
	}
	waited := false
	var t0 sim.Time
	var span telemetry.Span
	for {
		off, err := b.TryAlloc(n)
		if err == nil {
			if waited {
				b.waitHist.Observe(p.Now().Sub(t0))
				span.EndBytes(n)
			}
			return off, nil
		}
		if !waited {
			b.AllocWaits++
			b.waitCount.Inc()
			t0 = p.Now()
			span = b.tracer.Begin("pool", "alloc-wait")
			waited = true
		}
		b.waiters.Wait(p)
	}
}

// Free releases the allocation at off, merging with free neighbours and
// waking all blocked allocators to retry.
func (b *BufferPool) Free(off int) {
	n, ok := b.allocs[off]
	if !ok {
		panic(fmt.Sprintf("hpbd: free of unallocated offset %d", off))
	}
	delete(b.allocs, off)
	b.inUse -= n
	b.inUseG.Set(int64(b.inUse))

	// i is the right-neighbour candidate; i-1 the left.
	i := b.searchFree(off)
	mergeR := i < len(b.free) && b.free[i].off == off+n
	mergeL := i > 0 && b.free[i-1].off+b.free[i-1].len == off
	start, length := off, n
	switch {
	case mergeL && mergeR:
		l, r := b.free[i-1], b.free[i]
		b.dropLargest(l.len)
		b.dropLargest(r.len)
		start, length = l.off, l.len+n+r.len
		b.free[i-1] = extent{start, length}
		b.free = append(b.free[:i], b.free[i+1:]...)
	case mergeL:
		l := b.free[i-1]
		b.dropLargest(l.len)
		start, length = l.off, l.len+n
		b.free[i-1] = extent{start, length}
	case mergeR:
		b.dropLargest(b.free[i].len)
		length = n + b.free[i].len
		b.free[i] = extent{start, length}
	default:
		b.free = append(b.free, extent{})
		copy(b.free[i+1:], b.free[i:])
		b.free[i] = extent{start, length}
	}
	b.bumpLargest(length)
	b.sample()
	b.waiters.WakeAll()
}
