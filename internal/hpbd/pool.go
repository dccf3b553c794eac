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
	"math/bits"

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
// deallocation merges with free neighbours to fight external fragmentation,
// keeping page-sized requests satisfiable from contiguous space, and
// requests that cannot be satisfied wait on an allocation queue retried on
// every free.
//
// The default allocator is adaptive segregated-fit: free extents live in
// an address-ordered list, and once the free set fragments past
// poolIndexBuild extents they are additionally indexed by power-of-two
// size class (class c holds lengths in [2^c, 2^(c+1)), each class in
// address order). While the free set is small — the steady state at the
// paper's pool sizes, where coalescing keeps it to a handful of extents —
// allocation is a plain address-ordered first-fit scan with no index
// maintenance, exactly the baseline's cost. With the index active,
// allocation scans the request's own class for the lowest-offset extent
// that fits and falls back to the lowest-offset extent of the next
// non-empty larger class, so the scan touches classes, not every
// fragment. Coalescing binary-searches the address-ordered list for the
// two neighbours instead of walking it. The paper's plain first-fit
// allocator is preserved behind NewFirstFitPool as the ablation baseline.
type BufferPool struct {
	size     int
	firstFit bool

	// Legacy first-fit state (ablation baseline): sorted by offset, no two
	// adjacent.
	free []extent

	// Segregated-fit state. ordered holds the free set sorted by offset
	// (no two adjacent); when indexed, classes additionally index the same
	// extents by size class.
	ordered []extent
	classes [][]extent
	indexed bool
	// Largest free extent, maintained incrementally so telemetry sampling
	// and admission checks never rescan the free lists: largestCnt counts
	// extents of exactly largest bytes, and only when it drops to zero is
	// the (single) highest non-empty class rescanned.
	largest    int
	largestCnt int

	allocs  map[int]int
	waiters *sim.WaitQueue

	// Stats. AllocWaits and PeakInUse predate the telemetry registry and
	// stay exported for compatibility; SetTelemetry mirrors them into the
	// registry (pool.alloc.waits counter, pool.in_use gauge) alongside the
	// blocked-time histogram.
	AllocWaits  int64 // allocations that had to block
	PeakInUse   int
	inUse       int
	allocsTotal int64

	// Telemetry handles (nil-safe: all no-ops until SetTelemetry).
	waitCount *telemetry.Counter   // = AllocWaits, registry view
	waitHist  *telemetry.Histogram // time spent blocked per waiting Alloc
	inUseG    *telemetry.Gauge     // bytes allocated (peak = PeakInUse)
	fragG     *telemetry.Gauge     // number of free extents
	largestG  *telemetry.Gauge     // largest contiguous free block, bytes
	reg       *telemetry.Registry  // for lazy per-class occupancy gauges
	classG    []*telemetry.Gauge   // pool.class.NN occupancy, lazily created
	tracer    *telemetry.Tracer
}

// NewBufferPool creates a size-classed pool of size bytes.
func NewBufferPool(env *sim.Env, size int) *BufferPool {
	b := newPool(env, size)
	b.addFree(0, size)
	return b
}

// NewFirstFitPool creates a pool using the paper's original first-fit
// free-list allocator. It exists as the test and benchmark reference for
// the size-classed default.
func NewFirstFitPool(env *sim.Env, size int) *BufferPool {
	b := newPool(env, size)
	b.firstFit = true
	b.free = []extent{{0, size}}
	b.bumpLargest(size)
	return b
}

func newPool(env *sim.Env, size int) *BufferPool {
	return &BufferPool{
		size:    size,
		classes: make([][]extent, classOf(size)+1),
		allocs:  make(map[int]int),
		waiters: sim.NewWaitQueue(env),
	}
}

// The class index engages only when the free set is fragmented enough to
// make a linear first-fit scan the bigger cost; below that, maintaining
// the index is pure overhead. Hysteresis keeps a workload hovering around
// the boundary from rebuilding the index every operation.
const (
	poolIndexBuild = 32 // free extents at which the class index turns on
	poolIndexDrop  = 8  // free extents at which it is dropped again
)

// classOf returns the size class of an n-byte extent: floor(log2(n)).
func classOf(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n)) - 1
}

// SetTelemetry backs the pool's counters with reg under the "pool."
// prefix: pool.alloc.waits (counter), pool.alloc.wait (histogram of time
// blocked), pool.in_use (gauge, bytes), pool.fragments and
// pool.largest_free (gauges), and per-class occupancy gauges
// pool.class.NN created lazily for classes that hold extents. Call before
// first I/O.
func (b *BufferPool) SetTelemetry(reg *telemetry.Registry) {
	b.waitCount = reg.Counter("pool.alloc.waits")
	b.waitHist = reg.Histogram("pool.alloc.wait")
	b.inUseG = reg.Gauge("pool.in_use")
	b.fragG = reg.Gauge("pool.fragments")
	b.largestG = reg.Gauge("pool.largest_free")
	b.reg = reg
	b.classG = make([]*telemetry.Gauge, len(b.classes))
	b.tracer = reg.Tracer()
	b.sample()
}

// sample publishes the incrementally maintained free-space shape.
func (b *BufferPool) sample() {
	b.fragG.Set(int64(b.Fragments()))
	b.largestG.Set(int64(b.LargestFree()))
}

// classGauge returns (lazily creating) the occupancy gauge for class c.
func (b *BufferPool) classGauge(c int) *telemetry.Gauge {
	if b.reg == nil {
		return nil
	}
	if b.classG[c] == nil {
		b.classG[c] = b.reg.Gauge(fmt.Sprintf("pool.class.%02d", c))
	}
	return b.classG[c]
}

// Size returns the pool capacity in bytes.
func (b *BufferPool) Size() int { return b.size }

// InUse returns currently allocated bytes.
func (b *BufferPool) InUse() int { return b.inUse }

// FreeBytes returns the total free bytes (possibly fragmented).
func (b *BufferPool) FreeBytes() int { return b.size - b.inUse }

// LargestFree returns the largest contiguous free block in O(1): the max
// is maintained incrementally across alloc/free for both allocators (the
// original first-fit implementation rescanned the whole free list here,
// which telemetry sampling turned into an every-operation cost).
func (b *BufferPool) LargestFree() int {
	return b.largest
}

// Fragments returns the number of free extents.
func (b *BufferPool) Fragments() int {
	if b.firstFit {
		return len(b.free)
	}
	return len(b.ordered)
}

// searchExtents returns the index of the first extent at or after off in
// an address-ordered list (hand-rolled: this sits on the hot path of every
// alloc and free, where sort.Search's indirect calls would dominate).
func searchExtents(lst []extent, off int) int {
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid].off < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findOrdered returns the index of the first free extent at or after off.
func (b *BufferPool) findOrdered(off int) int {
	return searchExtents(b.ordered, off)
}

// classAdd inserts e into its size class, keeping address order.
func (b *BufferPool) classAdd(e extent) {
	c := classOf(e.len)
	lst := b.classes[c]
	i := searchExtents(lst, e.off)
	lst = append(lst, extent{})
	copy(lst[i+1:], lst[i:])
	lst[i] = e
	b.classes[c] = lst
	if b.classG != nil {
		b.classGauge(c).Set(int64(len(lst)))
	}
}

// classRemove detaches e from its size class.
func (b *BufferPool) classRemove(e extent) {
	c := classOf(e.len)
	lst := b.classes[c]
	i := searchExtents(lst, e.off)
	b.classes[c] = append(lst[:i], lst[i+1:]...)
	if b.classG != nil {
		b.classGauge(c).Set(int64(len(b.classes[c])))
	}
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
		b.recomputeLargest()
	}
}

// recomputeLargest rescans for the max after the last largest-sized extent
// disappeared. With the class index active, every extent in a class below
// the highest non-empty one is strictly smaller than that class's floor,
// so only one class is scanned; otherwise the (short) free list is.
func (b *BufferPool) recomputeLargest() {
	b.largest, b.largestCnt = 0, 0
	if b.firstFit || !b.indexed {
		lst := b.free
		if !b.firstFit {
			lst = b.ordered
		}
		for _, e := range lst {
			b.bumpLargest(e.len)
		}
		return
	}
	for c := len(b.classes) - 1; c >= 0; c-- {
		if len(b.classes[c]) == 0 {
			continue
		}
		for _, e := range b.classes[c] {
			b.bumpLargest(e.len)
		}
		return
	}
}

// addFree inserts a free extent that is already known not to touch any
// other free extent (the constructor, and coalesced inserts from Free).
func (b *BufferPool) addFree(off, n int) {
	i := b.findOrdered(off)
	b.ordered = append(b.ordered, extent{})
	copy(b.ordered[i+1:], b.ordered[i:])
	b.ordered[i] = extent{off, n}
	if b.indexed {
		b.classAdd(extent{off, n})
	}
	b.bumpLargest(n)
}

// checkIndex builds or drops the class index when the free-set size
// crosses the hysteresis band. Decisions depend only on len(ordered), so
// they are deterministic across runs.
func (b *BufferPool) checkIndex() {
	if b.indexed {
		if len(b.ordered) <= poolIndexDrop {
			b.dropIndex()
		}
	} else if len(b.ordered) >= poolIndexBuild {
		b.buildIndex()
	}
}

// buildIndex populates the size classes from the address-ordered free
// list. Extents arrive in ascending address order, so every classAdd
// appends at the end of its class list.
func (b *BufferPool) buildIndex() {
	b.indexed = true
	for _, e := range b.ordered {
		b.classAdd(e)
	}
}

func (b *BufferPool) dropIndex() {
	b.indexed = false
	for c := range b.classes {
		if len(b.classes[c]) == 0 {
			continue
		}
		b.classes[c] = b.classes[c][:0]
		if b.classG != nil {
			b.classGauge(c).Set(0)
		}
	}
}

// TryAlloc performs a non-blocking allocation: address-ordered first fit
// over the legacy free list, or segregated fit over the size classes.
func (b *BufferPool) TryAlloc(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("hpbd: invalid allocation size %d", n)
	}
	if b.firstFit {
		return b.tryAllocFirstFit(n)
	}
	if !b.indexed {
		// Small free set: address-ordered first fit straight over the
		// ordered list, no index to maintain.
		for i := range b.ordered {
			if b.ordered[i].len >= n {
				off := b.ordered[i].off
				l := b.ordered[i].len
				b.ordered[i].off += n
				b.ordered[i].len -= n
				if b.ordered[i].len == 0 {
					b.ordered = append(b.ordered[:i], b.ordered[i+1:]...)
				}
				b.dropLargest(l)
				if l > n {
					b.bumpLargest(l - n)
				}
				b.recordAlloc(off, n)
				return off, nil
			}
		}
		return 0, ErrPoolExhausted
	}
	// The request's own class can hold extents both under and over n
	// (class floor <= n <= class ceiling), so it is scanned for the first
	// (lowest-offset) fit; higher classes fit by construction, so the
	// lowest non-empty one yields its lowest offset immediately.
	var pick extent
	ci, cls := -1, -1 // index within class, class number
	c0 := classOf(n)
	for j, e := range b.classes[c0] {
		if e.len >= n {
			pick, ci, cls = e, j, c0
			break
		}
	}
	if ci < 0 {
		for c := c0 + 1; c < len(b.classes); c++ {
			if len(b.classes[c]) > 0 {
				pick, ci, cls = b.classes[c][0], 0, c
				break
			}
		}
	}
	if ci < 0 {
		return 0, ErrPoolExhausted
	}
	// The scan already located pick inside its class; remove by index
	// rather than re-searching.
	lst := b.classes[cls]
	b.classes[cls] = append(lst[:ci], lst[ci+1:]...)
	if b.classG != nil {
		b.classGauge(cls).Set(int64(len(b.classes[cls])))
	}
	b.dropLargest(pick.len)
	i := b.findOrdered(pick.off)
	if pick.len > n {
		// The remainder keeps the extent's slot in address order (same
		// position, higher start), so it is rewritten in place.
		rem := extent{pick.off + n, pick.len - n}
		b.ordered[i] = rem
		b.classAdd(rem)
		b.bumpLargest(rem.len)
	} else {
		b.ordered = append(b.ordered[:i], b.ordered[i+1:]...)
		b.checkIndex()
	}
	b.recordAlloc(pick.off, n)
	return pick.off, nil
}

func (b *BufferPool) tryAllocFirstFit(n int) (int, error) {
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
			if l > n {
				b.bumpLargest(l - n)
			}
			b.recordAlloc(off, n)
			return off, nil
		}
	}
	return 0, ErrPoolExhausted
}

// recordAlloc books the allocation [off, off+n) into the shared state.
func (b *BufferPool) recordAlloc(off, n int) {
	b.allocs[off] = n
	b.inUse += n
	b.allocsTotal++
	if b.inUse > b.PeakInUse {
		b.PeakInUse = b.inUse
	}
	b.inUseG.Set(int64(b.inUse))
	b.sample()
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

	if b.firstFit {
		b.freeFirstFit(off, n)
	} else {
		// i is the right-neighbour candidate; i-1 the left.
		i := b.findOrdered(off)
		mergeR := i < len(b.ordered) && b.ordered[i].off == off+n
		mergeL := i > 0 && b.ordered[i-1].off+b.ordered[i-1].len == off
		start, length := off, n
		switch {
		case mergeL && mergeR:
			l, r := b.ordered[i-1], b.ordered[i]
			if b.indexed {
				b.classRemove(l)
				b.classRemove(r)
			}
			b.dropLargest(l.len)
			b.dropLargest(r.len)
			start, length = l.off, l.len+n+r.len
			b.ordered[i-1] = extent{start, length}
			b.ordered = append(b.ordered[:i], b.ordered[i+1:]...)
		case mergeL:
			l := b.ordered[i-1]
			if b.indexed {
				b.classRemove(l)
			}
			b.dropLargest(l.len)
			start, length = l.off, l.len+n
			b.ordered[i-1] = extent{start, length}
		case mergeR:
			r := b.ordered[i]
			if b.indexed {
				b.classRemove(r)
			}
			b.dropLargest(r.len)
			length = n + r.len
			b.ordered[i] = extent{start, length}
		default:
			b.ordered = append(b.ordered, extent{})
			copy(b.ordered[i+1:], b.ordered[i:])
			b.ordered[i] = extent{start, length}
		}
		if b.indexed {
			b.classAdd(extent{start, length})
		}
		b.bumpLargest(length)
		b.checkIndex()
	}
	b.sample()
	b.waiters.WakeAll()
}

func (b *BufferPool) freeFirstFit(off, n int) {
	// Insert into the sorted free list.
	i := 0
	for i < len(b.free) && b.free[i].off < off {
		i++
	}
	b.free = append(b.free, extent{})
	copy(b.free[i+1:], b.free[i:])
	b.free[i] = extent{off, n}

	// Merge with the right neighbour.
	if i+1 < len(b.free) && b.free[i].off+b.free[i].len == b.free[i+1].off {
		b.dropLargest(b.free[i+1].len)
		b.free[i].len += b.free[i+1].len
		b.free = append(b.free[:i+1], b.free[i+2:]...)
	}
	// Merge with the left neighbour.
	if i > 0 && b.free[i-1].off+b.free[i-1].len == b.free[i].off {
		b.dropLargest(b.free[i-1].len)
		b.free[i-1].len += b.free[i].len
		b.free = append(b.free[:i], b.free[i+1:]...)
		i--
	}
	b.bumpLargest(b.free[i].len)
}
