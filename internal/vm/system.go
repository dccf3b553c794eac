package vm

import (
	"errors"
	"sort"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// ErrOutOfMemory reports that an allocation could not be satisfied: memory
// and swap are exhausted (or reclaim made no progress).
var ErrOutOfMemory = errors.New("vm: out of memory")

// Page is the per-virtual-page bookkeeping record.
type Page struct {
	as  *AddressSpace
	idx int

	// Swap binding (valid in PageWriting/PageSwappedOut/PageReading, and
	// in PageResident for clean swap-cache pages).
	dev  *SwapDevice
	slot int

	// LRU membership while resident: the list that holds the page and its
	// neighbours there, all nil off the lists.
	lru        *pageList
	prev, next *Page // prev is towards the front (more recent)

	// ioDone is re-armed when a transition (write-out or read-in) starts
	// and triggered when it finishes; waiters re-inspect state afterwards.
	ioDone sim.Event

	state      PageState
	dirty      bool
	referenced bool
	// readahead marks pages brought in speculatively, for stats.
	readahead bool
}

// State returns the page's current lifecycle state.
func (pg *Page) State() PageState { return pg.state }

// pageList is one LRU list, linked through the pages themselves.
type pageList struct {
	front, back *Page // front = most recent
	n           int
}

//hpbd:hotpath
func (l *pageList) pushFront(pg *Page) {
	pg.lru, pg.prev, pg.next = l, nil, l.front
	if l.front != nil {
		l.front.prev = pg
	} else {
		l.back = pg
	}
	l.front = pg
	l.n++
}

//hpbd:hotpath
func (l *pageList) remove(pg *Page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		l.front = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		l.back = pg.prev
	}
	pg.lru, pg.prev, pg.next = nil, nil, nil
	l.n--
}

// reclaimScratch is the working storage of one reclaim pass, reused by the
// pass after it: the write-backs shrink submitted and the devices to
// unplug. A pass owns it until its write-backs are finalized, so each
// context that reclaims (kswapd, the one direct reclaimer) has its own.
type reclaimScratch struct {
	writes []*pageIO
	devs   []*SwapDevice
}

// System is one node's VM: physical frames, the LRU lists, kswapd, and the
// registered swap devices.
type System struct {
	env *sim.Env
	cfg Config

	freePages int
	active    pageList
	inactive  pageList
	swapDevs  []*SwapDevice

	kswapdScratch, directScratch reclaimScratch
	freeBatches                  *swapinBatch // idle swap-in watcher records

	freeWait   *sim.WaitQueue // allocators waiting for memory
	kswapdWake *sim.WaitQueue
	// lastScanFutile records that the previous reclaim pass made no
	// progress, so kswapd parks instead of spinning below the watermark.
	lastScanFutile bool
	// reclaiming serializes direct reclaim so concurrent allocators do
	// not all launder at once.
	reclaiming bool
	// rrCount drives round-robin rotation among equal-priority devices.
	rrCount int64
	stats   Stats

	// Telemetry handles (nil-safe: no-ops without cfg.Telemetry).
	hSwapOut *telemetry.Histogram // page write-back submit -> completion
	hSwapIn  *telemetry.Histogram // page read submit -> completion
	tracer   *telemetry.Tracer
}

// NewSystem creates a VM on env and starts kswapd.
func NewSystem(env *sim.Env, cfg Config) *System {
	s := &System{
		env:        env,
		cfg:        cfg,
		freePages:  cfg.PhysPages,
		freeWait:   sim.NewWaitQueue(env),
		kswapdWake: sim.NewWaitQueue(env),
		hSwapOut:   cfg.Telemetry.Histogram("vm.swapout.latency"),
		hSwapIn:    cfg.Telemetry.Histogram("vm.swapin.latency"),
		tracer:     cfg.Telemetry.Tracer(),
	}
	env.Go("kswapd", s.kswapd)
	return s
}

// Env returns the simulation environment.
func (s *System) Env() *sim.Env { return s.env }

// Config returns the VM configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a copy of the counters.
func (s *System) Stats() Stats { return s.stats }

// FreePages returns the current free frame count.
func (s *System) FreePages() int { return s.freePages }

// AddSwap registers a block device queue as a swap area with the given
// priority (higher is used first, as with swapon -p) and returns the
// device record.
func (s *System) AddSwap(q *blockdev.Queue, prio int) *SwapDevice {
	d := newSwapDevice(q, prio, s.cfg.SlotCluster)
	s.swapDevs = append(s.swapDevs, d)
	s.sortSwapDevs()
	return d
}

// SwapDevices returns the registered devices in priority order.
func (s *System) SwapDevices() []*SwapDevice { return s.swapDevs }

// SwapFree returns total free slots across devices.
func (s *System) SwapFree() int {
	n := 0
	for _, d := range s.swapDevs {
		n += d.FreeSlots()
	}
	return n
}

// allocSwapSlot picks a device and allocates a slot: highest priority
// first, round-robin among devices of equal priority (as swapon does, so
// equal-priority devices share load instead of filling in order).
//
// Each equal-priority group is walked from a rotating start. The rotation
// advances once per SlotCluster allocations so whole clusters stay on one
// device (merging still works) while load spreads.
func (s *System) allocSwapSlot(pg *Page) (*SwapDevice, int, error) {
	devs := s.swapDevs
	if len(devs) > 1 {
		s.rrCount++
	}
	for i := 0; i < len(devs); {
		j := i + 1
		for j < len(devs) && devs[j].Prio == devs[i].Prio {
			j++
		}
		group := devs[i:j]
		start := 0
		if len(group) > 1 {
			start = int(s.rrCount/int64(s.cfg.SlotCluster)) % len(group)
		}
		for k := range group {
			d := group[(start+k)%len(group)]
			if slot, ok := d.allocSlot(pg); ok {
				return d, slot, nil
			}
		}
		i = j
	}
	return nil, 0, ErrSwapFull
}

// lruAdd puts a resident page on the front of the active list.
//
//hpbd:hotpath
func (s *System) lruAdd(pg *Page) { s.active.pushFront(pg) }

// lruRemove detaches a page from whichever list holds it.
//
//hpbd:hotpath
func (s *System) lruRemove(pg *Page) {
	if pg.lru != nil {
		pg.lru.remove(pg)
	}
}

// wakeKswapd nudges the background reclaimer.
func (s *System) wakeKswapd() {
	if s.kswapdWake.WakeOne() {
		s.stats.KswapdWakes++
	}
}

// allocFrame obtains one free frame for p. Below the low watermark the
// allocating process performs synchronous direct reclaim — the Linux 2.4
// balance_classzone behaviour the paper's platform ran — so application
// progress is coupled to the swap device's write-back latency.
func (s *System) allocFrame(p *sim.Proc) error {
	if s.freePages < s.cfg.FreeLow && !s.reclaiming {
		// Launder a batch ourselves and wait for it (balance_classzone).
		// Concurrent allocators (and recursive swap-in allocations) skip
		// straight to the floor check below. kswapd is only woken as a
		// safety net near the hard floor.
		s.reclaiming = true
		s.directReclaim(p)
		s.reclaiming = false
	}
	if s.freePages <= 2 {
		// Emergency only: under sustained pressure reclaim happens in
		// process context above; kswapd is the last-resort trickle.
		s.wakeKswapd()
	}
	attempts := 0
	for s.freePages <= 0 {
		s.stats.AllocStalls++
		s.wakeKswapd()
		if !s.freeWait.WaitTimeout(p, 10*sim.Millisecond) {
			attempts++
			if attempts > 200 {
				return ErrOutOfMemory
			}
		}
	}
	s.freePages--
	return nil
}

// tryAllocFrame is the non-blocking variant used by readahead: it fails
// rather than stalls when memory is tight.
func (s *System) tryAllocFrame() bool {
	if s.freePages <= s.cfg.FreeMin {
		return false
	}
	s.freePages--
	return true
}

// releaseFrame returns a frame to the free pool and wakes waiters.
func (s *System) releaseFrame() {
	s.freePages++
	s.freeWait.WakeAll()
}

// sortSwapDevs keeps devices in descending priority order.
func (s *System) sortSwapDevs() {
	sort.SliceStable(s.swapDevs, func(i, j int) bool {
		return s.swapDevs[i].Prio > s.swapDevs[j].Prio
	})
}
