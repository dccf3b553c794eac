package vm

import (
	"container/list"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// nullDriver completes every request at once and keeps nothing.
type nullDriver struct{ sectors int64 }

func (nullDriver) Name() string                            { return "null" }
func (d nullDriver) Sectors() int64                        { return d.sectors }
func (nullDriver) Submit(_ *sim.Proc, r *blockdev.Request) { r.Complete(nil) }

// TestFaultPathAllocBudget pins the host cost of a major fault: sweeps
// over an address space twice the memory, read-ahead 8, every page dirtied
// so each one is written out and read back. Nothing is left per fault —
// the page I/O records, the watcher record and its callbacks, and the
// block layer's request records are all recycled; a change that
// re-introduces a per-page, per-transition, per-batch or per-request
// allocation anywhere from Touch to Complete fails here.
func TestFaultPathAllocBudget(t *testing.T) {
	const allocBudget = 1 // measured 0.00
	const memPages, pages = 256, 512
	env := sim.NewEnv()
	cfg := DefaultConfig(memPages * PageSize)
	sys := NewSystem(env, cfg)
	sys.AddSwap(blockdev.NewQueue(env, cfg.Host, nullDriver{4 * pages * SectorsPerPage}), 0)
	as := sys.NewAddressSpace("a", pages)
	sweep := func(p *sim.Proc) {
		for i := 0; i < pages; i++ {
			if err := as.Touch(p, i, true); err != nil {
				t.Errorf("Touch(%d): %v", i, err)
			}
		}
	}
	var allocs float64
	env.Go("test", func(p *sim.Proc) {
		sweep(p)
		sweep(p)
		var before, after runtime.MemStats
		st0 := sys.Stats()
		runtime.ReadMemStats(&before)
		for i := 0; i < 8; i++ {
			sweep(p)
		}
		runtime.ReadMemStats(&after)
		st := sys.Stats()
		faults := st.Faults - st0.Faults
		if st.SwapIns-st0.SwapIns != faults || st.ReadAheadPages == st0.ReadAheadPages || st.SwapOuts == st0.SwapOuts {
			t.Errorf("measured sweeps: %+v after %+v: want every fault a swap-in, with read-ahead and write-back", st, st0)
		}
		allocs = float64(after.Mallocs-before.Mallocs) / float64(faults)
	})
	env.Run()
	env.Close()
	if allocs > allocBudget {
		t.Errorf("major fault: %.2f allocs, budget %d", allocs, allocBudget)
	} else {
		t.Logf("major fault: %.2f allocs (budget %d)", allocs, allocBudget)
	}
}

// lruModel is the two-list LRU on container/list, the reference the
// intrusive lists are checked against: same policy, its own flags.
type lruModel struct {
	active, inactive *list.List // of *Page, front = most recent
	ref, dirty       map[*Page]bool
}

func (m *lruModel) add(pg *Page, dirty bool) {
	m.active.PushFront(pg)
	m.ref[pg], m.dirty[pg] = false, dirty
}

func (m *lruModel) remove(pg *Page) {
	for _, l := range []*list.List{m.active, m.inactive} {
		for e := l.Front(); e != nil; e = e.Next() {
			if e.Value == pg {
				l.Remove(e)
				return
			}
		}
	}
}

func (m *lruModel) refill(want int) {
	moved := 0
	for scans := m.active.Len(); moved < want && scans > 0; scans-- {
		pg := m.active.Remove(m.active.Back()).(*Page)
		if m.ref[pg] {
			m.ref[pg] = false
			m.active.PushFront(pg)
			continue
		}
		m.inactive.PushFront(pg)
		moved++
	}
}

// shrink returns the evicted pages in eviction order.
func (m *lruModel) shrink(batch int) (evicted []*Page) {
	if m.inactive.Len() < batch {
		m.refill(batch - m.inactive.Len())
	}
	for scanned := 0; scanned < batch && m.inactive.Len() > 0; scanned++ {
		pg := m.inactive.Remove(m.inactive.Back()).(*Page)
		if m.ref[pg] {
			m.ref[pg] = false
			m.active.PushFront(pg)
			continue
		}
		evicted = append(evicted, pg)
	}
	return evicted
}

// sameList checks one intrusive list against the model's, link by link in
// both directions.
func sameList(t *testing.T, step int, name string, l *pageList, want *list.List) {
	t.Helper()
	if l.n != want.Len() {
		t.Fatalf("step %d: %s holds %d pages, model %d", step, name, l.n, want.Len())
	}
	pg, prev := l.front, (*Page)(nil)
	for e := want.Front(); e != nil; e = e.Next() {
		if pg != e.Value.(*Page) {
			t.Fatalf("step %d: %s differs from the model front to back", step, name)
		}
		if pg.prev != prev || pg.lru != l {
			t.Fatalf("step %d: %s page %d: broken prev link or owner", step, name, pg.idx)
		}
		pg, prev = pg.next, pg
	}
	if pg != nil || l.back != prev {
		t.Fatalf("step %d: %s runs past the model's end or has the wrong back", step, name)
	}
}

// The intrusive active/inactive lists behave as container/list did under a
// random stream of faults-in, removals, references, ageing and eviction:
// same order and lengths after every step, same eviction order, and a page
// off the lists carries no links.
func TestLRUMatchesListModel(t *testing.T) {
	const pages = 96
	r := newRig(2*pages, 4096, 0)
	s := r.sys
	as := s.NewAddressSpace("a", pages)
	m := &lruModel{active: list.New(), inactive: list.New(), ref: map[*Page]bool{}, dirty: map[*Page]bool{}}
	rng := rand.New(rand.NewSource(21))
	offList := func(step int, pg *Page) {
		if pg.lru != nil || pg.prev != nil || pg.next != nil {
			t.Fatalf("step %d: page %d off the lists keeps lru=%p prev=%p next=%p", step, pg.idx, pg.lru, pg.prev, pg.next)
		}
	}
	steps := 0
	r.run(func(p *sim.Proc) {
		var sc reclaimScratch
		for ; steps < 4000; steps++ {
			pg := as.Page(rng.Intn(pages))
			switch op := rng.Intn(10); {
			case op < 4: // fault in by hand, or reference
				if pg.state == PageResident {
					pg.referenced, m.ref[pg] = true, true
					break
				}
				if pg.dev != nil {
					pg.dev.freeSlot(pg.slot)
					pg.dev = nil
				}
				pg.state, pg.dirty, pg.referenced = PageResident, rng.Intn(2) == 0, false
				s.freePages--
				s.lruAdd(pg)
				m.add(pg, pg.dirty)
			case op < 5:
				if pg.state != PageResident {
					break
				}
				s.lruRemove(pg)
				s.lruRemove(pg) // idempotent off the lists
				s.releaseFrame()
				pg.state = PageNotPresent
				m.remove(pg)
				offList(steps, pg)
			case op < 7:
				k := 1 + rng.Intn(12)
				s.refillInactive(p, k)
				m.refill(k)
			default:
				k := 1 + rng.Intn(12)
				want := m.shrink(k)
				_, writes := s.shrink(p, k, &sc)
				var wrote []*Page
				for _, w := range writes {
					wrote = append(wrote, w.pg)
				}
				s.finalizeWrites(p, writes)
				for _, pg := range want {
					offList(steps, pg)
					if m.dirty[pg] {
						if len(wrote) == 0 || wrote[0] != pg || pg.state != PageSwappedOut {
							t.Fatalf("step %d: dirty page %d not written out in the model's eviction order", steps, pg.idx)
						}
						wrote = wrote[1:]
					} else if pg.state != PageNotPresent {
						t.Fatalf("step %d: clean page %d evicted into state %v", steps, pg.idx, pg.state)
					}
				}
				if len(wrote) != 0 {
					t.Fatalf("step %d: %d write-backs the model did not evict", steps, len(wrote))
				}
			}
			sameList(t, steps, "active", &s.active, m.active)
			sameList(t, steps, "inactive", &s.inactive, m.inactive)
			for e := m.active.Front(); e != nil; e = e.Next() {
				if pg := e.Value.(*Page); pg.referenced != m.ref[pg] {
					t.Fatalf("step %d: page %d referenced=%v, model %v", steps, pg.idx, pg.referenced, m.ref[pg])
				}
			}
		}
	})
	if steps != 4000 {
		t.Fatalf("stopped after %d steps", steps)
	}
	if st := s.Stats(); st.SwapOuts == 0 || st.FreedClean == 0 {
		t.Errorf("stream evicted %d dirty and %d clean pages: want both kinds", st.SwapOuts, st.FreedClean)
	}
}

// A swap-in whose read-ahead runs off the end of a device that shrank
// under it fails the fault but leaves nothing behind: the pages it had
// submitted are finalized, the one it could not submit goes back to its
// slot with its frame returned, and nobody is left waiting.
func TestSwapInSubmitErrorUnwinds(t *testing.T) {
	const cut = 20 // slots from here on fall off the device: mid read-ahead window
	r := newRig(128, 4096, 20*sim.Microsecond)
	s := r.sys
	as := s.NewAddressSpace("a", 128)
	hog := s.NewAddressSpace("hog", 256)
	finished := false
	r.run(func(p *sim.Proc) {
		for i := 0; i < as.NumPages(); i++ {
			as.Touch(p, i, true)
		}
		for i := 0; i < hog.NumPages(); i++ { // push all of "a" out
			hog.Touch(p, i, true)
		}
		p.Sleep(sim.Millisecond) // let write-backs settle
		hog.Release()
		var below, above bool
		for i := 0; i < as.NumPages(); i++ {
			if pg := as.Page(i); pg.state == PageSwappedOut {
				below = below || pg.slot >= cut-4 && pg.slot < cut
				above = above || pg.slot >= cut && pg.slot < cut+4
			}
		}
		if !below || !above {
			t.Fatalf("set-up: no swapped-out pages on both sides of slot %d in its read-ahead window", cut)
		}
		r.dev.sectors = cut * SectorsPerPage

		failed := 0
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < as.NumPages(); i++ {
				if err := as.Touch(p, i, false); err != nil {
					failed++
				}
			}
			p.Sleep(sim.Millisecond) // watchers of failed faults finish
		}
		if failed == 0 {
			t.Error("no fault failed: the device did not shrink under the swapped-out pages")
		}
		finished = true
	})
	if !finished {
		t.Fatal("a Touch parked for ever")
	}
	for i := 0; i < as.NumPages(); i++ {
		if st := as.Page(i).state; st != PageResident && st != PageSwappedOut {
			t.Errorf("page %d left in state %v", i, st)
		}
	}
	if got := s.FreePages() + as.ResidentPages(); got != s.cfg.PhysPages {
		t.Errorf("free %d + resident %d = %d frames, want %d: frames leaked", s.FreePages(), as.ResidentPages(), got, s.cfg.PhysPages)
	}
	if as.ResidentPages() < cut/2 {
		t.Errorf("only %d pages came back: the in-range reads were not finalized", as.ResidentPages())
	}
	if idleRecords(r.swap) == 0 {
		t.Error("no page-I/O record returned to the free list")
	}
}

// rotatedDevsRef is the allocation order as the slice-building version
// computed it: descending priority, each equal-priority group rotated by
// rr/cluster.
func rotatedDevsRef(devs []*SwapDevice, rr int64, cluster int) []*SwapDevice {
	out := make([]*SwapDevice, 0, len(devs))
	for i := 0; i < len(devs); {
		j := i
		for j < len(devs) && devs[j].Prio == devs[i].Prio {
			j++
		}
		group := devs[i:j]
		start := int(rr/int64(cluster)) % len(group)
		for k := range group {
			out = append(out, group[(start+k)%len(group)])
		}
		i = j
	}
	return out
}

// Slot allocation walks the priority groups in place: the device sequence
// is the one the slice-building rotation produced — clusters alternating
// between the equal-priority pair, the lower priority only once both are
// full — and an allocation allocates nothing.
func TestSlotRotationOrderAndAllocsPerRun(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cfg := DefaultConfig(64 * PageSize)
	cfg.SlotCluster = 8
	s := NewSystem(env, cfg)
	add := func(slots, prio int) *SwapDevice {
		return s.AddSwap(blockdev.NewQueue(env, cfg.Host, nullDriver{int64(slots) * SectorsPerPage}), prio)
	}
	low := add(64, 0)
	a, b := add(12, 1), add(12, 1)
	if devs := s.SwapDevices(); devs[0] != a || devs[1] != b || devs[2] != low {
		t.Fatalf("device order %v, want the equal pair ahead of the low priority", devs)
	}
	as := s.NewAddressSpace("a", 4*cfg.SlotCluster)
	used := map[*SwapDevice]int{}
	for i := 0; i < as.NumPages(); i++ {
		var want *SwapDevice
		for _, d := range rotatedDevsRef(s.swapDevs, int64(i+1), cfg.SlotCluster) {
			if d.FreeSlots() > 0 {
				want = d
				break
			}
		}
		d, slot, err := s.allocSwapSlot(as.Page(i))
		if err != nil || d != want || d.owner[slot] != as.Page(i) {
			t.Fatalf("allocation %d: device %p slot %d err %v, want device %p", i, d, slot, err, want)
		}
		used[d]++
	}
	if used[a] != 12 || used[b] != 12 || used[low] != 8 {
		t.Errorf("slots used: %d + %d on the pair, %d on the low priority; want 12 + 12 + 8", used[a], used[b], used[low])
	}
	pg := s.NewAddressSpace("b", 1).Page(0)
	if n := testing.AllocsPerRun(100, func() {
		d, slot, err := s.allocSwapSlot(pg)
		if err != nil {
			t.Fatal(err)
		}
		d.freeSlot(slot)
	}); n != 0 {
		t.Errorf("allocSwapSlot: %v allocs with three devices registered, want 0", n)
	}
}

// reverseDriver completes the requests of a batch in reverse dispatch
// order: each later request takes 100 us less than the one before it.
type reverseDriver struct {
	env  *sim.Env
	n    int
	done []int64 // first sector of each request, in completion order
}

func (*reverseDriver) Name() string   { return "reverse" }
func (*reverseDriver) Sectors() int64 { return 64 * SectorsPerPage }
func (d *reverseDriver) Submit(_ *sim.Proc, r *blockdev.Request) {
	delay := sim.Duration(300-100*d.n) * sim.Microsecond
	d.n++
	sector := r.Sector
	d.env.After(delay, func() {
		d.done = append(d.done, sector)
		r.Complete(nil)
	})
}

// Pages finalize in batch order, not completion order: a fault on the
// page at slot 4 of a swapped-out window reads 4 first, then 0..3 and
// 5..7; the block layer makes that requests [3..7] and [0..2], and the
// driver completes the second one first. Pages 0..2 still finalize behind
// page 4, so every vm.swapin.latency sample is taken when the first
// request lands (values pinned from the watcher process at efa37d3).
func TestSwapInFinalizesInBatchOrder(t *testing.T) {
	env := sim.NewEnv()
	reg := telemetry.New(env)
	cfg := DefaultConfig(256 * PageSize)
	cfg.Telemetry = reg
	sys := NewSystem(env, cfg)
	drv := &reverseDriver{env: env}
	dev := sys.AddSwap(blockdev.NewQueue(env, cfg.Host, drv), 0)
	as := sys.NewAddressSpace("a", 8)
	for i := range as.pages {
		pg := &as.pages[i]
		slot, ok := dev.allocSlot(pg)
		if !ok || slot != i {
			t.Fatalf("page %d got slot %d (ok=%v), want slot %d", i, slot, ok, i)
		}
		pg.dev, pg.slot, pg.state = dev, slot, PageSwappedOut
	}
	var touched sim.Time
	env.Go("fault", func(p *sim.Proc) {
		if err := as.Touch(p, 4, false); err != nil {
			t.Errorf("Touch: %v", err)
		}
		touched = p.Now()
	})
	env.Run()
	env.Close()

	if want := []int64{0, 3 * SectorsPerPage}; !slices.Equal(drv.done, want) {
		t.Fatalf("requests completed in order %v, want %v: [0..2] before [3..7]", drv.done, want)
	}
	var order []int // finalization order: lruAdd pushes each page to the active front
	for pg := sys.active.back; pg != nil; pg = pg.prev {
		order = append(order, pg.idx)
	}
	if want := []int{4, 0, 1, 2, 3, 5, 6, 7}; !slices.Equal(order, want) {
		t.Errorf("pages finalized in order %v, want batch order %v", order, want)
	}
	h := reg.Histogram("vm.swapin.latency")
	const sample = 322 * sim.Microsecond // [3..7]: 2 us + 5 x 4 us of dispatch, 300 us of device
	if h.Count() != 8 || h.Min() != sample || h.Max() != sample || h.Sum() != 8*sample {
		t.Errorf("vm.swapin.latency: n=%d min=%v max=%v sum=%v, want 8 samples of %v",
			h.Count(), h.Min(), h.Max(), h.Sum(), sample)
	}
	if want := sim.Time(0).Add(cfg.Host.PageFaultCPU + sample); touched != want {
		t.Errorf("Touch returned at %v, want %v", touched, want)
	}
	if st := sys.Stats(); st.SwapIns != 1 || st.ReadAheadPages != 7 {
		t.Errorf("stats = %+v, want one swap-in with 7 read-ahead pages", st)
	}
	if sys.freeBatches == nil || sys.freeBatches.cursor != 0 || len(sys.freeBatches.reads) != 0 {
		t.Error("the watcher record did not retire clean")
	}
}
