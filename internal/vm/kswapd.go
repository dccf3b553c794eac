package vm

import (
	"slices"

	"hpbd/internal/sim"
)

// kswapd is the background reclaimer: woken when free pages fall below
// FreeLow, it ages the LRU and evicts from the inactive tail until free
// pages reach FreeHigh.
func (s *System) kswapd(p *sim.Proc) {
	for {
		// Park until an allocator wakes us (even if still below the
		// watermark: when reclaim can make no progress, spinning would
		// live-lock the simulation; allocators re-wake us on every stall).
		if s.freePages >= s.cfg.FreeLow || s.lastScanFutile {
			s.kswapdWake.Wait(p)
		}
		s.lastScanFutile = false
		noProgress := 0
		// kswapd only restores the floor-to-low band: allocating
		// processes launder for themselves above it (2.4's
		// balance_classzone keeps reclaim in process context under
		// sustained pressure, which is what couples the paper's
		// application times to swap device latency).
		for s.freePages < s.cfg.FreeLow && noProgress < 3 {
			freed, writes := s.shrink(p, s.cfg.SwapClusterMax, &s.kswapdScratch)
			// 2.4 kswapd launders synchronously: it waits for its batch
			// before scanning again, so background reclaim cannot outrun
			// the swap device.
			freed += s.finalizeWrites(p, writes)
			if freed > 0 {
				noProgress = 0
				continue
			}
			// No progress possible right now (nothing on the lists,
			// everything referenced, swap full, or every write-back
			// failed). Back off briefly, then park again; allocators
			// re-wake us.
			noProgress++
			if noProgress >= 3 {
				s.lastScanFutile = true
			}
			s.kswapdWake.WaitTimeout(p, 2*sim.Millisecond)
		}
	}
}

// refillInactive ages pages from the active tail onto the inactive list,
// giving referenced pages a second trip around the active list.
//
//hpbd:hotpath
func (s *System) refillInactive(p *sim.Proc, want int) {
	moved := 0
	scans := s.active.n
	for moved < want && scans > 0 && s.active.n > 0 {
		scans--
		pg := s.active.back
		s.active.remove(pg)
		p.Sleep(s.cfg.Host.ReclaimPerPage / 4)
		if pg.referenced {
			pg.referenced = false
			s.active.pushFront(pg)
			continue
		}
		s.inactive.pushFront(pg)
		moved++
	}
}

// finalizeWrites waits for each write-back and finalizes its page, and
// returns how many frames that freed: a failed write-back frees none. It
// runs on kswapd's watcher for background reclaim, or synchronously on the
// allocating process for direct reclaim (the Linux 2.4 balance_classzone
// path that couples application progress to swap device latency).
func (s *System) finalizeWrites(p *sim.Proc, writes []*pageIO) (freed int) {
	for _, w := range writes {
		err := w.Wait(p)
		pg := w.pg
		if err == nil {
			s.hSwapOut.Observe(p.Now().Sub(w.start))
			if s.tracer != nil {
				s.tracer.Complete("vm", "swap-out", w.start, p.Now(),
					map[string]any{"slot": pg.slot, "req": w.RequestID()})
			}
		}
		if err != nil {
			// Failed write-back: page stays resident and dirty.
			w.dev.freeSlot(pg.slot)
			pg.dev = nil
			pg.state = PageResident
			pg.dirty = true
			s.lruAdd(pg)
		} else {
			pg.state = PageSwappedOut
			s.releaseFrame()
			freed++
		}
		pg.ioDone.Trigger()
		w.recycle()
	}
	return freed
}

// directReclaim is the synchronous reclaim an allocating process performs
// under memory pressure: scan, launder, and wait for the write-backs.
func (s *System) directReclaim(p *sim.Proc) int {
	s.stats.DirectReclaims++
	freed, writes := s.shrink(p, s.cfg.SwapClusterMax, &s.directScratch)
	return freed + s.finalizeWrites(p, writes)
}

// shrink evicts up to batch pages from the inactive tail. It returns the
// number of frames freed immediately and the write-backs it submitted
// (whose frames free when the caller finalizes them), which live in sc
// until then.
func (s *System) shrink(p *sim.Proc, batch int, sc *reclaimScratch) (freed int, writes []*pageIO) {
	if s.inactive.n < batch {
		s.refillInactive(p, batch-s.inactive.n)
	}
	// Unplug order follows first-submission order (Unplug dispatches
	// queued I/O).
	sc.writes, sc.devs = sc.writes[:0], sc.devs[:0]
	var flowsBegun map[uint64]bool

	scanned := 0
	for scanned < batch && s.inactive.n > 0 {
		scanned++
		pg := s.inactive.back
		s.inactive.remove(pg)
		p.Sleep(s.cfg.Host.ReclaimPerPage)

		if pg.referenced {
			// Second chance: back to active.
			pg.referenced = false
			s.lruAdd(pg)
			continue
		}
		if !pg.dirty {
			// Clean: drop the frame. A swap-cache page keeps its slot
			// (refault will read it back); a never-written page refaults
			// as demand-zero.
			if pg.dev != nil {
				pg.state = PageSwappedOut
			} else {
				pg.state = PageNotPresent
			}
			s.releaseFrame()
			s.stats.FreedClean++
			freed++
			continue
		}
		// Dirty: needs a slot and a write-back.
		dev, slot, err := s.allocSwapSlot(pg)
		if err != nil {
			// Swap full: the page stays resident; put it back on active
			// so we do not rescan it immediately.
			s.lruAdd(pg)
			continue
		}
		pg.dev, pg.slot = dev, slot
		pg.state = PageWriting
		pg.dirty = false
		pg.ioDone.Reset()
		w, serr := dev.submitPageIO(true, pg, p.Now())
		if serr != nil {
			// Device refused (should not happen): undo.
			dev.freeSlot(slot)
			pg.dev = nil
			pg.state = PageResident
			pg.dirty = true
			pg.ioDone.Trigger()
			s.lruAdd(pg)
			continue
		}
		s.stats.SwapOuts++
		flowsBegun = s.beginFlow(flowsBegun, w.RequestID())
		sc.writes = append(sc.writes, w)
		if !slices.Contains(sc.devs, dev) {
			sc.devs = append(sc.devs, dev)
		}
	}
	for _, dev := range sc.devs {
		dev.Queue.Unplug()
	}
	return freed, sc.writes
}

// beginFlow starts the trace flow of block request id at the vm layer,
// once: begun holds the ids a batch has already started (one flow per
// merged request) and is built only when a tracer is attached.
func (s *System) beginFlow(begun map[uint64]bool, id uint64) map[uint64]bool {
	if s.tracer == nil || id == 0 || begun[id] {
		return begun
	}
	if begun == nil {
		begun = map[uint64]bool{}
	}
	begun[id] = true
	s.tracer.FlowBegin("vm", "req", id)
	return begun
}
