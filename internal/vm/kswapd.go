package vm

import (
	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// submitPageIO queues one page-sized I/O at the device offset for slot.
// The page buffer comes off the device's free list and waitPageIO puts it
// back: the simulated VM carries no page contents, so a page-out writes a
// zero page and a page-in's bytes are dropped.
func (d *SwapDevice) submitPageIO(write bool, slot int) (*blockdev.IO, error) {
	var buf []byte
	if n := len(d.pageBufs); n > 0 {
		buf, d.pageBufs = d.pageBufs[n-1], d.pageBufs[:n-1]
		if write {
			clear(buf) // it last carried whatever a page-in read
		}
	} else {
		buf = make([]byte, PageSize)
	}
	io, err := d.Queue.Submit(write, d.slotSector(slot), buf)
	if err != nil {
		d.pageBufs = append(d.pageBufs, buf)
	}
	return io, err
}

// waitPageIO blocks until io completes, recycles its page buffer — the
// driver is done with it, and every submitted I/O is waited exactly once —
// and returns the I/O's error.
func (d *SwapDevice) waitPageIO(p *sim.Proc, io *blockdev.IO) error {
	err := io.Wait(p)
	d.pageBufs = append(d.pageBufs, io.Data)
	return err
}

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
			freed, writes := s.shrink(p, s.cfg.SwapClusterMax)
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
func (s *System) refillInactive(p *sim.Proc, want int) {
	moved := 0
	scans := s.active.Len()
	for moved < want && scans > 0 && s.active.Len() > 0 {
		scans--
		e := s.active.Back()
		pg := e.Value.(*Page)
		s.active.Remove(e)
		p.Sleep(s.cfg.Host.ReclaimPerPage / 4)
		if pg.referenced {
			pg.referenced = false
			pg.elem = s.active.PushFront(pg)
			continue
		}
		pg.active = false
		pg.elem = s.inactive.PushFront(pg)
		moved++
	}
}

// writeout is one in-flight page write-back produced by shrink.
type writeout struct {
	pg    *Page
	io    *blockdev.IO
	dev   *SwapDevice
	start sim.Time // submission, for the swap-out latency histogram
}

// finalizeWrites waits for each write-back and finalizes its page, and
// returns how many frames that freed: a failed write-back frees none. It
// runs on kswapd's watcher for background reclaim, or synchronously on the
// allocating process for direct reclaim (the Linux 2.4 balance_classzone
// path that couples application progress to swap device latency).
func (s *System) finalizeWrites(p *sim.Proc, writes []writeout) (freed int) {
	for _, w := range writes {
		err := w.dev.waitPageIO(p, w.io)
		pg := w.pg
		if err == nil {
			s.hSwapOut.Observe(p.Now().Sub(w.start))
			if s.tracer != nil {
				s.tracer.Complete("vm", "swap-out", w.start, p.Now(),
					map[string]any{"slot": pg.slot, "req": w.io.RequestID()})
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
		ev := pg.ioDone
		pg.ioDone = nil
		if ev != nil {
			ev.Trigger()
		}
	}
	return freed
}

// directReclaim is the synchronous reclaim an allocating process performs
// under memory pressure: scan, launder, and wait for the write-backs.
func (s *System) directReclaim(p *sim.Proc) int {
	s.stats.DirectReclaims++
	freed, writes := s.shrink(p, s.cfg.SwapClusterMax)
	return freed + s.finalizeWrites(p, writes)
}

// shrink evicts up to batch pages from the inactive tail. It returns the
// number of frames freed immediately and the write-backs it submitted
// (whose frames free when the caller finalizes them).
func (s *System) shrink(p *sim.Proc, batch int) (freed int, writes []writeout) {
	if s.inactive.Len() < batch {
		s.refillInactive(p, batch-s.inactive.Len())
	}
	// Slice keyed by a seen-map: unplug order must follow submission
	// order, not random map order (Unplug dispatches queued I/O).
	seen := map[*SwapDevice]bool{}
	var devsTouched []*SwapDevice
	flowsBegun := map[uint64]bool{} // membership only, never iterated

	scanned := 0
	for scanned < batch && s.inactive.Len() > 0 {
		scanned++
		e := s.inactive.Back()
		pg := e.Value.(*Page)
		s.inactive.Remove(e)
		pg.elem = nil
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
		pg.ioDone = sim.NewEvent(s.env)
		io, serr := dev.submitPageIO(true, slot)
		if serr != nil {
			// Device refused (should not happen): undo.
			dev.freeSlot(slot)
			pg.dev = nil
			pg.state = PageResident
			pg.dirty = true
			ev := pg.ioDone
			pg.ioDone = nil
			ev.Trigger()
			s.lruAdd(pg)
			continue
		}
		s.stats.SwapOuts++
		if s.tracer != nil {
			// One flow per merged block request, beginning at the vm layer.
			if id := io.RequestID(); id != 0 && !flowsBegun[id] {
				flowsBegun[id] = true
				s.tracer.FlowBegin("vm", "req", id)
			}
		}
		writes = append(writes, writeout{pg: pg, io: io, dev: dev, start: p.Now()})
		if !seen[dev] {
			seen[dev] = true
			devsTouched = append(devsTouched, dev)
		}
	}
	for _, dev := range devsTouched {
		dev.Queue.Unplug()
	}
	return freed, writes
}
