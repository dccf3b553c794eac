package hpbd

import (
	"hpbd/internal/blockdev"
	"hpbd/internal/ib"
	"hpbd/internal/sim"
)

// homeKind says which buffer holds a request's payload for the wire.
type homeKind uint8

const (
	homeNone homeKind = iota // not staged yet: a write's bytes are still in the I/O buffers
	homePool                 // an extent of the pre-registered pool (§4.2.2)
	homeMR                   // a reuse-cached MR: hybrid request or merge carrier
	homeMig                  // the device-owned, long-lived migration staging MR
)

// home is a physical request's payload home: the one place that knows
// where the bytes the server RDMAs against live, what that costs the
// client at staging and at completion, and who gets the buffer back.
type home struct {
	kind homeKind
	off  int    // homePool: the extent's offset in the pool
	mr   *ib.MR // homeMR, homeMig
}

// staged reports whether the request holds a buffer. With the merge
// window armed a request queues unstaged: only the sender knows whether
// it rides its own WR or a merged carrier's MR.
func (h *home) staged() bool { return h.kind != homeNone }

// stage picks the home of an n-byte payload — a cached MR at or above the
// MR cache's threshold, otherwise a pool extent, blocking on the pool's
// allocation wait queue under pressure — gathers a write's bytes, the n
// at byte off of w (nil for a read), straight from the block layer's I/O
// buffers into it and charges p what that costs. It fails only when the
// pool cannot satisfy the allocation.
//
//hpbd:hotpath
func (h *home) stage(d *Device, p *sim.Proc, n int, w *blockdev.Request, off int) error {
	if d.mrc.takes(n) {
		// A cache miss charges the registration; a hit charges nothing —
		// the payload pages are (in the modeled driver) registered in
		// place, so no copy is charged either.
		//hpbd:allow hotalloc -- an MR-cache miss registers a fresh buffer; a hit allocates nothing
		h.stageMR(d, p, n)
		d.met.hybridLarge.Inc()
	} else {
		//hpbd:allow hotalloc -- the pool allocates only to format an error; its free list is spliced in place
		ext, err := d.pool.Alloc(p, n)
		if err != nil {
			return err
		}
		*h = home{kind: homePool, off: ext}
		if d.cfg.RegisterOnTheFly {
			// Ablation: pay the registration cost the pool design avoids (the
			// data still flows through pool space so the RDMA path is
			// unchanged; only the cost model differs).
			p.Sleep(d.mem.Register(n))
		} else if w != nil {
			// The copy that replaces on-the-fly registration (§4.2.2).
			p.Sleep(d.mem.Memcpy(n))
		}
	}
	if w != nil {
		w.Gather(h.bytes(d)[:n], off)
	}
	return nil
}

// stageMR homes n bytes in a reuse-cached MR whatever the threshold says:
// a merge carrier gathers its constituents there through the HCA's
// scatter/gather list, so no memcpy is charged.
func (h *home) stageMR(d *Device, p *sim.Proc, n int) {
	*h = home{kind: homeMR, mr: d.mrc.get(p, n)}
}

// stageMig homes a migration chunk in the device's migration MR: the read
// off the source lands there and the write to the destination sends it
// from there, so the pool and foreground allocation are untouched.
func (h *home) stageMig(d *Device) { *h = home{kind: homeMig, mr: d.migMR} }

// bytes returns the staged buffer, payload first.
func (h *home) bytes(d *Device) []byte {
	if h.kind == homePool {
		return d.poolMR.Buf[h.off:]
	}
	return h.mr.Buf
}

// remote returns what the control message advertises: the payload's
// address within, and the rkey of, the region the server RDMAs against.
func (h *home) remote(d *Device) (addr uint64, rkey uint32) {
	if h.kind == homePool {
		return uint64(h.off), d.poolMR.RKey
	}
	return 0, h.mr.RKey
}

// landed charges p the client-side cost of a completed transfer: out of
// the pool, a read's copy-out (under the ablation, the deregistration);
// in an MR nothing — the RDMA used the request's own registered buffer.
func (h *home) landed(d *Device, p *sim.Proc, write bool, n int) {
	if h.kind != homePool {
		return
	}
	if d.cfg.RegisterOnTheFly {
		p.Sleep(d.mem.Deregister())
	} else if !write {
		p.Sleep(d.mem.Memcpy(n))
	}
}

// release returns the buffer — the extent to the pool, the MR to the
// reuse cache (not a deregister), the migration MR to nobody — and leaves
// the request unstaged. p may be nil on failure paths (a cache eviction
// then skips the deregistration charge — there is no process to bill).
func (h *home) release(d *Device, p *sim.Proc) {
	switch h.kind {
	case homePool:
		d.pool.Free(h.off)
	case homeMR:
		d.mrc.put(p, h.mr)
	}
	*h = home{}
}
