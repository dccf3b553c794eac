package vm

import (
	"errors"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// ErrSwapFull reports that no swap device has a free slot.
var ErrSwapFull = errors.New("vm: swap space exhausted")

// SwapDevice is one registered swap area backed by a block device queue.
type SwapDevice struct {
	Queue *blockdev.Queue
	Prio  int

	nslots    int
	used      []bool
	owner     []*Page // reverse map slot -> page, for readahead
	freeSlots int
	// Clustered allocation state (SWAPFILE_CLUSTER): hand out consecutive
	// slots from the current cluster so sequential reclaim produces
	// sequential device offsets, which the block layer then merges.
	next      int
	remaining int
	cluster   int

	freeIOs *pageIO // idle page-I/O records (see submitPageIO)
}

// pageIO is one page-sized I/O record with its 4 K buffer, reused across
// submissions: the simulated VM carries no page contents, so a page-out
// writes a zero page and a page-in's bytes are dropped. From submitPageIO
// until its Wait returns the record and the buffer are the driver's (see
// blockdev.IO); then the waiter reads what it needs and recycles it.
type pageIO struct {
	blockdev.IO
	dev   *SwapDevice
	pg    *Page    // the page in transition
	start sim.Time // submission, for the latency histograms
	next  *pageIO  // free-list link
}

// submitPageIO queues a page-sized I/O for pg at its slot's device offset,
// on a record off the device's free list.
//
//hpbd:hotpath
func (d *SwapDevice) submitPageIO(write bool, pg *Page, now sim.Time) (*pageIO, error) {
	rec := d.freeIOs
	if rec != nil {
		d.freeIOs, rec.next = rec.next, nil
		if write {
			clear(rec.Data) // it last carried whatever a page-in read
		}
	} else {
		//hpbd:allow hotalloc -- free-list miss: the records a run keeps in flight are made once, then recycled
		rec = &pageIO{dev: d}
		//hpbd:allow hotalloc -- the new record's page buffer, kept for the record's life
		rec.Data = make([]byte, PageSize)
	}
	rec.Write, rec.Sector = write, d.slotSector(pg.slot)
	rec.pg, rec.start = pg, now
	if err := d.Queue.SubmitIO(&rec.IO); err != nil {
		rec.recycle()
		return nil, err
	}
	return rec, nil
}

// recycle returns a record whose I/O has been waited for (or was refused)
// to its device's free list.
//
//hpbd:hotpath
func (rec *pageIO) recycle() {
	rec.pg = nil
	rec.next, rec.dev.freeIOs = rec.dev.freeIOs, rec
}

func newSwapDevice(q *blockdev.Queue, prio, slotCluster int) *SwapDevice {
	n := int(q.Driver().Sectors() / SectorsPerPage)
	return &SwapDevice{
		Queue:     q,
		Prio:      prio,
		nslots:    n,
		used:      make([]bool, n),
		owner:     make([]*Page, n),
		freeSlots: n,
		cluster:   slotCluster,
	}
}

// Slots returns the device's total slot count.
func (d *SwapDevice) Slots() int { return d.nslots }

// FreeSlots returns the number of unallocated slots.
func (d *SwapDevice) FreeSlots() int { return d.freeSlots }

// allocSlot returns a slot index, preferring the current cluster.
//
//hpbd:hotpath
func (d *SwapDevice) allocSlot(pg *Page) (int, bool) {
	if d.freeSlots == 0 {
		return 0, false
	}
	if d.remaining > 0 && d.next < d.nslots && !d.used[d.next] {
		s := d.next
		d.next++
		d.remaining--
		d.take(s, pg)
		return s, true
	}
	// Find a fresh cluster of consecutive free slots.
	run := 0
	for i := 0; i < d.nslots; i++ {
		if d.used[i] {
			run = 0
			continue
		}
		run++
		if run == d.cluster {
			start := i - run + 1
			d.next = start + 1
			d.remaining = d.cluster - 1
			d.take(start, pg)
			return start, true
		}
	}
	// Fragmented: first free slot.
	for i := 0; i < d.nslots; i++ {
		if !d.used[i] {
			d.remaining = 0
			d.take(i, pg)
			return i, true
		}
	}
	return 0, false
}

func (d *SwapDevice) take(s int, pg *Page) {
	d.used[s] = true
	d.owner[s] = pg
	d.freeSlots--
}

// freeSlot releases slot s.
func (d *SwapDevice) freeSlot(s int) {
	if !d.used[s] {
		return
	}
	d.used[s] = false
	d.owner[s] = nil
	d.freeSlots++
}

// slotSector converts a slot index to the device sector address.
func (d *SwapDevice) slotSector(s int) int64 { return int64(s) * SectorsPerPage }
