// Package disk models the paper's local swap disk (Seagate ST340014A,
// 40 GB, 7200 RPM ATA): distance-dependent seeks, rotational latency, and
// media-rate transfer. It implements blockdev.Driver, serving one request
// at a time like a single spindle.
//
// Sequential request streams (testswap write-out) run near media rate;
// random page-in streams (quicksort) collapse to a few milliseconds per
// request — the asymmetry behind the paper's 4.5-21x HPBD-vs-disk gaps.
package disk

import (
	"math"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// Params describes the mechanical model.
type Params struct {
	// Capacity is the full device size in bytes; seek distance is scaled
	// against it, so keep it at the real disk's size even when the swap
	// area on it is small.
	Capacity int64
	// MediaMBps is the sustained media transfer rate.
	MediaMBps float64
	// MinSeek is the single-track seek (paid whenever the head moves).
	MinSeek sim.Duration
	// FullSeek is the full-stroke seek; distance cost interpolates with
	// a square-root curve between MinSeek and FullSeek.
	FullSeek sim.Duration
	// HalfRotation is the average rotational latency on a discontiguous
	// access (7200 RPM -> 4.17 ms).
	HalfRotation sim.Duration
	// PerRequest is controller/command overhead per request.
	PerRequest sim.Duration
}

// DefaultParams returns the ST340014A model.
func DefaultParams() Params {
	return Params{
		Capacity:     40 << 30,
		MediaMBps:    42,
		MinSeek:      800 * sim.Microsecond,
		FullSeek:     9 * sim.Millisecond,
		HalfRotation: 4170 * sim.Microsecond,
		PerRequest:   200 * sim.Microsecond,
	}
}

// Disk is a simulated spindle exposing `sectors` of addressable space
// (the swap partition) physically located within a Params.Capacity device.
type Disk struct {
	env     *sim.Env
	params  Params
	name    string
	sectors int64
	headPos int64
	store   []byte // backing bytes, so data round-trips are real

	// Busy time accounting for utilization reports.
	BusyTime sim.Duration
	Requests int
}

// New creates a disk exposing size bytes (must be sector-aligned).
func New(env *sim.Env, name string, size int64, params Params) *Disk {
	return &Disk{
		env:     env,
		params:  params,
		name:    name,
		sectors: size / blockdev.SectorSize,
		store:   make([]byte, size),
	}
}

// Name implements blockdev.Driver.
func (d *Disk) Name() string { return d.name }

// Sectors implements blockdev.Driver.
func (d *Disk) Sectors() int64 { return d.sectors }

// ServiceTime returns the modeled time for a request at `sector` of n
// bytes given the current head position, without performing it.
func (d *Disk) ServiceTime(sector int64, n int) sim.Duration {
	t := d.params.PerRequest
	if sector != d.headPos {
		dist := sector - d.headPos
		if dist < 0 {
			dist = -dist
		}
		frac := float64(dist*blockdev.SectorSize) / float64(d.params.Capacity)
		if frac > 1 {
			frac = 1
		}
		seek := d.params.MinSeek + sim.Duration(float64(d.params.FullSeek-d.params.MinSeek)*math.Sqrt(frac))
		t += seek + d.params.HalfRotation
	}
	bps := d.params.MediaMBps * 1e6
	t += sim.Duration(float64(n) / bps * float64(sim.Second))
	return t
}

// Submit implements blockdev.Driver: it blocks the dispatch process for
// the mechanical service time (single spindle), moves real bytes, then
// completes the request.
func (d *Disk) Submit(p *sim.Proc, r *blockdev.Request) {
	t := d.ServiceTime(r.Sector, r.Bytes())
	p.Sleep(t)
	d.BusyTime += t
	d.Requests++
	off := r.Sector * blockdev.SectorSize
	store := d.store[off : off+int64(r.Bytes())]
	if r.Write {
		r.Gather(store, 0)
	} else {
		r.ScatterAt(0, store)
	}
	d.headPos = r.End()
	r.Complete(nil)
}

// Peek returns a copy of stored bytes for test verification.
func (d *Disk) Peek(off int64, n int) []byte {
	out := make([]byte, n)
	copy(out, d.store[off:])
	return out
}
