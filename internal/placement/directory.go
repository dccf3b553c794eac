package placement

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// State is a directory server's membership state.
type State int

const (
	// Active servers hold ranges and receive rebalanced load.
	Active State = iota
	// Draining servers are being emptied; no new ranges land on them.
	Draining
	// Removed servers have left the fleet (their slot is retained so
	// server indices stay stable).
	Removed
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Removed:
		return "removed"
	}
	return "?"
}

// ServerInfo describes one fleet member.
type ServerInfo struct {
	Name      string
	AreaBytes int64 // exported area capacity
	State     State
}

// Range maps [Start, Start+Sectors) of the device to byte AreaOff of
// its server's area. Epoch records the directory epoch at which the
// range last changed owner.
type Range struct {
	Start   int64 // first device sector
	Sectors int64
	Server  int
	AreaOff int64
	Epoch   uint64
}

// Move is one planned migration: re-host [Start, Start+Sectors) from
// server From (where it lives at byte SrcAreaOff) to server To.
type Move struct {
	Start      int64 // first device sector
	Sectors    int64
	From, To   int
	SrcAreaOff int64
}

// Bytes returns the move's payload size.
func (m Move) Bytes() int64 { return m.Sectors * SectorSize }

// ErrNoCapacity reports that a plan could not place sectors because no
// recipient has free area space.
var ErrNoCapacity = errors.New("placement: no free capacity for move")

// Directory is the versioned sector→server map. Ranges are kept sorted
// by Start and always cover [0, TotalSectors) exactly: moves retarget
// ranges, they never unmap them, so the device size is fixed at
// bootstrap (swap capacity does not change once the VM has it — new
// servers add headroom to migrate into, not new sectors).
//
// Destination space is allocated append-only within each server's area
// (alloc is a high-water mark). Space vacated by a move is not reused;
// repeated membership churn can therefore exhaust an area and fail a
// later plan with ErrNoCapacity — the trade for trivially deterministic,
// fragmentation-free offset assignment.
type Directory struct {
	epoch   uint64
	servers []ServerInfo
	ranges  []Range
	alloc   []int64 // per-server allocated bytes (high-water mark)
	total   int64   // device sectors
}

// NewDirectory returns an empty directory; populate it with Bootstrap.
func NewDirectory() *Directory { return &Directory{} }

// Bootstrap appends a founding server owning the next contiguous slice
// of the device — the paper's blocked distribution (§4.2.5). No epoch
// bump: a static fleet is the directory at epoch 0. A founder that joins
// after membership operations have run still appends its slice at the
// device tail, so server indices and the device's link list stay in step.
func (d *Directory) Bootstrap(name string, areaBytes int64) int {
	id := len(d.servers)
	d.servers = append(d.servers, ServerInfo{Name: name, AreaBytes: areaBytes, State: Active})
	d.alloc = append(d.alloc, areaBytes)
	sectors := areaBytes / SectorSize
	d.ranges = append(d.ranges, Range{Start: d.total, Sectors: sectors, Server: id, AreaOff: 0, Epoch: 0})
	d.total += sectors
	return id
}

// Stripe re-lays the founding range table round-robin in stripe-byte
// chunks — the §4.2.5 ablation layout: range c lives on server c mod N at
// area offset (c / N)·stripe, for as many full rows as the smallest area
// holds; what a larger or misaligned area has left follows as one blocked
// range per server, so [0, TotalSectors) stays covered. It is a bootstrap
// layout, not a membership operation: the table must still be the
// founders' (epoch 0), and it is laid again after every Bootstrap.
func (d *Directory) Stripe(stripe int64) error {
	if stripe <= 0 || stripe%SectorSize != 0 {
		return fmt.Errorf("placement: stripe %d is not a positive multiple of the sector size", stripe)
	}
	if d.epoch != 0 {
		return fmt.Errorf("placement: cannot stripe at epoch %d, only the founding layout", d.epoch)
	}
	n := int64(len(d.servers))
	rows := d.total * SectorSize / stripe // no area holds more than the device
	for _, s := range d.servers {
		rows = min(rows, s.AreaBytes/stripe)
	}
	secs := stripe / SectorSize
	d.ranges = d.ranges[:0]
	for c := int64(0); c < rows*n; c++ {
		d.ranges = append(d.ranges, Range{Start: c * secs, Sectors: secs, Server: int(c % n), AreaOff: c / n * stripe})
	}
	next := rows * n * secs
	for i, s := range d.servers {
		if rest := (s.AreaBytes - rows*stripe) / SectorSize; rest > 0 {
			d.ranges = append(d.ranges, Range{Start: next, Sectors: rest, Server: i, AreaOff: rows * stripe})
			next += rest
		}
	}
	return nil
}

// AddServer registers a new empty fleet member and bumps the epoch. The
// device does not grow; the server is rebalancing headroom.
func (d *Directory) AddServer(name string, areaBytes int64) int {
	id := len(d.servers)
	d.servers = append(d.servers, ServerInfo{Name: name, AreaBytes: areaBytes, State: Active})
	d.alloc = append(d.alloc, 0)
	d.epoch++
	return id
}

// Epoch returns the directory version; every membership change and
// every committed move bumps it.
func (d *Directory) Epoch() uint64 { return d.epoch }

// TotalSectors returns the fixed device size.
func (d *Directory) TotalSectors() int64 { return d.total }

// NumServers returns the fleet size including drained/removed slots.
func (d *Directory) NumServers() int { return len(d.servers) }

// Servers returns a copy of the fleet table.
func (d *Directory) Servers() []ServerInfo {
	return append([]ServerInfo(nil), d.servers...)
}

// Ranges returns a copy of the range table (sorted by Start).
func (d *Directory) Ranges() []Range {
	return append([]Range(nil), d.ranges...)
}

// FindServer returns the index of the named server, or -1.
func (d *Directory) FindServer(name string) int {
	for i := range d.servers {
		if d.servers[i].Name == name {
			return i
		}
	}
	return -1
}

// SectorsOn returns how many device sectors currently live on server id.
func (d *Directory) SectorsOn(id int) int64 {
	var n int64
	for _, r := range d.ranges {
		if r.Server == id {
			n += r.Sectors
		}
	}
	return n
}

// FreeBytes returns the unallocated space of server id's area.
func (d *Directory) FreeBytes(id int) int64 {
	return d.servers[id].AreaBytes - d.alloc[id]
}

// rangeIdxAt returns the index of the range containing sector (ranges
// cover [0, total) contiguously, so this only fails out of range).
//
//hpbd:hotpath
func (d *Directory) rangeIdxAt(sector int64) int {
	//hpbd:allow hotalloc -- the closure does not escape sort.Search and stays on the stack (TestSplitIntoAllocsPerRun)
	i := sort.Search(len(d.ranges), func(i int) bool {
		return d.ranges[i].Start+d.ranges[i].Sectors > sector
	})
	if i >= len(d.ranges) || sector < d.ranges[i].Start {
		return -1
	}
	return i
}

// SectorAt is the reverse lookup: the device sector stored at byte
// areaOff of server id's area, or false when no committed range covers
// that byte — space a move vacated, or reserved for one still in progress.
func (d *Directory) SectorAt(id int, areaOff int64) (int64, bool) {
	for _, r := range d.ranges {
		if r.Server == id && areaOff >= r.AreaOff && areaOff < r.AreaOff+r.Sectors*SectorSize {
			return r.Start + (areaOff-r.AreaOff)/SectorSize, true
		}
	}
	return 0, false
}

// SplitInto maps the byte range [start, start+n) through the directory,
// appending one segment per crossed range to dst, the caller's scratch:
// it allocates only to grow dst. Returns nil out of range.
//
//hpbd:hotpath
func (d *Directory) SplitInto(dst []Segment, start int64, n int) []Segment {
	if start < 0 || n <= 0 || start+int64(n) > d.total*SectorSize {
		return nil
	}
	end := start + int64(n)
	reqOff := 0
	out := dst
	for start < end {
		i := d.rangeIdxAt(start / SectorSize)
		if i < 0 {
			return nil
		}
		r := d.ranges[i]
		rEnd := (r.Start + r.Sectors) * SectorSize
		take := int(rEnd - start)
		if int64(take) > end-start {
			take = int(end - start)
		}
		//hpbd:allow hotalloc -- grows the caller's scratch to the most ranges one request has crossed, then stays
		out = append(out, Segment{
			Server:  r.Server,
			Offset:  r.AreaOff + (start - r.Start*SectorSize),
			Off:     reqOff,
			Length:  take,
			DevByte: start,
		})
		start += int64(take)
		reqOff += take
	}
	return out
}

// splitAt ensures a range boundary exists at sector (a pure remap: the
// sector→server mapping is unchanged, so no epoch bump).
func (d *Directory) splitAt(sector int64) {
	if sector <= 0 || sector >= d.total {
		return
	}
	i := d.rangeIdxAt(sector)
	r := d.ranges[i]
	if r.Start == sector {
		return
	}
	head := r
	head.Sectors = sector - r.Start
	tail := Range{
		Start:   sector,
		Sectors: r.Start + r.Sectors - sector,
		Server:  r.Server,
		AreaOff: r.AreaOff + (sector-r.Start)*SectorSize,
		Epoch:   r.Epoch,
	}
	d.ranges = append(d.ranges, Range{})
	copy(d.ranges[i+2:], d.ranges[i+1:])
	d.ranges[i] = head
	d.ranges[i+1] = tail
}

// targets computes each server's capacity-proportional share of the
// device, in sectors. Non-active servers get 0. Rounding remainders go
// to the lowest-indexed active servers so the split is deterministic.
func (d *Directory) targets() []int64 {
	out := make([]int64, len(d.servers))
	var capSum int64
	for _, s := range d.servers {
		if s.State == Active {
			capSum += s.AreaBytes
		}
	}
	if capSum == 0 {
		return out
	}
	var assigned int64
	for i, s := range d.servers {
		if s.State != Active {
			continue
		}
		out[i] = d.total * s.AreaBytes / capSum
		assigned += out[i]
	}
	for i := 0; assigned < d.total && i < len(d.servers); i++ {
		if d.servers[i].State == Active {
			out[i]++
			assigned++
		}
	}
	return out
}

// owned tallies sectors per server from the range table.
func (d *Directory) owned() []int64 {
	out := make([]int64, len(d.servers))
	for _, r := range d.ranges {
		out[r.Server] += r.Sectors
	}
	return out
}

// PlanRebalance plans the moves that bring every server to its
// capacity-proportional target, consistent-hash style: only the excess
// moves, and it is carved off the tail (highest device sectors) of each
// over-full server. Recipients and donors are visited in ascending
// index order, and assignments are capped by the recipient's free area
// space, so the plan is deterministic and always executable. An empty
// plan means the directory is balanced (or nothing can move).
func (d *Directory) PlanRebalance() []Move {
	target := d.targets()
	own := d.owned()
	free := make([]int64, len(d.servers))
	for i := range d.servers {
		free[i] = d.FreeBytes(i) / SectorSize
	}
	var moves []Move
	for to := range d.servers {
		if d.servers[to].State != Active {
			continue
		}
		need := target[to] - own[to]
		for from := range d.servers {
			if need <= 0 || free[to] <= 0 {
				break
			}
			if from == to || d.servers[from].State == Removed {
				continue
			}
			excess := own[from] - target[from]
			if excess <= 0 {
				continue
			}
			take := need
			if take > excess {
				take = excess
			}
			if take > free[to] {
				take = free[to]
			}
			carved := d.carve(from, to, take)
			for _, mv := range carved {
				own[from] -= mv.Sectors
				own[to] += mv.Sectors
				free[to] -= mv.Sectors
				need -= mv.Sectors
			}
			moves = append(moves, carved...)
		}
	}
	return moves
}

// carve plans up to take sectors off server from, taken from its
// highest-addressed ranges first (splitting the last one as needed),
// destined for server to. It mutates only range boundaries (pure
// remaps); ownership changes happen at Commit.
func (d *Directory) carve(from, to int, take int64) []Move {
	var moves []Move
	for take > 0 {
		// Highest-Start range owned by from.
		best := -1
		for i := len(d.ranges) - 1; i >= 0; i-- {
			if d.ranges[i].Server == from {
				best = i
				break
			}
		}
		if best < 0 {
			break
		}
		r := d.ranges[best]
		if r.Sectors > take {
			d.splitAt(r.Start + r.Sectors - take)
			r = d.ranges[best+1]
		}
		moves = append(moves, Move{
			Start: r.Start, Sectors: r.Sectors,
			From: from, To: to, SrcAreaOff: r.AreaOff,
		})
		take -= r.Sectors
	}
	// Carving walks tails downward, so moves come out in descending
	// Start order; flip to ascending for cache-friendly, readable plans.
	for i, j := 0, len(moves)-1; i < j; i, j = i+1, j-1 {
		moves[i], moves[j] = moves[j], moves[i]
	}
	return moves
}

// Drain marks server id as draining (epoch bump) and plans the moves
// that empty it onto the active servers with the most free space (ties
// to the lowest index). ErrNoCapacity if the fleet cannot absorb it.
func (d *Directory) Drain(id int) ([]Move, error) {
	if id < 0 || id >= len(d.servers) {
		return nil, fmt.Errorf("placement: no server %d", id)
	}
	if d.servers[id].State != Active {
		return nil, fmt.Errorf("placement: server %s is %v, cannot drain", d.servers[id].Name, d.servers[id].State)
	}
	d.servers[id].State = Draining
	d.epoch++
	free := make([]int64, len(d.servers))
	for i := range d.servers {
		free[i] = d.FreeBytes(i) / SectorSize
	}
	var moves []Move
	// Walk the drained server's ranges in device order; each range goes
	// to the emptiest recipient, splitting when it does not fit whole.
	for i := 0; i < len(d.ranges); i++ {
		r := d.ranges[i]
		if r.Server != id {
			continue
		}
		best, bestFree := -1, int64(0)
		for j := range d.servers {
			if j == id || d.servers[j].State != Active {
				continue
			}
			if free[j] > bestFree {
				best, bestFree = j, free[j]
			}
		}
		if best < 0 {
			return moves, ErrNoCapacity
		}
		take := r.Sectors
		if take > bestFree {
			take = bestFree
			d.splitAt(r.Start + take)
			r = d.ranges[i]
		}
		moves = append(moves, Move{
			Start: r.Start, Sectors: r.Sectors,
			From: id, To: best, SrcAreaOff: r.AreaOff,
		})
		free[best] -= r.Sectors
	}
	return moves, nil
}

// Reserve allocates destination space for a move and returns the byte
// offset within the target's area. Space is never reclaimed (see the
// Directory comment); a move that later aborts leaks its reservation.
func (d *Directory) Reserve(m Move) (int64, error) {
	need := m.Sectors * SectorSize
	if d.alloc[m.To]+need > d.servers[m.To].AreaBytes {
		return 0, fmt.Errorf("%w: server %s needs %d bytes, %d free",
			ErrNoCapacity, d.servers[m.To].Name, need, d.FreeBytes(m.To))
	}
	off := d.alloc[m.To]
	d.alloc[m.To] += need
	return off, nil
}

// Commit retargets the moved sectors to their destination at the
// reserved offset and bumps the epoch — the cutover point. Adjacent
// ranges that end up contiguous on the same server are merged to keep
// the table compact.
func (d *Directory) Commit(m Move, dstAreaOff int64) {
	d.splitAt(m.Start)
	d.splitAt(m.Start + m.Sectors)
	d.epoch++
	for i := range d.ranges {
		r := &d.ranges[i]
		if r.Start >= m.Start && r.Start+r.Sectors <= m.Start+m.Sectors {
			r.Server = m.To
			r.AreaOff = dstAreaOff + (r.Start-m.Start)*SectorSize
			r.Epoch = d.epoch
		}
	}
	d.merge()
}

// merge coalesces adjacent ranges that are contiguous on one server.
func (d *Directory) merge() {
	out := d.ranges[:0]
	for _, r := range d.ranges {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Server == r.Server &&
				last.Start+last.Sectors == r.Start &&
				last.AreaOff+last.Sectors*SectorSize == r.AreaOff {
				last.Sectors += r.Sectors
				if r.Epoch > last.Epoch {
					last.Epoch = r.Epoch
				}
				continue
			}
		}
		out = append(out, r)
	}
	d.ranges = out
}

// Remove retires an empty server (epoch bump). It must hold no ranges:
// drain first.
func (d *Directory) Remove(id int) error {
	if id < 0 || id >= len(d.servers) {
		return fmt.Errorf("placement: no server %d", id)
	}
	if d.servers[id].State == Removed {
		return nil
	}
	if n := d.SectorsOn(id); n > 0 {
		return fmt.Errorf("placement: server %s still owns %d sectors, drain first", d.servers[id].Name, n)
	}
	d.servers[id].State = Removed
	d.epoch++
	return nil
}

// Dump writes the directory in a fixed, deterministic format: the
// header, the per-server table (index order) and the range table
// (device order).
func (d *Directory) Dump(w io.Writer) {
	fmt.Fprintf(w, "placement directory: epoch %d, %d servers, %d ranges, %d sectors\n",
		d.epoch, len(d.servers), len(d.ranges), d.total)
	fmt.Fprintf(w, "  %-8s %-9s %10s %12s %10s %6s\n", "server", "state", "sectors", "bytes", "alloc", "ranges")
	for i, s := range d.servers {
		sec := d.SectorsOn(i)
		nr := 0
		for _, r := range d.ranges {
			if r.Server == i {
				nr++
			}
		}
		fmt.Fprintf(w, "  %-8s %-9s %10d %12d %10d %6d\n",
			s.Name, s.State, sec, sec*SectorSize, d.alloc[i], nr)
	}
	for _, r := range d.ranges {
		fmt.Fprintf(w, "  [%8d, %8d) -> %-8s area+%-10d epoch %d\n",
			r.Start, r.Start+r.Sectors, d.servers[r.Server].Name, r.AreaOff, r.Epoch)
	}
}
