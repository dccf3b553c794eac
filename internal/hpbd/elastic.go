package hpbd

// Elastic membership and live migration.
//
// A Device on the blocked layout (StripeBytes 0) can change its server
// fleet at runtime: AddServerLive attaches a new server and rebalances
// onto it, DrainServer empties a server, RemoveServer retires a drained
// one. The sector→server map is the device's placement.Directory from the
// first ConnectServer on — a static fleet is that directory at epoch 0 —
// so a membership operation edits the map every request already reads.
//
// Moves are executed by a live migration engine that copies a sector
// range from its source server to reserved space on the destination in
// chunk-sized batches while foreground I/O keeps flowing to the source.
// Writes that land in the moving range after their sectors were copied
// re-dirty them (write-forwarding); dirty sectors are re-copied, first
// concurrently with foreground traffic, then once more under a short
// write freeze that drains the last in-flight writes. The cutover commits
// the directory (epoch bump) and requeues still-pending in-range requests
// onto the destination in handle order — the same discipline as link
// failover. Any transfer error aborts the move with the range still
// mapped to its source, so a crash mid-migration never loses sectors.

import (
	"errors"
	"fmt"
	"sort"

	"hpbd/internal/blockdev"
	"hpbd/internal/placement"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// ErrMigration wraps a transfer failure that aborted a move.
var ErrMigration = errors.New("hpbd: migration aborted")

// elasticMetrics are registered lazily on the first membership operation:
// registry names show in Summary(), and a static topology's must not grow.
type elasticMetrics struct {
	epoch       *telemetry.Gauge
	migBytes    *telemetry.Counter
	migMoves    *telemetry.Counter
	cutovers    *telemetry.Counter
	dirtyResent *telemetry.Counter
	requeued    *telemetry.Counter
	aborted     *telemetry.Counter
	stall       *telemetry.Histogram
	chunkCopy   *telemetry.Histogram
}

func newElasticMetrics(reg *telemetry.Registry) elasticMetrics {
	return elasticMetrics{
		epoch:       reg.Gauge("placement.epoch"),
		migBytes:    reg.Counter("migration.bytes"),
		migMoves:    reg.Counter("migration.moves"),
		cutovers:    reg.Counter("migration.cutovers"),
		dirtyResent: reg.Counter("migration.dirty_resent"),
		requeued:    reg.Counter("migration.requeued"),
		aborted:     reg.Counter("migration.aborted"),
		stall:       reg.Histogram("migration.stall"),
		chunkCopy:   reg.Histogram("migration.chunk"),
	}
}

// migState tracks one in-progress move. It lives in Device.mig for the
// duration of runMove so the foreground path can see it.
type migState struct {
	startSec int64 // first sector of the moving range
	endSec   int64 // one past the last sector
	frontier int64 // first sector the chunk loop has not copied yet
	// dirty holds copied sectors overwritten by foreground traffic since
	// their copy (write-forwarding set). Swept by resendDirty.
	dirty map[int64]struct{}
	// inflight counts tracked foreground writes (submitted into the
	// moving range, not yet terminally completed).
	inflight int
	freeze   bool // park new in-range writes until cutover
	freezeQ  *sim.WaitQueue
	drainQ   *sim.WaitQueue
}

// overlaps reports whether the byte range [devByte, devByte+n)
// intersects the moving sector range.
func (m *migState) overlaps(devByte int64, n int) bool {
	lo := devByte / blockdev.SectorSize
	hi := (devByte + int64(n) + blockdev.SectorSize - 1) / blockdev.SectorSize
	return lo < m.endSec && hi > m.startSec
}

// noteDone is called from finishPhys for every tracked foreground write:
// a successful one re-dirties its already-copied sectors, and the last
// in-flight write wakes the cutover drain.
func (m *migState) noteDone(ph *phys, err error) {
	if ph.write && err == nil {
		lo := ph.devByte / blockdev.SectorSize
		hi := (ph.devByte + int64(ph.length) + blockdev.SectorSize - 1) / blockdev.SectorSize
		for s := lo; s < hi; s++ {
			// Sectors at or past the frontier will be read fresh by the
			// chunk loop; only already-copied sectors need a resend.
			if s >= m.startSec && s < m.endSec && s < m.frontier {
				m.dirty[s] = struct{}{}
			}
		}
	}
	m.inflight--
	if m.inflight <= 0 {
		m.drainQ.WakeAll()
	}
}

// migGate parks a foreground write that targets a frozen moving range
// until the cutover completes. Reads are never gated: the source stays
// authoritative until the epoch flips.
func (d *Device) migGate(p *sim.Proc, r *blockdev.Request) {
	start := r.Sector * blockdev.SectorSize
	t0, stalled := p.Now(), false
	for m := d.mig; m != nil && m.freeze && m.overlaps(start, r.Bytes()); m = d.mig {
		m.freezeQ.Wait(p)
		stalled = true
	}
	if stalled {
		d.emet.stall.Observe(p.Now().Sub(t0))
	}
}

// Directory returns the placement directory, the device's address map.
func (d *Device) Directory() *placement.Directory { return d.dir }

// HasServer reports whether a server of that name is connected.
func (d *Device) HasServer(name string) bool { return d.dir.FindServer(name) >= 0 }

// beginMembership opens a membership operation: it takes the membership
// lock (the caller unlocks) and, on the first one, sets up what a static
// fleet must not pay for — the elastic metric names and the long-lived
// migration staging MR, a one-time registration charge in virtual time.
func (d *Device) beginMembership(p *sim.Proc) error {
	if d.cfg.StripeBytes > 0 {
		// Policy, not mechanism: rebalancing thousands of stripe ranges is
		// a capability nobody asked for.
		return fmt.Errorf("hpbd: elastic membership requires the blocked layout")
	}
	d.memberMu.Lock(p)
	if d.failed {
		d.memberMu.Unlock()
		return ErrDeviceFailed
	}
	if d.migMR == nil {
		d.emet = newElasticMetrics(d.tel)
		d.emet.epoch.Set(int64(d.dir.Epoch()))
		d.migMR = d.hca.RegisterMR(p, make([]byte, migrationChunkBytes))
	}
	return nil
}

// findServer resolves a fleet member by name for a membership operation.
func (d *Device) findServer(name string) (int, error) {
	id := d.dir.FindServer(name)
	if id < 0 {
		return 0, fmt.Errorf("hpbd: unknown server %q", name)
	}
	return id, nil
}

// migrationChunkBytes is the live-migration copy granularity: half the
// 128 KB bound the server staging buffers put on a single transfer.
const (
	migrationChunkBytes = 64 * 1024
	chunkSecs           = int64(migrationChunkBytes / blockdev.SectorSize)
)

// AddServerLive attaches srv to a running device as rebalancing headroom
// and migrates the fleet toward capacity-proportional balance. The
// device does not grow (swap capacity is fixed at connect time); the new
// server absorbs load and makes draining others possible.
func (d *Device) AddServerLive(p *sim.Proc, srv *Server, areaBytes int64) error {
	if err := d.beginMembership(p); err != nil {
		return err
	}
	defer d.memberMu.Unlock()
	if err := d.newLink(srv, areaBytes); err != nil {
		return err
	}
	id := d.dir.AddServer(srv.Name(), areaBytes)
	if id != len(d.links)-1 {
		return fmt.Errorf("hpbd: directory/link index skew: %d != %d", id, len(d.links)-1)
	}
	d.emet.epoch.Set(int64(d.dir.Epoch()))
	d.tracer.InstantArgs(d.name, "member-add", map[string]any{
		"server": srv.Name(), "epoch": d.dir.Epoch(),
	})
	return d.rebalance(p)
}

// rebalance plans and executes moves until the directory reports
// balance. Capacity-capped plans can need more than one round; the
// round cap only guards a (never observed) planner oscillation.
func (d *Device) rebalance(p *sim.Proc) error {
	for round := 0; round < 64; round++ {
		moves := d.dir.PlanRebalance()
		if len(moves) == 0 {
			return nil
		}
		for _, mv := range moves {
			if err := d.runMove(p, mv); err != nil {
				return fmt.Errorf("%w: %v", ErrMigration, err)
			}
		}
	}
	return nil
}

// DrainServer migrates every range off the named server. The server
// stays attached (reads of not-yet-cut-over ranges may still hit it);
// retire it with RemoveServer once the drain returns.
func (d *Device) DrainServer(p *sim.Proc, name string) error {
	if err := d.beginMembership(p); err != nil {
		return err
	}
	defer d.memberMu.Unlock()
	id, err := d.findServer(name)
	if err != nil {
		return err
	}
	moves, err := d.dir.Drain(id)
	if err != nil {
		return err
	}
	d.emet.epoch.Set(int64(d.dir.Epoch()))
	d.tracer.InstantArgs(d.name, "member-drain", map[string]any{
		"server": name, "epoch": d.dir.Epoch(), "moves": len(moves),
	})
	for _, mv := range moves {
		if merr := d.runMove(p, mv); merr != nil {
			return fmt.Errorf("%w: %v", ErrMigration, merr)
		}
	}
	return nil
}

// RemoveServer retires a drained server: the directory slot is marked
// removed, in-flight stragglers on the link are waited out, and the QP
// is closed. The flushed completions of the closed QP are ignored (see
// handleErrorCQE), so decommissioning is not a failure.
func (d *Device) RemoveServer(p *sim.Proc, name string) error {
	if err := d.beginMembership(p); err != nil {
		return err
	}
	defer d.memberMu.Unlock()
	id, err := d.findServer(name)
	if err != nil {
		return err
	}
	if err := d.dir.Remove(id); err != nil {
		return err
	}
	link := d.links[id]
	// Let straggler reads (left behind on the source at a cutover)
	// finish before tearing the QP down; the directory no longer maps
	// anything here, so the count only ever shrinks.
	for d.inflight.on(link) > 0 {
		p.Sleep(50 * sim.Microsecond)
	}
	link.removed = true
	link.down = true // Submit's down-link guard routes around it
	link.qp.Close()
	link.releaseAll() // no late reply lands after the close
	d.emet.epoch.Set(int64(d.dir.Epoch()))
	d.tracer.InstantArgs(d.name, "member-remove", map[string]any{
		"server": name, "epoch": d.dir.Epoch(),
	})
	return nil
}

// runMove executes one planned move: reserve destination space, copy the
// range in chunks, re-send dirty sectors, freeze-drain-resend, commit,
// requeue. On any transfer error the move aborts with the directory
// unchanged — the range still lives on its source.
func (d *Device) runMove(p *sim.Proc, mv placement.Move) error {
	dstOff, err := d.dir.Reserve(mv)
	if err != nil {
		return err
	}
	d.emet.migMoves.Inc()
	seq := uint64(d.emet.migMoves.Value())
	m := &migState{
		startSec: mv.Start,
		endSec:   mv.Start + mv.Sectors,
		frontier: mv.Start,
		dirty:    make(map[int64]struct{}),
		freezeQ:  sim.NewWaitQueue(d.env),
		drainQ:   sim.NewWaitQueue(d.env),
	}
	d.mig = m
	defer func() {
		d.mig = nil
		m.freeze = false
		m.freezeQ.WakeAll()
	}()
	// Adopt foreground writes already in flight inside the range: their
	// completions must re-dirty and the cutover drain must wait for them.
	for ph := range d.inflight.all() {
		if ph.write && !ph.mig && ph.mtrack == nil && m.overlaps(ph.devByte, ph.length) {
			ph.mtrack = m
			m.inflight++
		}
	}
	span := d.tracer.Begin(d.name, "migrate")
	d.tracer.FlowBegin(d.name, "migration", seq)
	from, to := d.links[mv.From].srv.Name(), d.links[mv.To].srv.Name()
	abort := func(xerr error) error {
		d.emet.aborted.Inc()
		d.lc.Flight().DumpOnEvent(fmt.Sprintf(
			"migration aborted: %s -> %s sectors=%d frontier=%d err=%v",
			from, to, mv.Sectors, m.frontier, xerr))
		d.tracer.FlowEnd(d.name, "migration", seq)
		span.EndArgs(map[string]any{
			"from": from, "to": to, "sectors": mv.Sectors, "aborted": true, "err": xerr.Error(),
		})
		return xerr
	}
	for m.frontier < m.endSec {
		t0 := p.Now()
		secs := min(chunkSecs, m.endSec-m.frontier)
		if err := d.copyChunk(p, mv, dstOff, m.frontier, secs); err != nil {
			return abort(err)
		}
		n := int(secs * blockdev.SectorSize)
		// Advancing the frontier after the copy means a write completing
		// mid-copy of its own chunk still re-dirties it (noteDone sees
		// the old frontier) — conservative, never lossy.
		m.frontier += secs
		d.emet.migBytes.Add(int64(n))
		d.emet.chunkCopy.Observe(p.Now().Sub(t0))
		d.tracer.FlowStep(d.name, "migration", seq)
		d.pace(p, n, t0)
	}
	// Pass 1: sweep the write-forwarding set concurrently with
	// foreground traffic to shrink the frozen window.
	if err := d.resendDirty(p, m, mv, dstOff); err != nil {
		return abort(err)
	}
	// Cutover: stop new in-range writes, wait out the in-flight ones,
	// sweep the final dirty set, flip the epoch.
	m.freeze = true
	freezeAt := p.Now()
	for m.inflight > 0 {
		m.drainQ.Wait(p)
	}
	if err := d.resendDirty(p, m, mv, dstOff); err != nil {
		return abort(err)
	}
	d.dir.Commit(mv, dstOff)
	// The range's pages left the source's working set with the cutover.
	src := d.links[mv.From]
	src.srv.ForgetRange(src.srvQP, mv.SrcAreaOff, mv.Bytes())
	d.emet.epoch.Set(int64(d.dir.Epoch()))
	d.emet.cutovers.Inc()
	d.requeueRange(mv)
	d.tracer.FlowEnd(d.name, "migration", seq)
	d.tracer.InstantArgs(d.name, "cutover", map[string]any{
		"epoch": d.dir.Epoch(), "start": mv.Start, "sectors": mv.Sectors,
		"freeze_us": p.Now().Sub(freezeAt).Micros(),
	})
	span.EndArgs(map[string]any{
		"from": from, "to": to, "sectors": mv.Sectors, "bytes": mv.Bytes(), "epoch": d.dir.Epoch(),
	})
	return nil
}

// copyChunk moves secs sectors of the range from sector lo, source→
// destination (whose reserved space starts at dstOff), through the normal
// request path: an RDMA read off the source into the migration MR, then
// an RDMA write of that MR to the destination.
func (d *Device) copyChunk(p *sim.Proc, mv placement.Move, dstOff, lo, secs int64) error {
	n := int(secs * blockdev.SectorSize)
	devByte := lo * blockdev.SectorSize
	rel := devByte - mv.Start*blockdev.SectorSize
	if err := d.migXfer(p, d.links[mv.From], false, mv.SrcAreaOff+rel, devByte, n); err != nil {
		return err
	}
	return d.migXfer(p, d.links[mv.To], true, dstOff+rel, devByte, n)
}

// resendDirty sweeps the current write-forwarding set: dirty sectors are
// coalesced into chunk-bounded runs and re-copied source→destination.
// The set is snapshotted and reset first, so writes completing during
// the sweep land in a fresh set for the next pass.
func (d *Device) resendDirty(p *sim.Proc, m *migState, mv placement.Move, dstOff int64) error {
	if len(m.dirty) == 0 {
		return nil
	}
	secs := make([]int64, 0, len(m.dirty))
	for s := range m.dirty {
		secs = append(secs, s)
	}
	sort.Slice(secs, func(i, j int) bool { return secs[i] < secs[j] })
	m.dirty = make(map[int64]struct{})
	for i := 0; i < len(secs); {
		j := i + 1
		for j < len(secs) && secs[j] == secs[j-1]+1 && int64(j-i) < chunkSecs {
			j++
		}
		if err := d.copyChunk(p, mv, dstOff, secs[i], int64(j-i)); err != nil {
			return err
		}
		d.emet.dirtyResent.Add(int64(j - i))
		d.emet.migBytes.Add(int64(j-i) * blockdev.SectorSize)
		i = j
	}
	return nil
}

// requeueRange retargets still-pending foreground requests inside the
// committed range onto the destination. Sent requests are canceled and
// reissued under fresh handles in handle order — exactly the failover
// discipline — so a late source reply only frees the zombie slot left.
// Queued (unsent) requests are retargeted in place; the sender reads the
// link at issue time. Requests straddling the range boundary stay on the
// source: its copy is complete as of the freeze and is never erased, so
// such reads remain correct.
func (d *Device) requeueRange(mv placement.Move) {
	dst := d.links[mv.To]
	for ph := range d.inflight.all() {
		if ph.mig || ph.link == dst {
			continue
		}
		lo := ph.devByte / blockdev.SectorSize
		hi := (ph.devByte + int64(ph.length) + blockdev.SectorSize - 1) / blockdev.SectorSize
		if lo < mv.Start || hi > mv.Start+mv.Sectors {
			continue
		}
		sent := ph.slot != nil
		if sent {
			// Its slot belongs to the source link, which will still reply:
			// the slot stays a zombie until that late reply lands.
			d.cancel(ph)
		}
		// The request lies inside the committed range: its first segment
		// says where on the destination it now starts.
		var segs [1]placement.Segment
		sg := d.dir.SplitInto(segs[:0], ph.devByte, ph.length)[0]
		ph.link = d.links[sg.Server]
		ph.offset = sg.Offset
		if sent {
			// Re-admitted at the tail, where the walk meets it on dst.
			d.inflight.admit(ph)
			d.emet.requeued.Inc()
		}
	}
}

// migXfer issues one migration transfer through the regular sender /
// credit / receiver machinery and waits for it. The payload rides the
// long-lived migration MR (hybrid-style: the server RDMAs against it
// directly), so the pool is never touched and foreground allocation is
// unaffected.
func (d *Device) migXfer(p *sim.Proc, link *serverLink, write bool, areaOff, devByte int64, n int) error {
	if d.failed {
		return ErrDeviceFailed
	}
	if link.down {
		return ErrServerLost
	}
	// The chunk's bytes live only in the migration MR: it is the request's
	// I/O buffer and its home at once, so a read's scatter copies the MR
	// onto itself.
	r := blockdev.NewRequest(d.env, write, devByte/blockdev.SectorSize, d.migMR.Buf[:n])
	parent := d.getRec(r, 1)
	ph := &parent.first
	ph.setup(parent, r, link, placement.Segment{Offset: areaOff, Length: n, DevByte: devByte}, p.Now())
	ph.mig = true
	ph.home.stageMig(d)
	d.inflight.admit(ph)
	return r.Wait(p)
}

// pace throttles the chunk loop to the configured background bandwidth:
// each chunk's wall time is stretched to at least n bytes at
// MigrationMBps, yielding the difference to foreground traffic.
func (d *Device) pace(p *sim.Proc, n int, t0 sim.Time) {
	if d.cfg.MigrationMBps <= 0 {
		return
	}
	want := sim.Duration(float64(n) / (d.cfg.MigrationMBps * 1e6) * float64(sim.Second))
	if spent := p.Now().Sub(t0); want > spent {
		p.Sleep(want - spent)
	}
}
