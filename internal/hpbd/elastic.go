package hpbd

// Elastic membership and live migration.
//
// A Device on the blocked layout (StripeBytes 0) can change its server
// fleet at runtime: AddServerLive attaches a new server and rebalances
// onto it, DrainServer empties a server, RemoveServer retires a drained
// one. The sector→server map lives in a placement.Directory; the first
// membership operation creates it, and until then the device splits
// requests through the legacy static layout.
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
	"hpbd/internal/ib"
	"hpbd/internal/placement"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/wire"
)

// ErrMigration wraps a transfer failure that aborted a move.
var ErrMigration = errors.New("hpbd: migration aborted")

// elasticMetrics are registered lazily on the first membership operation
// so a static topology's telemetry summary is unchanged.
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
	n := r.Bytes()
	m := d.mig
	if m == nil || !m.freeze || !m.overlaps(start, n) {
		return
	}
	t0 := p.Now()
	for {
		m = d.mig
		if m == nil || !m.freeze || !m.overlaps(start, n) {
			break
		}
		m.freezeQ.Wait(p)
	}
	d.emet.stall.Observe(p.Now().Sub(t0))
}

// Directory returns the placement directory, or nil while the device
// still runs its static legacy layout (no membership operation yet).
func (d *Device) Directory() *placement.Directory { return d.dir }

// HasServer reports whether a server of that name is connected.
func (d *Device) HasServer(name string) bool {
	for _, l := range d.links {
		if l.srv.Name() == name {
			return true
		}
	}
	return false
}

// ensureDir bootstraps the placement directory from the legacy layout on
// the first membership operation. Until then d.dir is nil and split
// walks the static areas.
func (d *Device) ensureDir() {
	if d.dir != nil {
		return
	}
	d.emet = newElasticMetrics(d.tel)
	dir := placement.NewDirectory()
	for _, l := range d.links {
		dir.Bootstrap(l.srv.Name(), l.size)
	}
	d.dir = dir
	d.emet.epoch.Set(int64(dir.Epoch()))
}

// migrationChunkBytes is the live-migration copy granularity: half the
// 128 KB bound the server staging buffers put on a single transfer.
const migrationChunkBytes = 64 * 1024

// ensureMigResources registers the long-lived migration staging MR
// (one-time registration charge).
func (d *Device) ensureMigResources(p *sim.Proc) {
	if d.migMR != nil {
		return
	}
	d.migBuf = make([]byte, migrationChunkBytes)
	d.migMR = d.hca.RegisterMR(p, make([]byte, migrationChunkBytes))
}

// AddServerLive attaches srv to a running device as rebalancing headroom
// and migrates the fleet toward capacity-proportional balance. The
// device does not grow (swap capacity is fixed at connect time); the new
// server absorbs load and makes draining others possible.
func (d *Device) AddServerLive(p *sim.Proc, srv *Server, areaBytes int64) error {
	if d.cfg.StripeBytes > 0 {
		return fmt.Errorf("hpbd: elastic membership requires the blocked layout")
	}
	if areaBytes <= 0 || areaBytes%blockdev.SectorSize != 0 {
		return fmt.Errorf("hpbd: invalid area size %d", areaBytes)
	}
	d.memberMu.Lock(p)
	defer d.memberMu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	d.ensureDir()
	d.ensureMigResources(p)
	qp := d.hca.CreateQP(d.cq, d.cq)
	srvQP, _, err := srv.attach(qp, areaBytes, d.cfg.Tenant)
	if err != nil {
		return err
	}
	link := &serverLink{
		srv:     srv,
		qp:      qp,
		srvQP:   srvQP,
		credits: sim.NewSemaphore(d.env, d.cfg.Credits),
		// startByte -1: this link is not part of the legacy address
		// space; only the directory maps sectors onto it.
		startByte: -1,
		size:      areaBytes,
		reqMR:     d.hca.RegisterMRAtSetup(make([]byte, d.cfg.Credits*wire.RequestSize)),
		recvMR:    d.hca.RegisterMRAtSetup(make([]byte, d.cfg.Credits*wire.ReplySize)),
	}
	for i := 0; i < d.cfg.Credits; i++ {
		if err := qp.PostRecv(ib.RecvWR{
			ID:    uint64(i),
			Local: ib.Segment{MR: link.recvMR, Off: i * wire.ReplySize, Len: wire.ReplySize},
		}); err != nil {
			return err
		}
	}
	d.links = append(d.links, link)
	d.byQP[qp] = link
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
	if d.cfg.StripeBytes > 0 {
		return fmt.Errorf("hpbd: elastic membership requires the blocked layout")
	}
	d.memberMu.Lock(p)
	defer d.memberMu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	d.ensureDir()
	d.ensureMigResources(p)
	id := d.dir.FindServer(name)
	if id < 0 {
		return fmt.Errorf("hpbd: unknown server %q", name)
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
	if d.cfg.StripeBytes > 0 {
		return fmt.Errorf("hpbd: elastic membership requires the blocked layout")
	}
	d.memberMu.Lock(p)
	defer d.memberMu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	d.ensureDir()
	id := d.dir.FindServer(name)
	if id < 0 {
		return fmt.Errorf("hpbd: unknown server %q", name)
	}
	if err := d.dir.Remove(id); err != nil {
		return err
	}
	link := d.links[id]
	// Let straggler reads (left behind on the source at a cutover)
	// finish before tearing the QP down; the directory no longer maps
	// anything here, so the count only ever shrinks.
	for {
		n := 0
		for _, ph := range d.pending {
			if ph.link == link {
				n++
			}
		}
		if n == 0 {
			break
		}
		p.Sleep(50 * sim.Microsecond)
	}
	link.removed = true
	link.down = true // Submit's down-link guard routes around it
	if !link.qp.Closed() {
		link.qp.Close()
	}
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
	handles := make([]uint64, 0, len(d.pending))
	for h := range d.pending {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	for _, h := range handles {
		ph := d.pending[h]
		if ph.write && !ph.mig && ph.mtrack == nil && m.overlaps(ph.devByte, ph.length) {
			ph.mtrack = m
			m.inflight++
		}
	}
	span := d.tracer.Begin(d.name, "migrate")
	d.tracer.FlowBegin(d.name, "migration", seq)
	abort := func(xerr error) error {
		d.emet.aborted.Inc()
		d.lc.Flight().DumpOnEvent(fmt.Sprintf(
			"migration aborted: %s -> %s sectors=%d frontier=%d err=%v",
			d.links[mv.From].srv.Name(), d.links[mv.To].srv.Name(),
			mv.Sectors, m.frontier, xerr))
		d.tracer.FlowEnd(d.name, "migration", seq)
		span.EndArgs(map[string]any{
			"from": d.links[mv.From].srv.Name(), "to": d.links[mv.To].srv.Name(),
			"sectors": mv.Sectors, "aborted": true, "err": xerr.Error(),
		})
		return xerr
	}
	chunkSecs := int64(len(d.migBuf)) / blockdev.SectorSize
	for m.frontier < m.endSec {
		t0 := p.Now()
		secs := chunkSecs
		if m.frontier+secs > m.endSec {
			secs = m.endSec - m.frontier
		}
		n := int(secs * blockdev.SectorSize)
		devByte := m.frontier * blockdev.SectorSize
		srcOff := mv.SrcAreaOff + (m.frontier-mv.Start)*blockdev.SectorSize
		dstByte := dstOff + (m.frontier-mv.Start)*blockdev.SectorSize
		if err := d.copyChunk(p, mv, srcOff, dstByte, devByte, n); err != nil {
			return abort(err)
		}
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
	d.emet.epoch.Set(int64(d.dir.Epoch()))
	d.emet.cutovers.Inc()
	d.requeueRange(mv)
	d.tracer.FlowEnd(d.name, "migration", seq)
	d.tracer.InstantArgs(d.name, "cutover", map[string]any{
		"epoch": d.dir.Epoch(), "start": mv.Start, "sectors": mv.Sectors,
		"freeze_us": p.Now().Sub(freezeAt).Micros(),
	})
	span.EndArgs(map[string]any{
		"from": d.links[mv.From].srv.Name(), "to": d.links[mv.To].srv.Name(),
		"sectors": mv.Sectors, "bytes": mv.Bytes(), "epoch": d.dir.Epoch(),
	})
	return nil
}

// copyChunk moves one chunk source→destination through the normal
// request path: an RDMA read off the source into the migration MR, then
// an RDMA write of that MR to the destination.
func (d *Device) copyChunk(p *sim.Proc, mv placement.Move, srcOff, dstByte, devByte int64, n int) error {
	if err := d.migXfer(p, d.links[mv.From], false, srcOff, devByte, n); err != nil {
		return err
	}
	return d.migXfer(p, d.links[mv.To], true, dstByte, devByte, n)
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
	chunkSecs := int64(len(d.migBuf)) / blockdev.SectorSize
	for i := 0; i < len(secs); {
		j := i + 1
		for j < len(secs) && secs[j] == secs[j-1]+1 && int64(j-i) < chunkSecs {
			j++
		}
		lo := secs[i]
		n := int((secs[j-1] - lo + 1) * blockdev.SectorSize)
		devByte := lo * blockdev.SectorSize
		srcOff := mv.SrcAreaOff + (lo-mv.Start)*blockdev.SectorSize
		dstByte := dstOff + (lo-mv.Start)*blockdev.SectorSize
		if err := d.copyChunk(p, mv, srcOff, dstByte, devByte, n); err != nil {
			return err
		}
		d.emet.dirtyResent.Add(int64(j - i))
		d.emet.migBytes.Add(int64(n))
		i = j
	}
	return nil
}

// requeueRange retargets still-pending foreground requests inside the
// committed range onto the destination. Sent requests are canceled and
// reissued under fresh handles in handle order — exactly the failover
// discipline — so a late source reply drops on the pending-miss path.
// Queued (unsent) requests are retargeted in place; the sender reads the
// link at issue time. Requests straddling the range boundary stay on the
// source: its copy is complete as of the freeze and is never erased, so
// such reads remain correct.
func (d *Device) requeueRange(mv placement.Move) {
	dst := d.links[mv.To]
	all := make([]uint64, 0, len(d.pending))
	for h := range d.pending {
		all = append(all, h)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sentH, queuedH []uint64
	for _, h := range all {
		ph := d.pending[h]
		if ph.mig || ph.link == dst {
			continue
		}
		lo := ph.devByte / blockdev.SectorSize
		hi := (ph.devByte + int64(ph.length) + blockdev.SectorSize - 1) / blockdev.SectorSize
		if lo < mv.Start || hi > mv.Start+mv.Sectors {
			continue
		}
		if ph.sent {
			sentH = append(sentH, h)
		} else {
			queuedH = append(queuedH, h)
		}
	}
	retarget := func(ph *phys) {
		segs := d.dir.Split(ph.devByte, ph.length)
		ph.link = d.links[segs[0].Server]
		ph.offset = segs[0].Offset
	}
	for _, h := range queuedH {
		retarget(d.pending[h])
	}
	for _, h := range sentH {
		ph := d.pending[h]
		delete(d.pending, h)
		ph.link.credits.Release(1)
		retarget(ph)
		d.nextH++
		ph.handle = d.nextH
		ph.sent = false
		ph.timedOut = false
		ph.enqAt = d.env.Now()
		d.pending[ph.handle] = ph
		d.sendQ.TrySend(ph)
		d.emet.requeued.Inc()
	}
	if len(sentH) > 0 {
		d.wdQ.WakeAll()
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
	r := blockdev.NewRequest(d.env, write, devByte/blockdev.SectorSize, d.migBuf[:n])
	parent := &parentReq{req: r, remain: 1}
	if !write {
		parent.readBuf = make([]byte, n)
	}
	ph := &phys{
		parent:   parent,
		link:     link,
		write:    write,
		offset:   areaOff,
		off:      0,
		length:   n,
		poolOff:  -1,
		mr:       d.migMR,
		devByte:  devByte,
		mig:      true,
		flowID:   r.ID(),
		blkAt:    r.QueuedAt(),
		submitAt: p.Now(),
	}
	d.nextH++
	ph.handle = d.nextH
	ph.enqAt = p.Now()
	d.pending[ph.handle] = ph
	d.sendQ.Send(p, ph)
	d.wdQ.WakeAll()
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
