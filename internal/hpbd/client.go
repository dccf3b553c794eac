package hpbd

import (
	"errors"
	"fmt"

	"hpbd/internal/blockdev"
	"hpbd/internal/ib"
	"hpbd/internal/netmodel"
	"hpbd/internal/placement"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/wire"
)

// ErrDeviceFailed reports that the device lost a server connection and
// can no longer serve I/O.
var ErrDeviceFailed = errors.New("hpbd: device failed (server connection lost)")

// ErrRemote reports a non-OK reply status from a server.
var ErrRemote = errors.New("hpbd: remote error")

// ErrServerLost reports that a request's server connection died, retries
// were exhausted or impossible, and no fallback driver could absorb the
// request. Unlike ErrDeviceFailed it is per-request: the device keeps
// serving ranges whose servers survive.
var ErrServerLost = errors.New("hpbd: server lost")

// retryBackoff is the recovery path's first retry delay; attempt k waits
// retryBackoff << (k-1).
const retryBackoff = 50 * sim.Microsecond

// ClientConfig parameterizes the client block device driver.
type ClientConfig struct {
	// PoolBytes is the registration buffer pool size (paper default 1 MB,
	// initialized and registered at device load time).
	PoolBytes int
	// Credits is the per-server water-mark: the maximum outstanding
	// requests to one server (bounded by the server's pre-posted receive
	// buffers, §4.2.4).
	Credits int
	// Host carries wakeup costs.
	Host netmodel.HostModel
	// Telemetry, if non-nil, is the registry the driver reports into; nil
	// gives the device a private registry so Stats() always works.
	Telemetry *telemetry.Registry

	// HybridDataPath enables the adaptive copy/register data path:
	// requests of HybridThresholdBytes or more skip the pool and register
	// their payload on the fly through an MR reuse cache, while smaller
	// requests keep the paper's copy-into-pool path. Off by default (the
	// paper copies always).
	HybridDataPath bool
	// HybridThresholdBytes is the hybrid cutover size; zero means the
	// netmodel Fig. 3 crossover (~127 KB).
	HybridThresholdBytes int
	// MRCacheEntries bounds the hybrid path's MR reuse cache (zero: 8).
	MRCacheEntries int
	// DoorbellBatch, when > 1, makes the sender drain up to this many
	// queued requests and post each server's share as one chained work
	// request list (a single doorbell charge instead of per-WQE). Values
	// above Credits are clamped: a chain longer than the credit window
	// would wait on replies it has not posted. <= 1 keeps the paper's
	// one-post-per-request behavior.
	DoorbellBatch int
	// ODP switches the large-request MR path from pinned registrations to
	// on-demand-paging regions (ib.RegisterODP): registration is ~free and
	// the first WR through each page window pays a fault instead, so a
	// cold buffer costs less than a pinned registration and a warm one
	// costs nothing. Takes effect when the device has an MR path (
	// HybridDataPath or MergeWindow); off by default.
	ODP bool
	// MergeWindow, when > 1, makes the sender coalesce up to this many
	// sector-contiguous same-server queued requests into one large work
	// request (RDMAbox's merged I/O) before credit accounting and doorbell
	// batching: one credit, one WQE, one server-side op for the whole run,
	// with completion fanned back out per constituent handle. <= 1 (the
	// default) keeps the paper's one-WR-per-request behavior.
	MergeWindow int
	// MergeBytes caps a merged work request's payload (zero: the 128 KB
	// block-layer bound). It must not exceed the servers' StagingBytes —
	// a merged WR is one server op against one staging buffer.
	MergeBytes int
	// AdaptiveCrossover replaces the static hybrid threshold with a
	// feedback controller: every CrossoverWindow completed requests it
	// re-derives the copy/register crossover from the observed MR-cache
	// reuse rate and nudges the threshold toward it, stepping further
	// down when pool-wait time dominates the per-stage breakdown.
	// Requires HybridDataPath. Off by default.
	AdaptiveCrossover bool
	// CrossoverWindow is the controller's observation window in completed
	// requests (zero: 64).
	CrossoverWindow int

	// RequestTimeout, when > 0, arms a watchdog process that flags
	// requests outstanding longer than this, counts them in
	// hpbd.timeouts, and dumps the flight recorder (to the writer armed
	// through Lifecycle().Flight().SetDumpWriter); with recovery enabled
	// (MaxRetries/Fallback) it also cancels each overdue request and
	// re-routes it (retry or fallback), so a wedged server cannot wedge
	// the device forever. Zero (the default) spawns no watchdog.
	RequestTimeout sim.Duration

	// MaxRetries enables the recovery path: a physical request that
	// fails transiently (send error) or times out is retried up to this
	// many times with exponential backoff (retryBackoff, doubling per
	// attempt) before degrading. Zero (the default) keeps the paper's
	// fail-stop behavior: any completion error fails the whole device.
	MaxRetries int
	// Fallback, if non-nil, is a last-resort block driver (the paper's
	// local-disk swap device): requests whose server is gone and whose
	// retries are exhausted are absorbed here instead of failing.
	// Setting Fallback also enables the recovery path.
	Fallback blockdev.Driver

	// Tenant is the identity this device presents when attaching to
	// servers (the area ledger owner; under server-side tenancy it must
	// appear in the servers' QoS spec). When the device also has a
	// Fallback driver, a reclaimer process demotes the tenant's coldest
	// server pages to the fallback whenever a quota refusal kicks it.
	// Empty (the default) attaches anonymously.
	Tenant string

	// MigrationMBps caps the migration engine's background copy rate in
	// MB/s: each chunk is stretched to at least its fair-share duration,
	// bounding migration/foreground interference. Zero leaves migration
	// unpaced (throttled only by credits and fabric contention).
	MigrationMBps float64

	// The remaining fields flip the paper's design choices for ablation
	// studies; all default to the paper's design (false/zero).

	// RegisterOnTheFly pays per-request registration/deregistration
	// instead of copying into the pre-registered pool (the alternative
	// §4.1 rejects using Figure 3).
	RegisterOnTheFly bool
	// PollingReceiver makes the receiver busy-poll the CQ instead of
	// sleeping on solicited completion events.
	PollingReceiver bool
	// StripeBytes, if non-zero, stripes the device across servers in
	// round-robin chunks instead of the paper's blocked distribution
	// (§4.2.5 argues striping does not pay at a 128 KB request bound). It
	// must be a multiple of the sector size.
	StripeBytes int64
}

// DefaultClientConfig returns the paper's client configuration.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		PoolBytes: 1 << 20,
		Credits:   16,
		Host:      netmodel.DefaultHost(),
	}
}

// DeviceStats aggregates client driver activity. It is a snapshot view
// assembled from the telemetry registry ("hpbd." counters); Stats() is the
// compatibility accessor.
type DeviceStats struct {
	PhysReqs     int64 // physical requests sent to servers
	Replies      int64
	BytesWritten int64
	BytesRead    int64
	Splits       int64 // block requests split across servers
	CreditStalls int64 // sends that waited on flow-control credits
	RemoteErrors int64
	Doorbells    int64 // send-side doorbells rung (== PhysReqs unless batching)
	RecvWakeups  int64 // receiver sleep->wakeup transitions
	HybridLarge  int64 // requests routed to the register-on-the-fly fast path
	Timeouts     int64 // requests the watchdog flagged as overdue
	Retries      int64 // physical requests re-sent by the recovery path
	LinkFailures int64 // server connections declared dead
	Fallbacks    int64 // requests absorbed by the fallback driver
}

// deviceMetrics are the driver's registry handles, resolved once at
// device creation so the hot path never touches the name maps.
type deviceMetrics struct {
	physReqs     *telemetry.Counter
	replies      *telemetry.Counter
	bytesWritten *telemetry.Counter
	bytesRead    *telemetry.Counter
	splits       *telemetry.Counter
	creditStalls *telemetry.Counter
	remoteErrors *telemetry.Counter
	doorbells    *telemetry.Counter
	recvWakeups  *telemetry.Counter
	hybridLarge  *telemetry.Counter
	timeouts     *telemetry.Counter
	queueWait    *telemetry.Histogram // Submit enqueue -> sender dequeue
	opWrite      *telemetry.Histogram // send posted -> reply handled
	opRead       *telemetry.Histogram
}

// recoveryMetrics are the recovery path's registry handles. They are
// resolved only when recovery is enabled so that a default-configured
// device registers no extra metrics and its Summary() output stays
// byte-identical to the fail-stop driver (the handles are nil-safe).
type recoveryMetrics struct {
	retries   *telemetry.Counter
	linkFails *telemetry.Counter
	fallbacks *telemetry.Counter
	cancels   *telemetry.Counter
}

func newRecoveryMetrics(reg *telemetry.Registry) recoveryMetrics {
	return recoveryMetrics{
		retries:   reg.Counter("hpbd.retries"),
		linkFails: reg.Counter("hpbd.link_failures"),
		fallbacks: reg.Counter("hpbd.fallbacks"),
		cancels:   reg.Counter("hpbd.timeout_cancels"),
	}
}

// mergeMetrics are the WR-merging path's registry handles, resolved only
// when MergeWindow > 1 so a non-merging device registers no extra series
// (the handles are nil-safe).
type mergeMetrics struct {
	reqs  *telemetry.Counter   // constituent requests absorbed into merged WRs
	wrs   *telemetry.Counter   // merged WRs posted
	bytes *telemetry.Counter   // payload bytes carried by merged WRs
	run   *telemetry.Histogram // merged run length (requests per WR)
}

func newMergeMetrics(reg *telemetry.Registry) mergeMetrics {
	return mergeMetrics{
		reqs:  reg.Counter("hpbd.merge.reqs"),
		wrs:   reg.Counter("hpbd.merge.wrs"),
		bytes: reg.Counter("hpbd.merge.bytes"),
		run:   reg.Histogram("hpbd.merge.run"),
	}
}

func newDeviceMetrics(reg *telemetry.Registry) deviceMetrics {
	return deviceMetrics{
		physReqs:     reg.Counter("hpbd.phys_reqs"),
		replies:      reg.Counter("hpbd.replies"),
		bytesWritten: reg.Counter("hpbd.bytes_written"),
		bytesRead:    reg.Counter("hpbd.bytes_read"),
		splits:       reg.Counter("hpbd.splits"),
		creditStalls: reg.Counter("hpbd.credit_stalls"),
		remoteErrors: reg.Counter("hpbd.remote_errors"),
		doorbells:    reg.Counter("hpbd.doorbells"),
		recvWakeups:  reg.Counter("hpbd.recv.wakeups"),
		hybridLarge:  reg.Counter("hpbd.hybrid.large_reqs"),
		timeouts:     reg.Counter("hpbd.timeouts"),
		queueWait:    reg.Histogram("hpbd.queue.wait"),
		opWrite:      reg.Histogram("hpbd.op.write"),
		opRead:       reg.Histogram("hpbd.op.read"),
	}
}

// serverLink is the client-side state for one memory server connection.
type serverLink struct {
	srv     *Server
	qp      *ib.QP
	srvQP   *ib.QP     // server-side QP (keys the server's per-conn tenancy state)
	slots   []reqSlot  // the credit window: Credits slots (see reqSlot)
	free    []*reqSlot // the free slots, a stack
	slotQ   sim.WaitQueue
	reqMR   *ib.MR // Credits control-message staging buffers, one per slot
	recvMR  *ib.MR // Credits reply buffers
	down    bool   // the recovery path declared this server dead
	removed bool   // decommissioned by RemoveServer (drained, QP closed)
}

// parentReq is the device's record of one block-layer request across its
// physical requests: the completion count, the request's first — usually
// only — physical request inline, and the scratch its split is written to.
// Records are recycled: getRec takes one, and finishPhys, which every
// settlement funnels through, gives it back zeroed once the last physical
// request has settled. A phys still owed a settlement — in the in-flight
// list, or out of it waiting on a backoff timer, a fallback I/O or the
// sender — therefore always points at a live record; one that has settled
// must not be touched again, and reads as zero if it is.
type parentReq struct {
	req    *blockdev.Request
	remain int
	err    error
	first  phys                // the physical request of segs[0]
	segs   []placement.Segment // Submit's split; the capacity survives recycling
	free   *parentReq          // free-list link
}

// phys is one physical request to one server.
type phys struct {
	parent  *parentReq
	link    *serverLink
	offset  int64 // byte offset within the server area
	off     int   // byte offset within the parent request
	length  int
	home    home // where the payload lives while in flight
	handle  uint64
	devByte int64 // absolute device byte offset (fallback addressing)
	attempt int   // recovery re-sends already performed

	// A non-empty subs marks a merge carrier: the sector-contiguous
	// requests riding this WR, in device order. A carrier has no parent of
	// its own — completion (success or any error path) fans out to the
	// subs, each keeping its own handle, lifecycle record, and flow id.
	// The capacity survives recycling.
	subs       []*phys
	free       *phys // free-list link (records that are not a parentReq's first)
	prev, next *phys // in-flight list links, in handle order

	slot *reqSlot // the link slot this request holds; nil until it is sent

	mtrack *migState // in-range foreground write tracked by a live move

	write    bool
	mig      bool     // a migration engine transfer: never merged, never degraded
	timedOut bool     // the watchdog already flagged this request
	flowID   uint64   // block-layer request id, threads the causal flow
	blkAt    sim.Time // block-layer submission (parent request queued)
	submitAt sim.Time // driver began preparing this physical request
	enqAt    sim.Time // handed to the sender queue
	deqAt    sim.Time // sender dequeued it
	creditAt sim.Time // flow-control credit held
	sentAt   sim.Time // SEND posted to the fabric
}

// Device is the HPBD client: a block device driver (blockdev.Driver) that
// serves swap I/O from remote memory servers.
type Device struct {
	env  *sim.Env
	name string
	cfg  ClientConfig
	mem  netmodel.MemModel

	hca    *ib.HCA
	cq     *ib.CQ // shared send+recv CQ across all server QPs (§5)
	pool   *BufferPool
	poolMR *ib.MR

	// Sender-owned scratch, reused every round so a chain of one
	// allocates nothing: the drained batch, and one link's chain.
	batch []*phys
	wrs   []ib.SendWR

	// Recycled request records (see parentReq): one per block request, plus
	// loose phys for a request's second and later segments and for merge
	// carriers. The live counts are what is handed out and not yet back.
	freeRecs *parentReq
	freePhys *phys
	liveRecs int
	livePhys int

	links []*serverLink
	byQP  map[*ib.QP]*serverLink
	// dir is the device's one address map: links[i] is directory server i,
	// and every sector→server decision goes through it.
	dir      *placement.Directory
	inflight inflight // every queued or slotted request, and the sender's queue
	sleepQ   *sim.WaitQueue
	// reclaimQ parks the tenancy reclaimer until a quota refusal kicks it
	// (nil unless cfg.Tenant and cfg.Fallback are both set).
	reclaimQ *sim.WaitQueue
	failed   bool
	tel      *telemetry.Registry
	met      deviceMetrics
	rmet     recoveryMetrics
	tracer   *telemetry.Tracer
	lc       *telemetry.Lifecycle

	downLinks int            // count of links the recovery path failed
	fbHeld    map[int64]bool // sectors whose authoritative copy is on Fallback

	mrc           *mrCache // the register path and its threshold; nil unless HybridDataPath or MergeWindow
	doorbellBatch int      // effective batch limit (clamped to Credits)
	mergeWin      int      // sender merge window in requests (<= 1: off)
	mergeBytes    int      // merged WR payload cap
	mmet          mergeMetrics

	// Elastic membership state (see elastic.go): apart from the mutex, all
	// nil until the first membership operation.
	memberMu *sim.Mutex // serializes membership operations
	mig      *migState  // the in-progress move, nil when idle
	migMR    *ib.MR     // long-lived migration staging MR
	emet     elasticMetrics
}

// NewDevice creates an HPBD client on the fabric. Connect servers with
// ConnectServer before first I/O.
func NewDevice(f *ib.Fabric, name string, cfg ClientConfig) *Device {
	env := f.Env()
	hca := f.NewHCA(name)
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(env)
	}
	d := &Device{
		tel:    tel,
		met:    newDeviceMetrics(tel),
		tracer: tel.Tracer(),
		env:    env,
		name:   name,
		cfg:    cfg,
		mem:    f.Config().Mem,
		hca:    hca,
		cq:     hca.CreateCQ(name + "-cq"),
		pool:   NewBufferPool(env, cfg.PoolBytes),
		byQP:   make(map[*ib.QP]*serverLink),
		dir:    placement.NewDirectory(),
		sleepQ: sim.NewWaitQueue(env),
	}
	d.inflight.init(env)
	d.doorbellBatch = min(cfg.DoorbellBatch, cfg.Credits)
	d.memberMu = sim.NewMutex(env)
	if d.recovery() {
		d.rmet = newRecoveryMetrics(tel)
		if d.cfg.Fallback != nil {
			d.fbHeld = make(map[int64]bool)
		}
	}
	if cfg.HybridDataPath || cfg.MergeWindow > 1 {
		// Merged WRs ride reuse-cached MRs even when the hybrid path is off.
		d.mrc = newMRCache(hca, d.mem, cfg, tel)
	}
	if cfg.MergeWindow > 1 {
		d.mergeWin = cfg.MergeWindow
		d.mergeBytes = cfg.MergeBytes
		if d.mergeBytes <= 0 {
			d.mergeBytes = blockdev.MaxRequestBytes
		}
		d.mmet = newMergeMetrics(tel)
	}
	// The request-lifecycle analyzer and its flight recorder are always on
	// (cheap: timestamp reads and a ring copy per request, never a sleep).
	d.lc = tel.EnableLifecycle(telemetry.DefaultFlightRecEntries)
	// The pool is registered once at device load time — the design point
	// the paper's Figure 3 motivates.
	d.pool.SetTelemetry(tel)
	d.poolMR = hca.RegisterMRAtSetup(make([]byte, cfg.PoolBytes))
	d.cq.SetEventHandler(func() { d.sleepQ.WakeAll() })
	env.Go(name+"-sender", d.sender)
	env.Go(name+"-receiver", d.receiver)
	if cfg.RequestTimeout > 0 {
		env.Go(name+"-watchdog", d.watchdog)
	}
	if cfg.Tenant != "" && cfg.Fallback != nil {
		d.reclaimQ = sim.NewWaitQueue(env)
		env.Go(name+"-reclaim", d.reclaimer)
	}
	return d
}

// Name implements blockdev.Driver.
func (d *Device) Name() string { return d.name }

// Sectors implements blockdev.Driver: the device size is the sum of the
// areas the founding servers exported at ConnectServer.
func (d *Device) Sectors() int64 { return d.dir.TotalSectors() }

// Stats returns a snapshot of the driver statistics, read back from the
// telemetry registry.
func (d *Device) Stats() DeviceStats {
	return DeviceStats{
		PhysReqs:     d.met.physReqs.Value(),
		Replies:      d.met.replies.Value(),
		BytesWritten: d.met.bytesWritten.Value(),
		BytesRead:    d.met.bytesRead.Value(),
		Splits:       d.met.splits.Value(),
		CreditStalls: d.met.creditStalls.Value(),
		RemoteErrors: d.met.remoteErrors.Value(),
		Doorbells:    d.met.doorbells.Value(),
		RecvWakeups:  d.met.recvWakeups.Value(),
		HybridLarge:  d.met.hybridLarge.Value(),
		Timeouts:     d.met.timeouts.Value(),
		Retries:      d.rmet.retries.Value(),
		LinkFailures: d.rmet.linkFails.Value(),
		Fallbacks:    d.rmet.fallbacks.Value(),
	}
}

// recovery reports whether the device runs the recovery path (retries,
// per-link failover, fallback) instead of the paper's fail-stop design.
func (d *Device) recovery() bool {
	return d.cfg.MaxRetries > 0 || d.cfg.Fallback != nil
}

// DownLinks returns the number of server connections the recovery path
// has declared dead.
func (d *Device) DownLinks() int { return d.downLinks }

// Lifecycle returns the device's request-lifecycle analyzer.
func (d *Device) Lifecycle() *telemetry.Lifecycle { return d.lc }

// Telemetry returns the registry the device reports into.
func (d *Device) Telemetry() *telemetry.Registry { return d.tel }

// Pool exposes the registration buffer pool (for stats and tests).
func (d *Device) Pool() *BufferPool { return d.pool }

// HybridThreshold returns the current copy/register cutover in bytes —
// static configuration, or the adaptive controller's latest output; zero
// when no single request takes the register path.
func (d *Device) HybridThreshold() int {
	if d.mrc == nil {
		return 0
	}
	return d.mrc.thr
}

// InvalidateODP implements the faultsim ODPHost capability: it drops
// every resident on-demand-paging window on the client HCA, forcing the
// next WR through each ODP region to re-fault. Returns the number of
// windows invalidated (zero when the device holds no ODP regions).
func (d *Device) InvalidateODP() int { return d.hca.InvalidateODP() }

// Failed reports whether the device has lost a server.
func (d *Device) Failed() bool { return d.failed }

// ConnectServer attaches areaBytes of srv's memory as the next contiguous
// range of this device (the paper's blocked, non-striped distribution):
// a link plus a founding entry in the placement directory. Under the
// StripeBytes ablation the founding table is then re-laid round-robin.
func (d *Device) ConnectServer(srv *Server, areaBytes int64) error {
	if err := d.newLink(srv, areaBytes); err != nil {
		return err
	}
	d.dir.Bootstrap(srv.Name(), areaBytes)
	if d.cfg.StripeBytes > 0 {
		return d.dir.Stripe(d.cfg.StripeBytes)
	}
	return nil
}

// newLink brings up the connection to srv, the same way at connect time
// and for a live add: a QP attached to areaBytes of the server's memory,
// the Credits-slot window with its staging buffers and Credits pre-posted
// reply buffers (the water-mark, §4.2.4), and the reclaim kick when the device runs a
// reclaimer. The caller enters the link in the placement directory, which
// alone decides what sectors it serves.
func (d *Device) newLink(srv *Server, areaBytes int64) error {
	if areaBytes <= 0 || areaBytes%blockdev.SectorSize != 0 {
		return fmt.Errorf("hpbd: invalid area size %d", areaBytes)
	}
	var kick func() // a quota refusal on this link wakes the reclaimer
	if d.reclaimQ != nil {
		kick = d.reclaimQ.WakeAll
	}
	qp := d.hca.CreateQP(d.cq, d.cq)
	srvQP, err := srv.attach(qp, areaBytes, d.cfg.Tenant, kick)
	if err != nil {
		return err
	}
	link := &serverLink{
		srv:    srv,
		qp:     qp,
		srvQP:  srvQP,
		slots:  make([]reqSlot, d.cfg.Credits),
		free:   make([]*reqSlot, 0, d.cfg.Credits),
		reqMR:  d.hca.RegisterMRAtSetup(make([]byte, d.cfg.Credits*wire.RequestSize)),
		recvMR: d.hca.RegisterMRAtSetup(make([]byte, d.cfg.Credits*wire.ReplySize)),
	}
	for i := range link.slots {
		link.slots[i].idx = i
		link.free = append(link.free, &link.slots[i])
		if err := link.postReplyBuf(i); err != nil {
			return err
		}
	}
	d.links = append(d.links, link)
	d.byQP[qp] = link
	return nil
}

// postReplyBuf posts reply buffer slot to the link's receive queue.
func (l *serverLink) postReplyBuf(slot int) error {
	return l.qp.PostRecv(ib.RecvWR{
		ID:    uint64(slot),
		Local: ib.Segment{MR: l.recvMR, Off: slot * wire.ReplySize, Len: wire.ReplySize},
	})
}

// getRec takes a record for block request r, to be settled by remain
// physical requests.
//
//hpbd:hotpath
func (d *Device) getRec(r *blockdev.Request, remain int) *parentReq {
	rec := d.freeRecs
	if rec == nil {
		//hpbd:allow hotalloc -- free-list miss: allocates until the list has grown to the peak requests in flight
		rec = &parentReq{}
	} else {
		d.freeRecs, rec.free = rec.free, nil
	}
	rec.req, rec.remain = r, remain
	d.liveRecs++
	return rec
}

// putRec recycles a record whose request has completed.
//
//hpbd:hotpath
func (d *Device) putRec(rec *parentReq) {
	*rec = parentReq{segs: rec.segs[:0], free: d.freeRecs}
	d.freeRecs = rec
	d.liveRecs--
}

// getPhys takes a loose phys: a request's second or later segment, or a
// merge carrier.
//
//hpbd:hotpath
func (d *Device) getPhys() *phys {
	ph := d.freePhys
	if ph == nil {
		//hpbd:allow hotalloc -- free-list miss: allocates until the list has grown to the peak loose phys in flight
		ph = &phys{}
	} else {
		d.freePhys, ph.free = ph.free, nil
	}
	d.livePhys++
	return ph
}

// putPhys recycles a settled loose phys.
//
//hpbd:hotpath
func (d *Device) putPhys(ph *phys) {
	clear(ph.subs)
	*ph = phys{subs: ph.subs[:0], free: d.freePhys}
	d.freePhys = ph
	d.livePhys--
}

// setup makes ph the physical request for segment sg of block request r on
// link, not yet staged or admitted. parent is nil for a merge carrier,
// which borrows r and submitAt from its first constituent.
//
//hpbd:hotpath
func (ph *phys) setup(parent *parentReq, r *blockdev.Request, link *serverLink, sg placement.Segment, submitAt sim.Time) {
	*ph = phys{
		parent:   parent,
		link:     link,
		write:    r.Write,
		offset:   sg.Offset,
		off:      sg.Off,
		length:   sg.Length,
		devByte:  sg.DevByte,
		flowID:   r.ID(),
		blkAt:    r.QueuedAt(),
		submitAt: submitAt,
		subs:     ph.subs[:0],
	}
}

// Submit implements blockdev.Driver: it splits the request across servers,
// copies write data into the registration pool (blocking on the pool's
// allocation wait queue under pressure), and hands the physical requests
// to the sender thread. Completion is signalled by the receiver thread.
func (d *Device) Submit(p *sim.Proc, r *blockdev.Request) {
	if d.failed {
		r.Complete(ErrDeviceFailed)
		return
	}
	if d.mig != nil && r.Write {
		// A frozen migrating range parks in-range writes until cutover.
		d.migGate(p, r)
	}
	start := r.Sector * blockdev.SectorSize
	n := r.Bytes()
	parent := d.getRec(r, 0)
	segs := d.dir.SplitInto(parent.segs[:0], start, n)
	if segs == nil {
		r.Complete(blockdev.ErrOutOfRange)
		d.putRec(parent)
		return
	}
	if len(segs) > 1 {
		d.met.splits.Inc()
	}
	// The record lives until its last segment settles, which cannot come
	// before the last iteration below has handed that segment off: nothing
	// in the loop reads parent or segs after a segment's finishPhys.
	parent.segs, parent.remain = segs, len(segs)
	for i, sg := range segs {
		link := d.links[sg.Server]
		ph := &parent.first
		if i > 0 {
			ph = d.getPhys()
		}
		ph.setup(parent, r, link, sg, p.Now())
		if link.down {
			// The server backing this range is gone: skip the pool and
			// the wire entirely and degrade immediately (fallback driver
			// or per-request error).
			d.routeDegraded(ph)
			continue
		}
		if !r.Write && d.fallbackCovers(sg.DevByte, sg.Length) {
			// The authoritative copy lives on the fallback: a write was
			// absorbed there while the server was unreachable or wedged,
			// so the server's copy (if any) is stale even though the
			// link is up. Served from the fallback until a fresh server
			// write clears the hold. Swap I/O is page-granular, so a
			// read either matches an absorbed write's range exactly or
			// not at all — partial coverage does not arise.
			d.routeDegraded(ph)
			continue
		}
		// Merging defers staging to the sender: only there is it known
		// whether this request rides its own WR or a merged carrier's MR.
		// A write's payload stays in the I/O buffers until then.
		if d.mergeWin <= 1 {
			if err := d.stage(p, ph); err != nil {
				d.finishPhys(ph, err)
				continue
			}
		}
		if m := d.mig; m != nil && r.Write && m.overlaps(sg.DevByte, sg.Length) {
			// A live move covers this write: its completion re-dirties
			// the copied sectors (write-forwarding) and cutover waits
			// for it to land.
			ph.mtrack = m
			m.inflight++
		}
		d.inflight.admit(ph)
	}
}

// marshalReq encodes ph's control message into the staging buffer of the
// slot it holds and returns the segment to post. The fabric copies the
// bytes at post time; until then no two requests of a chain share a slot.
//
//hpbd:hotpath
func (d *Device) marshalReq(ph *phys) ib.Segment {
	link := ph.link
	typ := wire.ReqRead
	if ph.write {
		typ = wire.ReqWrite
	}
	addr, rkey := ph.home.remote(d)
	off := ph.slot.idx * wire.RequestSize
	wire.MarshalRequest(link.reqMR.Buf[off:off+wire.RequestSize], &wire.Request{
		Type:   typ,
		Handle: ph.handle,
		Offset: uint64(ph.offset),
		Length: uint32(ph.length),
		Addr:   addr,
		RKey:   rkey,
	})
	return ib.Segment{MR: link.reqMR, Off: off, Len: wire.RequestSize}
}

// sender is the request-issuing thread, the one stage every request
// passes through: drain what has queued behind the blocking receive (a
// decision keyed on queue state at the current instant, never on wall
// time), merge, then issue. The paper's design (§4.2.3, §4.2.4) is this
// loop at its parameters' defaults — a drain limit of one, no merging,
// chains of one.
func (d *Device) sender(p *sim.Proc) {
	limit := d.doorbellBatch
	if d.mergeWin > limit {
		limit = d.mergeWin
	}
	for {
		ph, ok := d.inflight.sendQ.Recv(p)
		if !ok {
			return
		}
		batch := append(d.batch[:0], ph)
		for len(batch) < limit {
			next, ok2 := d.inflight.sendQ.TryRecv()
			if !ok2 {
				break
			}
			batch = append(batch, next)
		}
		d.batch = batch
		if d.mergeWin > 1 {
			batch = d.mergeBatch(p, batch)
		}
		if d.doorbellBatch > 1 {
			d.issue(p, batch)
			continue
		}
		// One doorbell per request, in arrival order.
		for i := range batch {
			d.issue(p, batch[i:i+1])
		}
	}
}

// mergeBatch coalesces sector-contiguous same-server runs of the drained
// batch into carrier WRs and stages everything else individually. Output
// preserves arrival order (a carrier sits where its first constituent
// did), so merging never reorders the issue stream.
func (d *Device) mergeBatch(p *sim.Proc, batch []*phys) []*phys {
	out := batch[:0] // rewritten in place: out never overtakes the read index
	for i, j := 0, 0; i < len(batch); i = j {
		j = d.mergeRun(batch, i)
		if j-i >= 2 {
			out = append(out, d.buildCarrier(p, batch[i:j]))
			continue
		}
		ph := batch[i]
		if !ph.home.staged() && !d.failed && !ph.link.down {
			if err := d.stage(p, ph); err != nil {
				d.settle(p, ph, err)
				continue
			}
		}
		out = append(out, ph)
	}
	return out
}

// mergeRun scans the drained batch from i for the longest mergeable run:
// unstaged requests (a migration chunk arrives staged, so never merges) to
// the same live server, same direction, contiguous in both device bytes
// and server-area offset, bounded by the merge window and payload cap.
// Returns the index one past the run.
//
//hpbd:hotpath
func (d *Device) mergeRun(batch []*phys, i int) int {
	ph := batch[i]
	if d.failed || ph.home.staged() || ph.link.down {
		return i + 1
	}
	total := ph.length
	j := i + 1
	for j < len(batch) && j-i < d.mergeWin {
		nx := batch[j]
		if nx.link != ph.link || nx.write != ph.write || nx.home.staged() {
			break
		}
		if nx.devByte != ph.devByte+int64(total) || nx.offset != ph.offset+int64(total) {
			break
		}
		if total+nx.length > d.mergeBytes {
			break
		}
		total += nx.length
		j++
	}
	return j
}

// stage gives a request its payload home (see home.stage): Submit does,
// or with the merge window armed the sender, for every request that rides
// its own WR. On an error the caller settles the request.
func (d *Device) stage(p *sim.Proc, ph *phys) error {
	var w *blockdev.Request
	if ph.write {
		w = ph.parent.req
	}
	return ph.home.stage(d, p, ph.length, w, ph.off)
}

// buildCarrier folds a mergeable run into one carrier WR: one credit,
// one WQE, one reuse-cached MR spanning the whole payload. The
// constituents leave the in-flight list — the carrier stands in for them
// under a fresh handle — and are settled exactly once by the carrier's
// completion fan-out, on every path.
func (d *Device) buildCarrier(p *sim.Proc, run []*phys) *phys {
	first := run[0]
	total := 0
	for _, s := range run {
		total += s.length
	}
	c := d.getPhys()
	c.setup(nil, first.parent.req, first.link,
		placement.Segment{Offset: first.offset, Length: total, DevByte: first.devByte}, first.submitAt)
	c.enqAt = first.enqAt
	//hpbd:allow hotalloc -- grows a recycled carrier's list to the merge window, then stays
	c.subs = append(c.subs, run...) // a copy: run aliases the batch being rewritten
	subs := c.subs
	c.home.stageMR(d, p, total)
	if c.write {
		buf := c.home.bytes(d)
		for _, s := range subs {
			s.parent.req.Gather(buf[:s.length], s.off)
			buf = buf[s.length:]
		}
	}
	for _, s := range subs {
		d.inflight.take(s)
	}
	d.inflight.stamp(c)
	d.inflight.hold(c)
	d.mmet.reqs.Add(int64(len(subs)))
	d.mmet.wrs.Inc()
	d.mmet.bytes.Add(int64(total))
	d.mmet.run.Observe(sim.Duration(len(subs)))
	return c
}

// settle completes a request the sender still owns (queued, never posted)
// with err, returning whatever payload buffer it holds.
func (d *Device) settle(p *sim.Proc, ph *phys, err error) {
	if d.inflight.take(ph) {
		ph.home.release(d, p)
		d.finishPhys(ph, err)
	}
}

// reroute hands a queued request whose link has died to the recovery path.
func (d *Device) reroute(ph *phys) {
	if d.inflight.take(ph) {
		d.retryOrRoute(ph)
	}
}

// issue is the one issue path: it groups batch by server link — links
// visited in connect order, never map order — takes one slot (one credit)
// per request, and posts each group as a single chained doorbell. The
// paper's one credit, one WQE, one doorbell per request is a batch of one.
//
// A queued, unsent request is settled by nobody but the sender, so the
// batch's records are the sender's to read across every stall here. Once
// a request holds a slot that ends: a link failure, a device failure or
// a timeout cancel may pull it back at the next yield, and a request
// pulled back may settle and its record be recycled. So an entry leaves
// live as it is handed on, and after the doorbell a posted request is
// touched only while its slot is still live under the handle posted.
func (d *Device) issue(p *sim.Proc, batch []*phys) {
	live := batch[:0]
	for _, ph := range batch {
		if d.failed {
			d.settle(p, ph, ErrDeviceFailed)
			continue
		}
		if ph.link.down {
			// The link died while this request sat in the send queue.
			d.reroute(ph)
			continue
		}
		ph.deqAt = p.Now()
		d.met.queueWait.Observe(ph.deqAt.Sub(ph.enqAt))
		live = append(live, ph)
	}
	for _, link := range d.links {
		wrs := d.wrs[:0]
		for k, ph := range live {
			if ph == nil || ph.link != link {
				continue
			}
			live[k] = nil
			if link.down {
				// The link died mid-batch (during an earlier credit stall).
				d.reroute(ph)
				continue
			}
			if len(link.free) == 0 {
				d.met.creditStalls.Inc()
				stall := d.tracer.Begin(d.name, "credit-stall")
				for len(link.free) == 0 {
					link.slotQ.Wait(p) // every release wakes us to re-check
				}
				stall.End()
				if d.failed {
					d.settle(p, ph, ErrDeviceFailed)
					continue
				}
				if link.down {
					// The link died during this stall: posting to the
					// closed QP would strand the request.
					d.reroute(ph)
					continue
				}
			}
			// Holding a slot marks the request in flight before the post:
			// a failure during the post must not leave it unaccounted.
			link.take(ph, p.Now())
			ph.creditAt = p.Now()
			wrs = append(wrs, ib.SendWR{ID: ph.handle, Op: ib.OpSend, Local: d.marshalReq(ph), Flow: ph.flowID})
		}
		d.wrs = wrs
		if len(wrs) == 0 {
			continue
		}
		err := link.qp.PostSendBatch(p, wrs)
		if err != nil {
			if d.recovery() {
				// The QP is gone; failLink frees the window and requeues
				// every chained request still holding a slot.
				d.failLink(link)
				continue
			}
			// No request of the chain reached the server: each slot one
			// still holds, live or zombie, frees at once.
			for i := range wrs {
				if s := link.lookup(wrs[i].ID); s != nil {
					ph := s.ph
					link.release(s)
					if ph != nil {
						d.settle(p, ph, err)
					}
				}
			}
			continue
		}
		now := p.Now()
		for i := range wrs {
			if s := link.lookup(wrs[i].ID); s != nil && s.ph != nil {
				s.ph.sentAt = now
			}
			if d.tracer != nil {
				// Thread the causal flow across the wire: the server half
				// continues it under the same id, looked up by wire handle
				// through the shared-registry link table (the wire format
				// itself is frozen — see telemetry.ServerStamp).
				d.tracer.FlowStep(d.name, "req", wrs[i].Flow)
				d.lc.LinkFlow(wrs[i].ID, wrs[i].Flow)
			}
			d.met.physReqs.Inc()
		}
		d.met.doorbells.Inc()
	}
}

// receiver is the event-driven reply thread: it sleeps until a solicited
// completion event fires, then drains every available reply in a burst
// before sleeping again (§4.2.3).
func (d *Device) receiver(p *sim.Proc) {
	for {
		e, ok := d.cq.Poll()
		if !ok {
			if d.cfg.PollingReceiver {
				// Ablation: busy-poll, no event arming or wakeup cost.
				e = d.cq.WaitPoll(p)
			} else {
				d.cq.ReqNotify(true) // solicited replies and errors wake us
				if e2, ok2 := d.cq.Poll(); ok2 {
					e = e2
				} else {
					d.sleepQ.Wait(p)
					p.Sleep(d.cfg.Host.Wakeup)
					// One wakeup serves however many replies the drain
					// loop below finds queued (CQE burst accounting:
					// replies/wakeups is the per-wakeup burst size).
					d.met.recvWakeups.Inc()
					continue
				}
			}
		}
		if e.Status != ib.StatusSuccess {
			d.handleErrorCQE(e)
			continue
		}
		if e.Op != ib.OpRecv {
			continue // send completions: control buffers are reusable
		}
		d.handleReply(p, e)
	}
}

// handleErrorCQE classifies a completion error. Without recovery it is
// the paper's fail-stop design: any error fails the device. With
// recovery, a flushed completion means the peer is gone (fail only that
// link and requeue its in-flight requests) while a transient send error
// (RNR or an injected QP fault — the request never reached the server)
// releases the credit and retries the request with backoff.
func (d *Device) handleErrorCQE(e ib.CQE) {
	link := d.byQP[e.QP]
	if link != nil && link.removed {
		// Closing a decommissioned server's QP flushes its posted
		// receives; those CQEs are expected, not a failure.
		return
	}
	if !d.recovery() || link == nil {
		// A failed send or flushed receive means a server is gone.
		d.fail()
		return
	}
	if e.Op == ib.OpRecv || e.Status == ib.StatusFlushErr {
		d.failLink(link)
		return
	}
	// The request never reached the server, so no reply will land for its
	// slot: it frees at once, zombie or not.
	s := link.lookup(e.WRID)
	if s == nil {
		return // the slot freed with its link
	}
	ph := s.ph
	link.release(s)
	if ph != nil && d.inflight.take(ph) {
		d.retryOrRoute(ph)
	}
}

func (d *Device) handleReply(p *sim.Proc, e ib.CQE) {
	replyAt := p.Now()
	link := d.byQP[e.QP]
	if link == nil {
		return
	}
	slot := int(e.WRID)
	rep, err := wire.UnmarshalReply(link.recvMR.Buf[slot*wire.ReplySize : (slot+1)*wire.ReplySize])
	if err == nil {
		// Repost the reply buffer before freeing the slot so the server
		// can never overrun our receive queue.
		err = link.postReplyBuf(slot)
	}
	if err != nil {
		d.fail()
		return
	}
	s := link.lookup(rep.Handle)
	if s == nil {
		return // duplicate, or the slot freed with its link
	}
	ph := s.ph
	if ph == nil {
		// A cancelled request's late reply: its reply buffer is back.
		link.release(s)
		return
	}
	d.met.replies.Inc()
	d.inflight.take(ph)

	if rep.Status == wire.StatusRetry && d.recovery() {
		// RNR-style admission pushback: the server refused the request
		// for now (tenant over its memory quota). Back off and retry
		// while reclaim makes room — the payload is still held for the
		// re-send — degrading to the fallback when retries exhaust.
		d.tracer.InstantArgs(d.name, "quota-pushback", map[string]any{"handle": rep.Handle})
		link.release(s)
		d.retryOrRoute(ph)
		return
	}

	var ferr error
	if rep.Status != wire.StatusOK {
		d.met.remoteErrors.Inc()
		ferr = fmt.Errorf("%w: %v", ErrRemote, rep.Status)
	} else if !ph.write {
		d.met.opRead.Observe(p.Now().Sub(ph.sentAt))
		ph.home.landed(d, p, false, ph.length)
		ph.scatter(ph.home.bytes(d))
		d.met.bytesRead.Add(int64(ph.length))
	} else {
		d.met.opWrite.Observe(p.Now().Sub(ph.sentAt))
		ph.home.landed(d, p, true, ph.length)
		d.met.bytesWritten.Add(int64(ph.length))
		// A server-acknowledged write makes the server copy authoritative
		// again for this range; drop any fallback hold left by an earlier
		// absorbed write. Migration copies are an exception: they move
		// whatever bytes the source holds — stale for held sectors — so
		// the fallback must stay authoritative across the cutover.
		if !ph.mig {
			d.clearFallbackHold(ph.devByte, ph.length)
		}
	}
	if d.tracer != nil {
		d.traceDone(p, ph)
	}
	d.recordLifecycle(p, ph, replyAt, ferr)
	ph.home.release(d, p)
	if s.h == rep.Handle { // else a link failure during the copy-out freed it
		link.release(s)
	}
	d.finishPhys(ph, ferr)
}

// scatter lands a completed read's payload, laid out contiguously from
// src[0], in the block layer's I/O buffers of every request the WR
// carried: a carrier's constituents in device order, or ph itself — a
// plain request is its own only constituent.
//
//hpbd:hotpath
func (ph *phys) scatter(src []byte) {
	if len(ph.subs) == 0 {
		ph.parent.req.ScatterAt(ph.off, src[:ph.length])
		return
	}
	for _, s := range ph.subs {
		s.parent.req.ScatterAt(s.off, src[:s.length])
		src = src[s.length:]
	}
}

// traceDone emits the WR's completion span and ends the causal flow of
// every request it carried.
func (d *Device) traceDone(p *sim.Proc, ph *phys) {
	name := "read"
	if ph.write {
		name = "write"
	}
	args := map[string]any{
		"bytes": ph.length, "server": ph.link.srv.Name(),
		"flow": ph.flowID, "handle": ph.handle,
	}
	if len(ph.subs) == 0 {
		d.tracer.Complete(d.name, name, ph.enqAt, p.Now(), args)
		d.tracer.FlowEnd(d.name, "req", ph.flowID)
		return
	}
	args["reqs"] = len(ph.subs)
	d.tracer.Complete(d.name, name+"-merged", ph.enqAt, p.Now(), args)
	var lastFlow uint64
	for _, s := range ph.subs {
		if s.flowID != lastFlow {
			d.tracer.FlowEnd(d.name, "req", s.flowID)
			lastFlow = s.flowID
		}
	}
}

// recordLifecycle attributes the completed WR's end-to-end latency to the
// critical-path stages, one record per request it carried. The server's
// interior split (send/rdma/server-copy/reply) comes from its stamp in the
// shared registry — taken once, shared by every constituent — when
// available and consistent with the client's clock.
//
//hpbd:hotpath
func (d *Device) recordLifecycle(p *sim.Proc, ph *phys, replyAt sim.Time, ferr error) {
	now := p.Now()
	st, stOK := d.lc.TakeServerStamp(ph.handle)
	stOK = stOK && st.Start >= ph.creditAt && st.Reply >= st.Start && replyAt >= st.Reply
	if len(ph.subs) == 0 {
		d.recordReq(ph, ph, &st, stOK, replyAt, now, ferr)
		return
	}
	for _, s := range ph.subs {
		d.recordReq(s, ph, &st, stOK, replyAt, now, ferr)
	}
}

// recordReq writes the lifecycle record of s, one request carried by WR
// ph (s == ph for a plain request). The stages partition s's own [blkAt,
// now] exactly by construction — every boundary is a captured timestamp:
// the early stages use s's private timestamps, while the shared flight
// (credit -> send -> rdma/server copy -> reply -> drain) comes from the
// WR's clock and single server stamp, falling back to post->reply flight
// time under "send"/"reply" when the server keeps a private registry. The
// fan-in point is the WR's dequeue.
//
//hpbd:hotpath
func (d *Device) recordReq(s, ph *phys, st *telemetry.ServerStamp, stOK bool, replyAt, now sim.Time, ferr error) {
	rec := telemetry.ReqRecord{
		ID:      s.handle,
		Flow:    s.flowID,
		Write:   s.write,
		Err:     ferr != nil,
		Bytes:   s.length,
		Server:  ph.link.srv.Name(),
		Start:   s.blkAt,
		End:     now,
		Retries: uint8(min(ph.attempt, 255)),
	}
	// Queueing is two segments: block layer -> driver dispatch, and the
	// driver's own send queue. Only the sum must partition.
	rec.Stages[telemetry.StageQueue] = s.submitAt.Sub(s.blkAt) + ph.deqAt.Sub(s.enqAt)
	rec.Stages[telemetry.StagePoolWait] = s.enqAt.Sub(s.submitAt)
	rec.Stages[telemetry.StageCreditStall] = ph.creditAt.Sub(ph.deqAt)
	if stOK {
		srvCopy := st.Copy
		if srvCopy > st.Reply.Sub(st.Start) {
			srvCopy = st.Reply.Sub(st.Start)
		}
		rec.Stages[telemetry.StageSend] = st.Start.Sub(ph.creditAt)
		rec.Stages[telemetry.StageServerCopy] = srvCopy
		rec.Stages[telemetry.StageRDMA] = st.Reply.Sub(st.Start) - srvCopy
		rec.Stages[telemetry.StageReply] = replyAt.Sub(st.Reply)
	} else {
		rec.Stages[telemetry.StageSend] = ph.sentAt.Sub(ph.creditAt)
		rec.Stages[telemetry.StageReply] = replyAt.Sub(ph.sentAt)
	}
	rec.Stages[telemetry.StageDrain] = now.Sub(replyAt)
	d.lc.Record(&rec)
	d.mrc.observe(&rec)
}

// finishPhys records one physical completion and completes the parent
// when all pieces are done. A merge carrier has no parent: its outcome
// fans out to the constituents instead, so every error path that settles
// the carrier (device failure, link failover, retry exhaustion, timeout
// cancel, degraded completion) settles each constituent exactly once.
//
// It is also where the records go back: ph is zeroed here — onto the free
// list unless it is its parent's inline first — and the parent record
// follows when its request has completed. The caller must not touch ph
// afterwards.
//
//hpbd:hotpath
func (d *Device) finishPhys(ph *phys, err error) {
	if m := ph.mtrack; m != nil {
		ph.mtrack = nil
		m.noteDone(ph, err)
	}
	if len(ph.subs) > 0 {
		for _, s := range ph.subs {
			d.finishPhys(s, err)
		}
		d.putPhys(ph)
		return
	}
	parent := ph.parent
	if ph == &parent.first {
		*ph = phys{}
	} else {
		d.putPhys(ph)
	}
	if err != nil && parent.err == nil {
		parent.err = err
	}
	parent.remain--
	if parent.remain > 0 {
		return
	}
	parent.req.Complete(parent.err)
	d.putRec(parent)
}

// watchdog (spawned when RequestTimeout > 0) periodically scans the
// in-flight list for requests outstanding longer than RequestTimeout:
// each is counted once in hpbd.timeouts and triggers one flight-recorder
// dump, so a wedged server leaves the last N request records in the log.
// Without recovery it only reads the virtual clock, so arming it does not
// change request timing; with recovery it also cancels each overdue sent
// request and re-routes it, so a wedged server cannot wedge the device.
// A cancelled request leaves a zombie in its slot; a link whose window
// is all zombies, each on the wire for the retry budget, fails: no send
// could reach its server again to find out whether it is there.
func (d *Device) watchdog(p *sim.Proc) {
	period := d.cfg.RequestTimeout / 2
	if period <= 0 {
		period = d.cfg.RequestTimeout
	}
	for {
		// Park event-free while nothing is in flight (or the device is
		// dead): a sleeping loop would keep the event queue non-empty for
		// ever and Env.Run would never drain. Every admission wakes it.
		for d.inflight.empty() || d.failed {
			d.inflight.wdQ.Wait(p)
		}
		p.Sleep(period)
		if d.failed {
			continue
		}
		now := p.Now()
		// The walk does not yield, and re-routing an entry settles nothing
		// else the list holds.
		for ph := range d.inflight.all() {
			age := now.Sub(ph.submitAt)
			if ph.timedOut || age < d.cfg.RequestTimeout {
				continue
			}
			ph.timedOut = true
			d.met.timeouts.Inc()
			d.lc.Flight().DumpOnEvent(fmt.Sprintf(
				"request timeout: handle=%d flow=%d server=%s age=%v",
				ph.handle, ph.flowID, ph.link.srv.Name(), age))
			if d.recovery() && ph.slot != nil {
				d.cancel(ph)
				d.rmet.cancels.Inc()
				d.tracer.InstantArgs(d.name, "timeout-cancel", map[string]any{
					"handle": ph.handle, "server": ph.link.srv.Name(),
				})
				d.retryOrRoute(ph)
			}
		}
		for _, link := range d.links {
			if d.recovery() && !link.down && link.wedged(now.Add(-d.cfg.RequestTimeout*sim.Duration(d.cfg.MaxRetries+1))) {
				d.failLink(link)
			}
		}
	}
}

// failLink declares one server connection dead: in-flight requests on it
// are requeued through retryOrRoute (which degrades them, since the link
// is down) and future Submits route around it. When every link is down
// and there is no fallback, the whole device fails. Idempotent — flushed
// completions from the closed QP funnel back here.
func (d *Device) failLink(link *serverLink) {
	if link.down || d.failed {
		return
	}
	link.down = true
	d.downLinks++
	d.rmet.linkFails.Inc()
	d.tracer.InstantArgs(d.name, "link-failed", map[string]any{"server": link.srv.Name()})
	d.lc.Flight().DumpOnEvent(fmt.Sprintf(
		"server %s lost: %d link(s) down, rerouting in-flight requests",
		link.srv.Name(), d.downLinks))
	link.qp.Close()
	if d.downLinks == len(d.links) && d.cfg.Fallback == nil {
		d.fail()
		return
	}
	// No reply will land on this link again: the requests holding its
	// slots are requeued and the whole window frees, zombies included.
	// Unsent queued requests are cleaned up by the sender on dequeue.
	for ph := range d.inflight.all() {
		if ph.link == link && ph.slot != nil {
			d.inflight.take(ph)
			link.release(ph.slot)
			d.retryOrRoute(ph)
		}
	}
	link.releaseAll()
}

// retryOrRoute decides what happens to a request that failed in flight:
// retry with exponential backoff on its own (live) link while attempts
// remain, otherwise degrade to the fallback driver / per-request error.
// The caller has already cancelled ph out of the in-flight table; its
// payload home is still held (a retry re-sends it).
func (d *Device) retryOrRoute(ph *phys) {
	if !ph.link.down && ph.attempt < d.cfg.MaxRetries {
		ph.attempt++
		d.rmet.retries.Inc()
		backoff := retryBackoff << uint(ph.attempt-1)
		d.tracer.InstantArgs(d.name, "retry", map[string]any{
			"handle": ph.handle, "attempt": ph.attempt, "backoff_us": backoff.Micros(),
		})
		// The fresh handle is taken now and enters the table only after
		// the backoff: in between the request is in nobody's scan, so only
		// the timer below can settle it and its record is live when it fires.
		d.inflight.stamp(ph)
		d.env.After(backoff, func() {
			if d.failed {
				ph.home.release(d, nil)
				d.finishPhys(ph, ErrDeviceFailed)
				return
			}
			if ph.link.down {
				d.routeDegraded(ph)
				return
			}
			d.inflight.enqueue(ph)
		})
		return
	}
	d.routeDegraded(ph)
}

// routeDegraded completes ph outside the RDMA path: through the fallback
// driver when it can absorb the request — any write, or a read of sectors
// it holds — otherwise with ErrServerLost (the authoritative copy died
// with the server; this is a single-copy device, and mirrored cluster
// configurations mask the loss at the RAID layer). A write's bytes are
// copied from wherever they live — the home, which is then released, or
// still the block layer's I/O buffers when staging never happened.
// Runs from proc or callback context; fallback I/O happens in a spawned
// process so no caller ever blocks on the fallback device.
func (d *Device) routeDegraded(ph *phys) {
	if ph.mig {
		// A migration transfer is never degraded to the fallback: the
		// engine observes the error and aborts the move, leaving the range
		// on its source. Nothing is lost; the move just did not happen.
		d.finishPhys(ph, ErrServerLost)
		return
	}
	fb := d.cfg.Fallback
	if fb == nil || !ph.write && !d.fallbackCovers(ph.devByte, ph.length) {
		ph.home.release(d, nil)
		d.finishDegraded(ph, ErrServerLost, ph.link.srv.Name())
		return
	}
	// The fallback request needs its payload in one piece that outlives
	// the home: the one contiguous copy left, and only on this fault path.
	data := make([]byte, ph.length)
	if ph.write && ph.home.staged() {
		copy(data, ph.home.bytes(d))
	} else if ph.write {
		ph.parent.req.Gather(data, ph.off)
	}
	ph.home.release(d, nil)
	op := "fallback-write"
	if !ph.write {
		op = "fallback-read"
	}
	d.rmet.fallbacks.Inc()
	d.tracer.InstantArgs(d.name, op, map[string]any{"bytes": ph.length})
	d.env.Go(d.name+"-"+op, func(p *sim.Proc) {
		fr := blockdev.NewRequest(d.env, ph.write, ph.devByte/blockdev.SectorSize, data)
		fb.Submit(p, fr)
		err := fr.Wait(p)
		if err == nil && ph.write {
			d.holdOnFallback(ph.devByte, ph.length)
		} else if err == nil {
			// The fallback driver scattered into data (the standalone
			// request's only IO buffer).
			ph.scatter(data)
		}
		d.finishDegraded(ph, err, "fallback")
	})
}

// holdOnFallback marks the sectors of [devByte, devByte+n) as living on
// the fallback device, making them readable through routeDegraded.
func (d *Device) holdOnFallback(devByte int64, n int) {
	for s := devByte / blockdev.SectorSize; s < (devByte+int64(n))/blockdev.SectorSize; s++ {
		d.fbHeld[s] = true
	}
}

// clearFallbackHold removes the fallback-authority marks for
// [devByte, devByte+n) after the range was successfully rewritten on a
// server.
func (d *Device) clearFallbackHold(devByte int64, n int) {
	if len(d.fbHeld) == 0 {
		return
	}
	for s := devByte / blockdev.SectorSize; s < (devByte+int64(n))/blockdev.SectorSize; s++ {
		delete(d.fbHeld, s)
	}
}

// fallbackCovers reports whether every sector of [devByte, devByte+n)
// has its authoritative copy on the fallback device.
func (d *Device) fallbackCovers(devByte int64, n int) bool {
	if d.fbHeld == nil {
		return false
	}
	for s := devByte / blockdev.SectorSize; s < (devByte+int64(n))/blockdev.SectorSize; s++ {
		if !d.fbHeld[s] {
			return false
		}
	}
	return true
}

// finishDegraded writes the degraded-path lifecycle records (stages still
// partition [Start, End] exactly: everything after dispatch is drain
// time) and completes the physical request. A carrier degrades as its
// constituents: one record each, then one fan-out.
func (d *Device) finishDegraded(ph *phys, err error, server string) {
	reqs := ph.subs
	if len(reqs) == 0 {
		reqs = []*phys{ph}
	}
	now := d.env.Now()
	for _, s := range reqs {
		rec := telemetry.ReqRecord{
			ID:      s.handle,
			Flow:    s.flowID,
			Write:   s.write,
			Err:     err != nil,
			Bytes:   s.length,
			Server:  server,
			Start:   s.blkAt,
			End:     now,
			Retries: uint8(min(ph.attempt, 255)),
		}
		rec.Stages[telemetry.StageQueue] = s.submitAt.Sub(s.blkAt)
		rec.Stages[telemetry.StageDrain] = now.Sub(s.submitAt)
		d.lc.Record(&rec)
	}
	d.finishPhys(ph, err)
}

// ExhaustPool implements the faultsim client fault surface: it grabs the
// entire registration pool for dur, so arriving requests stall on the
// allocator (and hybrid-path devices cut over to on-the-fly MRs). The
// allocations are returned in one burst when the window closes.
func (d *Device) ExhaustPool(dur sim.Duration) {
	var offs []int
	for {
		n := d.pool.LargestFree()
		if n <= 0 {
			break
		}
		off, err := d.pool.TryAlloc(n)
		if err != nil {
			break
		}
		offs = append(offs, off)
	}
	d.tracer.InstantArgs(d.name, "pool-exhaust", map[string]any{
		"grabbed": len(offs), "dur_us": dur.Micros(),
	})
	d.env.After(dur, func() {
		for _, off := range offs {
			d.pool.Free(off)
		}
	})
}

// fail moves the device to the failed state and errors out all pending
// requests (reliability handling, §4.1: RC excludes network loss, so a
// completion error means the peer is gone).
func (d *Device) fail() {
	if d.failed {
		return
	}
	d.failed = true
	d.lc.Flight().DumpOnEvent(fmt.Sprintf("device %s failed: %d requests pending", d.name, d.inflight.on(nil)))
	for ph := range d.inflight.all() {
		if ph.slot == nil {
			continue // the sender cleans up queued requests on dequeue
		}
		d.inflight.take(ph)
		ph.link.release(ph.slot)
		ph.home.release(d, nil)
		d.finishPhys(ph, ErrDeviceFailed)
	}
	// No reply matters any more: every window frees, zombies included.
	for _, link := range d.links {
		link.releaseAll()
	}
}
