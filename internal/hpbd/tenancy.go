package hpbd

import (
	"sort"

	"hpbd/internal/blockdev"
	"hpbd/internal/ib"
	"hpbd/internal/placement"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/tenant"
	"hpbd/internal/wire"
)

// Multi-tenancy (server side). With ServerConfig.Tenancy set the server
// enforces the spec's QoS contract at the paper's natural flow-control
// point — the receive window. A credit covers one request slot from the
// moment its receive buffer is posted until the reply leaves: arrival
// consumes the buffer and immediately tries to acquire a fresh credit
// for the replacement post; when the bank refuses, the slot is withheld
// (exactly the StarveRecv machinery) so the greedy tenant's effective
// window shrinks and its excess sends complete as RNR errors that its
// client retries with backoff. Replying releases the request's credit,
// and freed credits are granted to withheld slots in the bank's
// deterministic priority order. The issue worker takes requests from the
// byte-weighted fair queue instead of the paper path's work channel and
// moves them one quantum per grant (see serve), and per-tenant resident
// bytes are tracked page-granular for the quota
// admission check and cold-page reclaim.

// tenantPageBytes is the residency-accounting granule (one 4K page).
const tenantPageBytes = 4096

// tenantMetrics are one tenant's server-side metric handles, registered
// lazily at server creation only when tenancy is on (so tenancy-off
// output stays byte-identical).
type tenantMetrics struct {
	held         *telemetry.Gauge
	borrowed     *telemetry.Gauge
	schedWait    *telemetry.Histogram
	resident     *telemetry.Gauge
	evictions    *telemetry.Counter
	quotaRetries *telemetry.Counter
}

// srvTenancy is the server's tenancy state.
type srvTenancy struct {
	spec     *tenant.Spec
	bank     *tenant.CreditBank
	sched    *tenant.Sched[srvReq]
	met      map[string]*tenantMetrics // keyed access only, never iterated
	withheld map[string][]recvSlot     // per-tenant FIFO of withheld slots
	resident map[string]int64          // per-tenant resident bytes on this server
	bufs     []*ib.MR                  // per-request staging pool
	checkErr error
}

// tnInit builds the tenancy state for a validated spec. Flows, metrics
// and accounting are registered in spec (ID) order.
func (s *Server) tnInit() {
	spec := s.cfg.Tenancy
	tn := &srvTenancy{
		spec:     spec,
		bank:     tenant.NewCreditBank(spec),
		sched:    tenant.NewSched[srvReq](s.env, s.cfg.TenantFIFO),
		met:      make(map[string]*tenantMetrics, len(spec.Tenants)),
		withheld: make(map[string][]recvSlot, len(spec.Tenants)),
		resident: make(map[string]int64, len(spec.Tenants)),
	}
	for i := range spec.Tenants {
		t := &spec.Tenants[i]
		tn.sched.AddFlow(t.ID, t.Weight)
		prefix := s.name + ".tenant." + t.ID + "."
		tn.met[t.ID] = &tenantMetrics{
			held:         s.tel.Gauge(prefix + "credits_held"),
			borrowed:     s.tel.Gauge(prefix + "credits_borrowed"),
			schedWait:    s.tel.Histogram(prefix + "sched_wait"),
			resident:     s.tel.Gauge(prefix + "resident_bytes"),
			evictions:    s.tel.Counter(prefix + "evictions"),
			quotaRetries: s.tel.Counter(prefix + "quota_retries"),
		}
	}
	s.tn = tn
}

// tnCheck runs the bank's conservation check (the creditbalance
// analyzer's runtime twin) at every credit operation and scheduler tick,
// latching the first violation for TenancyCheck.
func (s *Server) tnCheck() {
	if s.tn.checkErr == nil {
		s.tn.checkErr = s.tn.bank.Check()
	}
}

// TenancyCheck returns the first credit-conservation violation the
// self-check observed (nil: invariant held at every tick so far).
func (s *Server) TenancyCheck() error {
	if s.tn == nil {
		return nil
	}
	return s.tn.checkErr
}

// tnGauges refreshes tenant id's credit gauges from the bank.
func (s *Server) tnGauges(id string) {
	m := s.tn.met[id]
	m.held.Set(int64(s.tn.bank.Held(id)))
	m.borrowed.Set(int64(s.tn.bank.Borrowed(id)))
}

// tnPostSlot reposts one receive buffer (its tenant already holds the
// credit). A post failure means the connection is torn down: the credit
// goes back to the bank.
func (s *Server) tnPostSlot(sl recvSlot) {
	if err := postSlot(sl); err != nil {
		s.tn.bank.Release(sl.conn.tenantID)
	}
}

// tnRepostOrWithhold is repost's tenancy arm: post the slot under a
// fresh credit when the tenant may hold one, otherwise withhold it until
// a release grants it. Buffer posts use the capped acquire — a posted
// buffer pins its credit until a request lands on it, which an idle
// tenant may never do, so only the revocable Grant path (one decision
// per release, with live demand in view) hands out beyond-cap pool
// credits.
func (s *Server) tnRepostOrWithhold(sl recvSlot) {
	id := sl.conn.tenantID
	if s.tn.bank.TryAcquireCapped(id) {
		s.tnCheck()
		s.tnPostSlot(sl)
	} else {
		s.tn.withheld[id] = append(s.tn.withheld[id], sl)
		s.tn.bank.Waitlist(id, 1)
	}
	s.tnGauges(id)
}

// tnGrantDrain hands freed credits to withheld slots in the bank's
// deterministic priority order until credits or demand run out.
func (s *Server) tnGrantDrain() {
	for {
		gid, ok := s.tn.bank.Grant()
		if !ok {
			return
		}
		s.tnCheck()
		// Shift rather than reslice, so the FIFO keeps its backing array.
		slots := s.tn.withheld[gid]
		sl := slots[0]
		copy(slots, slots[1:])
		s.tn.withheld[gid] = slots[:len(slots)-1]
		s.tnPostSlot(sl)
		s.tnGauges(gid)
	}
}

// release returns the credit an ended request held and re-grants (no-op
// without tenancy). An active starvation window suppresses granting
// (credits pile up free); repostStarved drains the backlog when the
// window lifts.
func (s *Server) release(conn *clientConn) {
	if s.tn == nil {
		return
	}
	id := conn.tenantID
	s.tn.bank.Release(id)
	s.tnCheck()
	s.tnGauges(id)
	if s.env.Now() < s.starveUntil {
		return
	}
	s.tnGrantDrain()
}

// tnPages returns the page span [first, last] a request covers within
// its connection's area.
func tnPages(req wire.Request) (int64, int64) {
	first := int64(req.Offset) / tenantPageBytes
	last := (int64(req.Offset) + int64(req.Length) - 1) / tenantPageBytes
	return first, last
}

// tnAdmitWrite is the quota admission check: a write that would grow
// the tenant's resident bytes past its quota is refused with RNR-style
// pushback (the client backs off and retries while reclaim makes room).
// The refusal kicks the connection's reclaim hook so the owning device
// starts demoting cold pages.
func (s *Server) tnAdmitWrite(conn *clientConn, req wire.Request) bool {
	t := s.tn.spec.Find(conn.tenantID)
	if t == nil || t.Quota <= 0 {
		return true
	}
	first, last := tnPages(req)
	var newBytes int64
	for pg := first; pg <= last; pg++ {
		if _, ok := conn.resident[pg]; !ok {
			newBytes += tenantPageBytes
		}
	}
	if newBytes == 0 || s.tn.resident[t.ID]+newBytes <= t.Quota {
		return true
	}
	s.tn.met[t.ID].quotaRetries.Inc()
	s.tracer.InstantArgs(s.name, "quota-retry", map[string]any{
		"tenant": t.ID, "resident": s.tn.resident[t.ID], "quota": t.Quota,
	})
	if conn.reclaimKick != nil {
		conn.reclaimKick()
	}
	return false
}

// pageHeat is one resident page's access stamps. Touch drives the
// coldness ranking (reads and writes both refresh it); write alone
// guards DiscardPage, so the reclaimer's own read-out of a victim page
// never disqualifies the eviction it is part of.
type pageHeat struct {
	touch sim.Time
	write sim.Time
}

// tnMarkWrite records a completed write's pages as resident (and hot).
func (s *Server) tnMarkWrite(conn *clientConn, req wire.Request) {
	now := s.env.Now()
	first, last := tnPages(req)
	id := conn.tenantID
	for pg := first; pg <= last; pg++ {
		if _, ok := conn.resident[pg]; !ok {
			s.tn.resident[id] += tenantPageBytes
		}
		conn.resident[pg] = pageHeat{touch: now, write: now}
	}
	s.tn.met[id].resident.Set(s.tn.resident[id])
}

// tnTouchRead refreshes the heat of a read's resident pages so reclaim
// keeps demoting genuinely cold data. The write stamp is untouched: a
// read never makes the server copy newer than a sampled fallback copy.
func (s *Server) tnTouchRead(conn *clientConn, req wire.Request) {
	now := s.env.Now()
	first, last := tnPages(req)
	for pg := first; pg <= last; pg++ {
		if h, ok := conn.resident[pg]; ok {
			h.touch = now
			conn.resident[pg] = h
		}
	}
}

// tenantQuantum is the fair queue's issue quantum in bytes: a request
// larger than one quantum moves one quantum per scheduler grant, so a
// small request never waits behind more than one quantum of a neighbor's
// bulk transfer on the wire. 16 KB keeps that wait near the small
// request's own service time while holding per-grant posting overhead to
// a few percent of a 128 KB transfer.
const tenantQuantum = 16 * 1024

// ColdPage is one resident page with its last-touch time, the token the
// client's reclaimer passes back to DiscardPage so a racing fresh write
// is never discarded.
type ColdPage struct {
	Page int64 // page index within the connection's area
	Last sim.Time
}

// ColdestPages returns up to maxBytes of the connection's coldest
// resident pages, coldest first (ties by page index, never map order).
func (s *Server) ColdestPages(qp *ib.QP, maxBytes int64) []ColdPage {
	conn := s.conns[qp]
	if conn == nil || s.tn == nil {
		return nil
	}
	pages := make([]ColdPage, 0, len(conn.resident))
	for pg, h := range conn.resident {
		pages = append(pages, ColdPage{Page: pg, Last: h.touch})
	}
	sort.Slice(pages, func(i, j int) bool {
		if pages[i].Last != pages[j].Last {
			return pages[i].Last < pages[j].Last
		}
		return pages[i].Page < pages[j].Page
	})
	if n := int((maxBytes + tenantPageBytes - 1) / tenantPageBytes); n < len(pages) {
		pages = pages[:n]
	}
	return pages
}

// DiscardPage drops one evicted page from the residency accounting,
// but only if it has not been rewritten since the reclaimer sampled it
// (its write stamp must not postdate cp.Last). Reads in the window —
// including the reclaimer's own copy-out — do not disqualify; a false
// return tells the reclaimer the server copy is newer and its fallback
// hold must be dropped.
func (s *Server) DiscardPage(qp *ib.QP, cp ColdPage) bool {
	conn := s.conns[qp]
	if conn == nil || s.tn == nil {
		return false
	}
	h, ok := conn.resident[cp.Page]
	if !ok || h.write > cp.Last {
		return false
	}
	delete(conn.resident, cp.Page)
	id := conn.tenantID
	s.tn.resident[id] -= tenantPageBytes
	s.tn.met[id].resident.Set(s.tn.resident[id])
	s.tn.met[id].evictions.Inc()
	return true
}

// ForgetRange drops the residency accounting of every page that
// [areaOff, areaOff+bytes) of the connection's area touches, after a
// migration moved that range off this server: the bytes are no longer the
// tenant's working set here, and nothing was evicted. No-op without
// tenancy.
func (s *Server) ForgetRange(qp *ib.QP, areaOff, bytes int64) {
	conn := s.conns[qp]
	if conn == nil || s.tn == nil {
		return
	}
	id := conn.tenantID
	for pg := areaOff / tenantPageBytes; pg <= (areaOff+bytes-1)/tenantPageBytes; pg++ {
		if _, ok := conn.resident[pg]; ok {
			delete(conn.resident, pg)
			s.tn.resident[id] -= tenantPageBytes
		}
	}
	s.tn.met[id].resident.Set(s.tn.resident[id])
}

// TenantResident returns the connection's tenant's resident bytes on
// this server.
func (s *Server) TenantResident(qp *ib.QP) int64 {
	conn := s.conns[qp]
	if conn == nil || s.tn == nil {
		return 0
	}
	return s.tn.resident[conn.tenantID]
}

// TenantQuota returns the connection's tenant's quota (0: unlimited).
func (s *Server) TenantQuota(qp *ib.QP) int64 {
	conn := s.conns[qp]
	if conn == nil || s.tn == nil {
		return 0
	}
	if t := s.tn.spec.Find(conn.tenantID); t != nil {
		return t.Quota
	}
	return 0
}

// TenantStat is one tenant's server-side QoS snapshot (hpbdctl tenants).
type TenantStat struct {
	ID       string
	Weight   int
	Reserved int
	Quota    int64

	Held     int // credits currently held
	Borrowed int // of which borrowed from the pool
	Waiting  int // withheld request slots

	SchedReqs  int64 // requests issued by the fair queue
	SchedBytes int64 // bytes issued by the fair queue
	Queued     int   // currently backlogged in the queue
	SchedP99   sim.Duration

	Resident     int64
	Evictions    int64
	QuotaRetries int64
}

// TenantStats snapshots every tenant in spec order (nil without tenancy).
func (s *Server) TenantStats() []TenantStat {
	if s.tn == nil {
		return nil
	}
	flows := s.tn.sched.FlowStats()
	out := make([]TenantStat, 0, len(flows))
	for _, f := range flows {
		t := s.tn.spec.Find(f.ID)
		m := s.tn.met[f.ID]
		out = append(out, TenantStat{
			ID:           f.ID,
			Weight:       t.Weight,
			Reserved:     t.Reserved,
			Quota:        t.Quota,
			Held:         s.tn.bank.Held(f.ID),
			Borrowed:     s.tn.bank.Borrowed(f.ID),
			Waiting:      s.tn.bank.Waiting(f.ID),
			SchedReqs:    f.Reqs,
			SchedBytes:   f.Bytes,
			Queued:       f.Queued,
			SchedP99:     m.schedWait.Quantile(0.99),
			Resident:     s.tn.resident[f.ID],
			Evictions:    m.evictions.Value(),
			QuotaRetries: m.quotaRetries.Value(),
		})
	}
	return out
}

// Multi-tenancy (client side). A device created with ClientConfig.Tenant
// presents that identity at attach; when it also has a fallback disk, a
// reclaimer process parks until a quota refusal kicks it, then demotes
// the server's coldest pages of this tenant to the fallback (read the
// page through the normal request path, absorb it on the fallback disk,
// mark the sectors fallback-held — PR 5's hold machinery — and discard
// the server copy), restoring headroom so the backed-off writes admit.

// reclaimHeadroom is how far below quota reclaim drives residency: one
// full-size request of room, so a refused 128K burst admits after one
// pass.
const reclaimHeadroom = int64(blockdev.MaxRequestBytes)

// reclaimer is the device's demotion daemon. It parks event-free while
// quota pressure is absent (a sleeping loop would keep Env.Run from
// draining) and runs passes while it makes progress.
func (d *Device) reclaimer(p *sim.Proc) {
	for {
		d.reclaimQ.Wait(p)
		for d.reclaimPass(p) {
		}
	}
}

// reclaimPass demotes cold pages on every over-quota link once,
// returning whether it evicted anything.
func (d *Device) reclaimPass(p *sim.Proc) bool {
	progress := false
	for id, link := range d.links {
		if link.down || link.srv.Crashed() {
			continue
		}
		quota := link.srv.TenantQuota(link.srvQP)
		res := link.srv.TenantResident(link.srvQP)
		if quota <= 0 || res+reclaimHeadroom <= quota {
			continue
		}
		target := res + reclaimHeadroom - quota
		for _, cp := range link.srv.ColdestPages(link.srvQP, target) {
			if d.demotePage(p, id, cp) {
				progress = true
			}
		}
	}
	return progress
}

// demotePage moves one cold page to the fallback disk: server read,
// fallback write, hold, then a guarded discard of the server copy. If a
// fresh write raced the demotion the discard refuses and the hold is
// dropped — the server copy stays authoritative. The page is addressed
// through the placement directory like any request: one whose area bytes
// no committed range maps as a whole (space a move still in progress has
// reserved, or a page straddling two ranges) is skipped, never discarded.
func (d *Device) demotePage(p *sim.Proc, id int, cp ColdPage) bool {
	link := d.links[id]
	sector, ok := d.dir.SectorAt(id, cp.Page*tenantPageBytes)
	devByte := sector * blockdev.SectorSize
	var segs [2]placement.Segment
	if !ok || len(d.dir.SplitInto(segs[:0], devByte, tenantPageBytes)) != 1 {
		return false
	}
	buf := make([]byte, tenantPageBytes)
	r := blockdev.NewRequest(d.env, false, sector, buf)
	d.Submit(p, r)
	if err := r.Wait(p); err != nil {
		return false
	}
	fr := blockdev.NewRequest(d.env, true, sector, buf)
	d.cfg.Fallback.Submit(p, fr)
	if err := fr.Wait(p); err != nil {
		return false
	}
	d.holdOnFallback(devByte, tenantPageBytes)
	if !link.srv.DiscardPage(link.srvQP, cp) {
		d.clearFallbackHold(devByte, tenantPageBytes)
		return false
	}
	d.tracer.InstantArgs(d.name, "demote", map[string]any{
		"server": link.srv.Name(), "page": cp.Page, "bytes": tenantPageBytes,
	})
	return true
}
