package hpbd

import (
	"fmt"
	"sort"

	"hpbd/internal/ib"
	"hpbd/internal/netmodel"
	"hpbd/internal/placement"
	"hpbd/internal/ramdisk"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/tenant"
	"hpbd/internal/wire"
)

// ServerConfig parameterizes a memory server.
type ServerConfig struct {
	// StoreBytes is the total RamDisk capacity exported to clients.
	StoreBytes int64
	// StagingBytes is the size of each staging buffer (>= the largest
	// request, 128 KB).
	StagingBytes int
	// StoreOpOverhead is the per-request cost of reaching the RamDisk
	// store through its file-system interface (the paper's server
	// manipulates RamDisk-based files).
	StoreOpOverhead sim.Duration
	// Host carries wakeup costs.
	Host netmodel.HostModel
	// DoorbellBatch, when > 1, routes workers' RDMA posts through a
	// dedicated issuer process that drains up to this many queued
	// operations and posts each connection's share as one chained
	// doorbell (mirroring the client sender's batching). <= 1 keeps the
	// per-operation posts of the paper's design.
	DoorbellBatch int
	// Telemetry, if non-nil, is the registry the server reports into
	// (metric names are prefixed with the server name); nil gives the
	// server a private registry so Stats() always works.
	Telemetry *telemetry.Registry

	// Tenancy, if non-nil, turns on multi-tenant QoS (see tenancy.go):
	// the receive window is credit-partitioned per tenant, a single issue
	// worker takes requests from the byte-weighted fair queue one quantum
	// at a time, and per-tenant quotas are admission-enforced. Nil (the
	// default) keeps the paper's single-tenant server.
	Tenancy *tenant.Spec
	// TenantFIFO replaces the fair queue with strict FIFO issue while
	// keeping every other tenancy mechanism — the isolation experiments'
	// control arm. Ignored without Tenancy.
	TenantFIFO bool
}

const (
	// serverWorkers is the number of concurrent request processors; each
	// owns one staging buffer, so it bounds outstanding RDMA operations
	// and provides the paper's RDMA/memcpy overlap.
	serverWorkers = 4
	// recvDepth is the number of request receive buffers pre-posted per
	// client connection; it must be >= the client's credit limit.
	recvDepth = 32
	// idleSpin is how long the server polls before yielding the CPU and
	// sleeping on a completion event (the paper: 200 us).
	idleSpin = 200 * sim.Microsecond
)

// DefaultServerConfig returns the paper's server configuration for a
// store of the given size.
func DefaultServerConfig(storeBytes int64) ServerConfig {
	return ServerConfig{
		StoreBytes:      storeBytes,
		StagingBytes:    128 * 1024,
		StoreOpOverhead: 80 * sim.Microsecond,
		Host:            netmodel.DefaultHost(),
	}
}

// ServerStats aggregates server activity. It is a snapshot assembled from
// the telemetry registry ("<name>." counters); Stats() is the
// compatibility accessor.
type ServerStats struct {
	Requests    int64
	Writes      int64
	Reads       int64
	BytesStored int64
	BytesServed int64
	BadRequests int64
	IdleSleeps  int64
	RDMAIssued  int64
	Doorbells   int64 // RDMA doorbells rung (== RDMAIssued unless batching)
}

// serverMetrics are the server's registry handles, resolved once at
// creation under the server's name prefix (per-server RDMA op counts are
// what the multiserver figures need).
type serverMetrics struct {
	requests    *telemetry.Counter
	writes      *telemetry.Counter
	reads       *telemetry.Counter
	bytesStored *telemetry.Counter
	bytesServed *telemetry.Counter
	badRequests *telemetry.Counter
	idleSleeps  *telemetry.Counter
	rdmaIssued  *telemetry.Counter
	doorbells   *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry, name string) serverMetrics {
	return serverMetrics{
		requests:    reg.Counter(name + ".requests"),
		writes:      reg.Counter(name + ".writes"),
		reads:       reg.Counter(name + ".reads"),
		bytesStored: reg.Counter(name + ".bytes_stored"),
		bytesServed: reg.Counter(name + ".bytes_served"),
		badRequests: reg.Counter(name + ".bad_requests"),
		idleSleeps:  reg.Counter(name + ".idle_sleeps"),
		rdmaIssued:  reg.Counter(name + ".rdma_issued"),
		doorbells:   reg.Counter(name + ".doorbells"),
	}
}

// srvReq is one request in flight inside the server. cont is non-nil on
// a quantum continuation: a partially transferred request re-queued by
// the fair scheduler between chunks (see tnServeQuantum).
type srvReq struct {
	conn *clientConn
	req  wire.Request
	cont *tnCont
}

// clientConn is the server-side state for one attached client.
type clientConn struct {
	qp       *ib.QP
	areaOff  int64
	areaSize int64
	recvMR   *ib.MR // recvDepth request buffers

	// Tenancy state (nil/zero without ServerConfig.Tenancy).
	tenantID    string
	resident    map[int64]pageHeat // page index -> touch/write stamps
	reclaimKick func()             // wakes the owning device's reclaimer
}

// Server is the user-space memory server daemon.
type Server struct {
	env    *sim.Env
	name   string
	cfg    ServerConfig
	hca    *ib.HCA
	reqCQ  *ib.CQ // receive completions (requests)
	dataCQ *ib.CQ // RDMA + reply-send completions
	store  *ramdisk.RamDisk

	conns     map[*ib.QP]*clientConn
	ledger    *placement.Ledger
	tn        *srvTenancy // nil without cfg.Tenancy
	work      *sim.Chan[srvReq]
	sleepQ    *sim.WaitQueue
	rdmaWaits map[uint64]*sim.Event
	nextWRID  uint64
	issueQ    *sim.Chan[rdmaIssue] // nil unless DoorbellBatch > 1
	tel       *telemetry.Registry
	met       serverMetrics
	tracer    *telemetry.Tracer
	lc        *telemetry.Lifecycle

	// Fault-injection state (driven by internal/faultsim).
	crashed     bool
	hangUntil   sim.Time
	starveUntil sim.Time
	starved     []recvSlot // receive buffers withheld during starvation
}

// recvSlot is one receive buffer of a connection's window (its work
// request ID is its slot index). The server holds one while its repost
// is withheld: by an active StarveRecv fault, or under tenancy until its
// tenant can hold another credit.
type recvSlot struct {
	conn *clientConn
	slot int
}

// NewServer creates a memory server on the fabric and starts its daemon
// processes.
func NewServer(f *ib.Fabric, name string, cfg ServerConfig) *Server {
	env := f.Env()
	hca := f.NewHCA(name)
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(env)
	}
	s := &Server{
		tel:       tel,
		met:       newServerMetrics(tel, name),
		tracer:    tel.Tracer(),
		env:       env,
		name:      name,
		cfg:       cfg,
		hca:       hca,
		reqCQ:     hca.CreateCQ(name + "-req"),
		dataCQ:    hca.CreateCQ(name + "-data"),
		store:     ramdisk.New(cfg.StoreBytes, f.Config().Mem),
		conns:     make(map[*ib.QP]*clientConn),
		ledger:    placement.NewLedger(cfg.StoreBytes),
		work:      sim.NewChan[srvReq](env, 0),
		sleepQ:    sim.NewWaitQueue(env),
		rdmaWaits: make(map[uint64]*sim.Event),
	}
	if cfg.Tenancy != nil {
		s.tnInit()
	}
	s.store.SetOpOverhead(cfg.StoreOpOverhead)
	s.reqCQ.SetEventHandler(func() { s.sleepQ.WakeAll() })
	s.dataCQ.SetSink(s.onDataCQE)
	env.Go(name+"-recv", s.recvLoop)
	if cfg.DoorbellBatch > 1 {
		s.issueQ = sim.NewChan[rdmaIssue](env, 0)
		env.Go(name+"-issuer", s.rdmaIssuer)
	}
	if s.tn != nil {
		// Tenancy issues through a single worker: the wire is the
		// contended resource, and the scheduler can only bound a small
		// tenant's wait if one grant means one transfer in flight. The
		// multi-worker RDMA/memcpy overlap is what the QoS contract
		// trades away.
		// The staging buffer travels with the request (tnCont.buf), not
		// the worker.
		wname := name + "-worker0"
		w := &workerBufs{replyMR: hca.RegisterMRAtSetup(make([]byte, wire.ReplySize))}
		env.Go(wname, func(p *sim.Proc) { s.tnWorker(p, wname, w) })
		return s
	}
	// Each worker's buffers are registered here, at device set-up, not
	// on its first request.
	for i := 0; i < serverWorkers; i++ {
		wname := fmt.Sprintf("%s-worker%d", name, i)
		w := &workerBufs{
			staging: hca.RegisterMRAtSetup(make([]byte, cfg.StagingBytes)),
			replyMR: hca.RegisterMRAtSetup(make([]byte, wire.ReplySize)),
		}
		env.Go(wname, func(p *sim.Proc) { s.worker(p, wname, w) })
	}
	return s
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Stats returns a snapshot of the server statistics, read back from the
// telemetry registry.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:    s.met.requests.Value(),
		Writes:      s.met.writes.Value(),
		Reads:       s.met.reads.Value(),
		BytesStored: s.met.bytesStored.Value(),
		BytesServed: s.met.bytesServed.Value(),
		BadRequests: s.met.badRequests.Value(),
		IdleSleeps:  s.met.idleSleeps.Value(),
		RDMAIssued:  s.met.rdmaIssued.Value(),
		Doorbells:   s.met.doorbells.Value(),
	}
}

// Telemetry returns the registry the server reports into.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// lifecycle lazily resolves the request-lifecycle analyzer on the server's
// registry. On a cluster node the registry is shared with the client
// device, which enables the analyzer, so server-side timing stamps reach
// the client's breakdown; a server on a private registry resolves nil and
// clients fall back to coarse flight-time attribution.
func (s *Server) lifecycle() *telemetry.Lifecycle {
	if s.lc == nil {
		s.lc = s.tel.Lifecycle()
	}
	return s.lc
}

// Store exposes the backing RamDisk (tests verify stored bytes through it).
func (s *Server) Store() *ramdisk.RamDisk { return s.store }

// FreeBytes returns unallocated store space.
func (s *Server) FreeBytes() int64 { return s.ledger.Free() }

// Ledger exposes the area ownership ledger (hpbdctl placement/tenants).
func (s *Server) Ledger() *placement.Ledger { return s.ledger }

// DropClients closes every client connection (server shutdown or crash):
// clients observe flushed completions and fail their devices.
func (s *Server) DropClients() {
	// Close in QP-number order: each Close flushes completions into the
	// owning client, so the order must not inherit map order.
	qps := make([]*ib.QP, 0, len(s.conns))
	for qp := range s.conns {
		qps = append(qps, qp)
	}
	sort.Slice(qps, func(i, j int) bool { return qps[i].QPN() < qps[j].QPN() })
	for _, qp := range qps {
		qp.Close()
	}
}

// Crash kills the server permanently: every client QP closes (posted
// receives flush into the clients) and subsequent attaches are refused.
// Idempotent, so a schedule may crash an already-crashed server.
func (s *Server) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.tracer.Instant(s.name, "crash")
	s.DropClients()
}

// Crashed reports whether the server has been crashed.
func (s *Server) Crashed() bool { return s.crashed }

// HangFor wedges the server for d of sim-time: requests keep being
// accepted and processed, but no reply leaves until the hang lifts.
// Overlapping hangs extend to the latest deadline.
func (s *Server) HangFor(d sim.Duration) {
	until := s.env.Now().Add(d)
	if until > s.hangUntil {
		s.hangUntil = until
	}
	s.tracer.InstantArgs(s.name, "hang", map[string]any{"dur_us": d.Micros()})
}

// StarveRecv stops receive-buffer reposting for d: arriving requests
// are still served, but their buffers are withheld, so the client's
// credit window drains and its senders stall on flow control.
func (s *Server) StarveRecv(d sim.Duration) {
	until := s.env.Now().Add(d)
	if until > s.starveUntil {
		s.starveUntil = until
	}
	s.tracer.InstantArgs(s.name, "starve-recv", map[string]any{"dur_us": d.Micros()})
	s.env.After(d, s.repostStarved)
}

// repostStarved returns withheld receive buffers once the starvation
// window has passed (a later StarveRecv extends the window; the earlier
// callback then finds it still active and leaves the work to the later
// one). Reposts happen in withholding order, never map order. Under
// tenancy each slot re-enters through the credit bank, then the free
// credits that piled up during the window drain to the withheld demand.
func (s *Server) repostStarved() {
	if s.env.Now() < s.starveUntil {
		return
	}
	starved := s.starved
	s.starved = nil
	for _, sl := range starved {
		if sl.conn.qp.Closed() {
			continue
		}
		_ = s.repost(sl) // a post error means the connection is gone
	}
	if s.tn != nil {
		s.tnGrantDrain()
	}
}

// postSlot posts one receive buffer of a connection's window.
func postSlot(sl recvSlot) error {
	return sl.conn.qp.PostRecv(ib.RecvWR{
		ID:    uint64(sl.slot),
		Local: ib.Segment{MR: sl.conn.recvMR, Off: sl.slot * wire.RequestSize, Len: wire.RequestSize},
	})
}

// repost decides a free receive slot's fate, for handleRecvCQE,
// repostStarved and a tenancy attach. An active StarveRecv fault stashes
// it until the window lifts. Tenancy routes it through the credit bank
// (posted under a fresh credit or withheld; a failed post returns the
// credit, so there is no error to report). Otherwise it is posted, and a
// post error means the connection is torn down.
func (s *Server) repost(sl recvSlot) error {
	if s.env.Now() < s.starveUntil {
		s.starved = append(s.starved, sl)
		return nil
	}
	if s.tn != nil {
		s.tnRepostOrWithhold(sl)
		return nil
	}
	return postSlot(sl)
}

// attach allocates an area of size bytes for a client and wires a QP; it
// is called by the client's newLink (standing in for the paper's
// socket-based QP information exchange). tenantID names the owner in the
// area ledger; under tenancy it must appear in the QoS spec, and the
// connection's receive window is posted under that tenant's credits (slots
// its share cannot cover are withheld until the bank grants them).
func (s *Server) attach(clientQP *ib.QP, size int64, tenantID string, reclaimKick func()) (*ib.QP, error) {
	if s.crashed {
		return nil, fmt.Errorf("hpbd: server %s is down", s.name)
	}
	if s.tn != nil && s.tn.spec.Find(tenantID) == nil {
		return nil, fmt.Errorf("hpbd: server %s has no tenant %q in its QoS spec", s.name, tenantID)
	}
	if size > s.ledger.Free() {
		return nil, fmt.Errorf("hpbd: server %s cannot export %d bytes (%d free)", s.name, size, s.FreeBytes())
	}
	off, err := s.ledger.Allocate(tenantID, size)
	if err != nil {
		return nil, err
	}
	qp := s.hca.CreateQP(s.dataCQ, s.reqCQ)
	ib.Connect(clientQP, qp)
	conn := &clientConn{
		qp:          qp,
		areaOff:     off,
		areaSize:    size,
		recvMR:      s.hca.RegisterMRAtSetup(make([]byte, recvDepth*wire.RequestSize)),
		tenantID:    tenantID,
		reclaimKick: reclaimKick,
	}
	s.conns[qp] = conn
	// The paper path posts a new connection's window outright: StarveRecv
	// withholds reposts, not first posts. Under tenancy the window enters
	// through repost like every later slot (credit bank, starve stash).
	post := postSlot
	if s.tn != nil {
		conn.resident = make(map[int64]pageHeat)
		post = s.repost
	}
	for i := 0; i < recvDepth; i++ {
		if err := post(recvSlot{conn: conn, slot: i}); err != nil {
			return nil, err
		}
	}
	return qp, nil
}

// recvLoop is the daemon's main thread: it drains request completions,
// reposts receive buffers, and feeds the worker pool. After idleSpin with
// no work it yields the CPU and sleeps until a completion event (§5).
func (s *Server) recvLoop(p *sim.Proc) {
	for {
		e, ok := s.reqCQ.WaitPollTimeout(p, idleSpin)
		if !ok {
			// Yield: arm the completion event and sleep.
			s.met.idleSleeps.Inc()
			s.tracer.Instant(s.name, "idle-sleep")
			s.reqCQ.ReqNotify(false)
			if e2, ok2 := s.reqCQ.Poll(); ok2 {
				e = e2
			} else {
				s.sleepQ.Wait(p)
				p.Sleep(s.cfg.Host.Wakeup)
				s.tracer.Instant(s.name, "wakeup")
				continue
			}
		}
		s.handleRecvCQE(p, e)
	}
}

func (s *Server) handleRecvCQE(p *sim.Proc, e ib.CQE) {
	if e.Op != ib.OpRecv {
		return
	}
	conn := s.conns[e.QP]
	if conn == nil || e.Status != ib.StatusSuccess {
		return
	}
	slot := int(e.WRID)
	buf := conn.recvMR.Buf[slot*wire.RequestSize : (slot+1)*wire.RequestSize]
	req, err := wire.UnmarshalRequest(buf)
	// Repost the receive buffer immediately; the request is decoded out.
	// Under an active receive-starvation fault the repost is withheld
	// instead (the request is still served), draining client credits.
	// Tenancy routes the repost through the credit bank: the arriving
	// request keeps the buffer's credit until its reply, and the
	// replacement buffer needs a credit of its own.
	if perr := s.repost(recvSlot{conn: conn, slot: slot}); perr != nil {
		return // connection torn down
	}
	if err != nil {
		s.met.badRequests.Inc()
		s.env.Go(s.name+"-nak", func(wp *sim.Proc) {
			nakMR := s.hca.RegisterMRAtSetup(make([]byte, wire.ReplySize))
			s.sendReply(wp, conn, nakMR, req.Handle, wire.StatusBadRequest)
			if s.tn != nil {
				s.tnRelease(conn)
			}
		})
		return
	}
	s.met.requests.Inc()
	if s.tn != nil {
		// The fair queue never blocks the receive loop; workers pop in
		// virtual-finish order. In quantum mode only the first wire
		// chunk's bytes are charged here — continuations charge their own.
		s.tn.sched.Push(conn.tenantID, s.tnDispatchBytes(req), s.env.Now(), srvReq{conn: conn, req: req})
		return
	}
	s.work.Send(p, srvReq{conn: conn, req: req})
}

// onDataCQE is the data CQ's sink: it demultiplexes RDMA completions to
// the waiting workers by work-request ID. A failed RDMA wakes its worker
// the same way; the worker re-checks QP state. Reply-send completions
// carry no registered waiter and are dropped here.
//
//hpbd:hotpath
func (s *Server) onDataCQE(e ib.CQE) {
	if ev, ok := s.rdmaWaits[e.WRID]; ok {
		delete(s.rdmaWaits, e.WRID)
		ev.Trigger()
	}
}

// rdmaIssue is one RDMA operation queued for the batching issuer.
type rdmaIssue struct {
	conn *clientConn
	wr   ib.SendWR
}

// postRDMA issues one RDMA op on conn's QP and re-arms done, the calling
// worker's own event (a worker has one RDMA outstanding at a time), to
// trigger on completion. With DoorbellBatch > 1 the op is handed to the
// issuer process, which chains adjacent ops per connection under a single
// doorbell; the completion event contract is identical either way.
//
//hpbd:hotpath
func (s *Server) postRDMA(p *sim.Proc, conn *clientConn, done *sim.Event, op ib.Opcode, local ib.Segment, remoteKey uint32, remoteOff int, flow uint64) error {
	s.nextWRID++
	id := s.nextWRID
	done.Reset()
	wr := ib.SendWR{
		ID:        id,
		Op:        op,
		Local:     local,
		RemoteKey: remoteKey,
		RemoteOff: remoteOff,
		Flow:      flow,
	}
	//hpbd:allow hotalloc -- the map holds one entry per worker with an RDMA outstanding; its buckets are reused
	s.rdmaWaits[id] = done
	if s.issueQ != nil {
		s.issueQ.Send(p, rdmaIssue{conn: conn, wr: wr})
		s.met.rdmaIssued.Inc()
		return nil
	}
	if err := conn.qp.PostSend(p, wr); err != nil {
		delete(s.rdmaWaits, id)
		return err
	}
	s.met.rdmaIssued.Inc()
	s.met.doorbells.Inc()
	return nil
}

// rdmaIssuer drains queued RDMA operations and rings one doorbell per
// connection's share of each batch (§4.2.1's issue path, batched). Order
// within a connection is the workers' enqueue order, and grouping walks
// the batch slice in first-appearance order — map iteration never decides
// what gets chained.
func (s *Server) rdmaIssuer(p *sim.Proc) {
	batch := make([]rdmaIssue, 0, s.cfg.DoorbellBatch)
	wrs := make([]ib.SendWR, 0, s.cfg.DoorbellBatch) // one connection's chain
	for {
		first, ok := s.issueQ.Recv(p)
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		for len(batch) < s.cfg.DoorbellBatch {
			it, more := s.issueQ.TryRecv()
			if !more {
				break
			}
			batch = append(batch, it)
		}
		for i := range batch {
			conn := batch[i].conn
			if conn == nil {
				continue // already chained with an earlier op
			}
			wrs = wrs[:0]
			for j := i; j < len(batch); j++ {
				if batch[j].conn == conn {
					wrs = append(wrs, batch[j].wr)
					batch[j].conn = nil
				}
			}
			if err := conn.qp.PostSendBatch(p, wrs); err != nil {
				// Wake every chained worker; each re-checks QP state.
				for _, wr := range wrs {
					if ev, waiting := s.rdmaWaits[wr.ID]; waiting {
						delete(s.rdmaWaits, wr.ID)
						ev.Trigger()
					}
				}
				continue
			}
			s.met.doorbells.Inc()
		}
	}
}

// sendReply posts the completion control message through the caller's
// pre-registered reply buffer (solicited, so the client's armed event
// handler fires and wakes its receiver thread).
func (s *Server) sendReply(p *sim.Proc, conn *clientConn, replyMR *ib.MR, handle uint64, st wire.Status) {
	wire.MarshalReply(replyMR.Buf, &wire.Reply{Handle: handle, Status: st})
	_ = conn.qp.PostSend(p, ib.SendWR{
		ID:        0,
		Op:        ib.OpSend,
		Local:     ib.Segment{MR: replyMR, Off: 0, Len: wire.ReplySize},
		Solicited: true,
	})
}

// srvStamp is the lifecycle bookkeeping a request carries to its reply:
// start anchors the server's interior split of the request and copyNs
// accumulates the local memcpy share.
type srvStamp struct {
	start  sim.Time
	copyNs sim.Duration
}

// reply publishes the request's server stamp and sends its reply, so the
// client's breakdown can attribute send / rdma / server-copy / reply
// exactly. An active hang fault wedges the reply (and its stamp) until
// the deadline; sleeping before StampServer keeps the client's exact
// stage partition intact — the hang shows up as server time, which is
// where it was actually spent.
func (s *Server) reply(p *sim.Proc, conn *clientConn, replyMR *ib.MR, handle uint64, stamp srvStamp, st wire.Status) {
	if s.hangUntil > p.Now() {
		p.Sleep(s.hangUntil.Sub(p.Now()))
	}
	s.lifecycle().StampServer(handle, telemetry.ServerStamp{
		Start: stamp.start, Reply: p.Now(), Copy: stamp.copyNs,
	})
	s.sendReply(p, conn, replyMR, handle, st)
}

// checkReq validates a request before any data moves: its length against
// the staging buffer, its range against the connection's area, and its
// type. It returns StatusOK or the status to refuse the request with.
func (s *Server) checkReq(conn *clientConn, req wire.Request) wire.Status {
	n := int(req.Length)
	if n <= 0 || n > s.cfg.StagingBytes ||
		req.Offset+uint64(n) > uint64(conn.areaSize) {
		return wire.StatusOutOfRange
	}
	if req.Type != wire.ReqWrite && req.Type != wire.ReqRead {
		return wire.StatusBadRequest
	}
	return wire.StatusOK
}

// worker processes requests with its own staging buffer, providing the
// multiple-outstanding-RDMA + memcpy overlap of §4.2.1. wname labels this
// worker's trace track so the overlap is visible across workers.
func (s *Server) worker(p *sim.Proc, wname string, w *workerBufs) {
	for {
		item, ok := s.work.Recv(p)
		if !ok {
			return
		}
		s.serveOne(p, wname, w, item)
	}
}

// workerBufs is what a worker owns and reuses for every request: its
// staging and reply buffers and the completion event of its one
// outstanding RDMA.
type workerBufs struct {
	staging, replyMR *ib.MR
	rdmaDone         sim.Event
}

// serveOne services a single request on the calling worker's buffers.
func (s *Server) serveOne(p *sim.Proc, wname string, w *workerBufs, item srvReq) {
	conn, req := item.conn, item.req
	staging, replyMR := w.staging, w.replyMR
	// Lifecycle instrumentation: the client's flow (linked by handle
	// through the shared registry) continues on this worker's trace
	// track, and stamp is published just before every reply.
	stamp := srvStamp{start: p.Now()}
	flow, hasFlow := s.lifecycle().TakeFlow(req.Handle)
	if hasFlow {
		s.tracer.FlowStep(wname, "req", flow)
	}
	if st := s.checkReq(conn, req); st != wire.StatusOK {
		s.met.badRequests.Inc()
		s.reply(p, conn, replyMR, req.Handle, stamp, st)
		return
	}
	n := int(req.Length)
	storeOff := conn.areaOff + int64(req.Offset)
	switch req.Type {
	case wire.ReqWrite:
		// Swap-out: pull the page data out of the client's pool.
		span := s.tracer.Begin(wname, "rdma-read")
		err := s.postRDMA(p, conn, &w.rdmaDone, ib.OpRDMARead,
			ib.Segment{MR: staging, Off: 0, Len: n}, req.RKey, int(req.Addr), flow)
		if err != nil {
			s.reply(p, conn, replyMR, req.Handle, stamp, wire.StatusServerError)
			return
		}
		w.rdmaDone.Wait(p)
		span.EndBytes(n)
		if conn.qp.Closed() {
			return
		}
		span = s.tracer.Begin(wname, "store-write")
		copyStart := p.Now()
		if err := s.store.WriteAt(p, staging.Buf[:n], storeOff); err != nil {
			stamp.copyNs = p.Now().Sub(copyStart)
			s.reply(p, conn, replyMR, req.Handle, stamp, wire.StatusServerError)
			return
		}
		stamp.copyNs = p.Now().Sub(copyStart)
		span.EndBytes(n)
		s.met.writes.Inc()
		s.met.bytesStored.Add(int64(n))
		s.reply(p, conn, replyMR, req.Handle, stamp, wire.StatusOK)

	case wire.ReqRead:
		// Swap-in: push stored data into the client's pool.
		span := s.tracer.Begin(wname, "store-read")
		copyStart := p.Now()
		if err := s.store.ReadAt(p, staging.Buf[:n], storeOff); err != nil {
			stamp.copyNs = p.Now().Sub(copyStart)
			s.reply(p, conn, replyMR, req.Handle, stamp, wire.StatusServerError)
			return
		}
		stamp.copyNs = p.Now().Sub(copyStart)
		span.EndBytes(n)
		span = s.tracer.Begin(wname, "rdma-write")
		err := s.postRDMA(p, conn, &w.rdmaDone, ib.OpRDMAWrite,
			ib.Segment{MR: staging, Off: 0, Len: n}, req.RKey, int(req.Addr), flow)
		if err != nil {
			s.reply(p, conn, replyMR, req.Handle, stamp, wire.StatusServerError)
			return
		}
		w.rdmaDone.Wait(p)
		span.EndBytes(n)
		if conn.qp.Closed() {
			return
		}
		s.met.reads.Inc()
		s.met.bytesServed.Add(int64(n))
		s.reply(p, conn, replyMR, req.Handle, stamp, wire.StatusOK)
	}
}
