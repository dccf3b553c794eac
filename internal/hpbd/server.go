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

// srvReq is one grant queued for a worker. A request's first grant
// carries the decoded request and the status it was refused with at
// receive (StatusOK if none); a later grant carries only its serve record.
type srvReq struct {
	conn *clientConn
	req  wire.Request
	st   wire.Status
	rec  *serveRec
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
	tn        *srvTenancy          // nil without cfg.Tenancy
	work      *sim.Chan[srvReq]    // the paper path's worker queue
	storeQ    *sim.Chan[*serveRec] // feeds the store procs (tenancy only)
	recs      []*serveRec          // free serve records
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
	// The spec sets the serve path's three values (see serve). Without
	// one: serverWorkers workers, whole requests, store ops inline. With
	// one: a single worker, since the fair queue can only bound a small
	// tenant's wait if one grant means one transfer in flight; quantum
	// grants; a store proc per provisioned credit. Every buffer is
	// registered here, at set-up.
	workers, recs := serverWorkers, serverWorkers
	if s.tn != nil {
		workers, recs = 1, cfg.Tenancy.Provisioned()
		s.storeQ = sim.NewChan[*serveRec](env, 0)
	}
	s.recs = make([]*serveRec, 0, recs)
	for i := 0; i < recs; i++ {
		s.recs = append(s.recs, &serveRec{staging: hca.RegisterMRAtSetup(make([]byte, cfg.StagingBytes))})
	}
	for i := 0; i < workers; i++ {
		w := &worker{
			name:    fmt.Sprintf("%s-worker%d", name, i),
			replyMR: hca.RegisterMRAtSetup(make([]byte, wire.ReplySize)),
		}
		env.Go(w.name, func(p *sim.Proc) { s.worker(p, w) })
	}
	for i := 0; s.storeQ != nil && i < recs; i++ {
		replyMR := hca.RegisterMRAtSetup(make([]byte, wire.ReplySize))
		env.Go(fmt.Sprintf("%s-store%d", name, i), func(p *sim.Proc) { s.storer(p, replyMR) })
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
	// A message that does not decode still takes the worker queue: a
	// worker answers it StatusBadRequest, as it does a wire.Check refusal.
	it := srvReq{conn: conn, req: req}
	if err != nil {
		it.st = wire.StatusBadRequest
	} else {
		s.met.requests.Inc()
	}
	if s.tn != nil {
		// The fair queue never blocks the receive loop. Every grant is
		// charged the bytes it moves over the wire, so a flow's virtual
		// time advances by exactly its payload: a write's first grant moves
		// its first chunk, a read's only hands its store op to a store proc.
		bytes := 0
		if req.Type != wire.ReqRead {
			bytes = s.chunk(int(req.Length), 0)
		}
		s.tn.sched.Push(conn.tenantID, bytes, s.env.Now(), it)
		return
	}
	s.work.Send(p, it)
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

// srvStamp is the lifecycle bookkeeping a request carries to its reply:
// start anchors the server's interior split of the request and copyNs
// accumulates the local memcpy share.
type srvStamp struct {
	start  sim.Time
	copyNs sim.Duration
}

// reply publishes the request's server stamp and sends its reply through
// the caller's pre-registered reply buffer (solicited, so the client's
// armed event handler fires and wakes its receiver thread). The stamp lets
// the client's breakdown attribute send / rdma / server-copy / reply
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
	wire.MarshalReply(replyMR.Buf, &wire.Reply{Handle: handle, Status: st})
	_ = conn.qp.PostSend(p, ib.SendWR{
		Op:        ib.OpSend,
		Local:     ib.Segment{MR: replyMR, Len: wire.ReplySize},
		Solicited: true,
	})
}

// worker is what an issue worker owns and reuses for every request: its
// trace track, its reply buffer and the completion event of its one
// outstanding RDMA.
type worker struct {
	name     string
	replyMR  *ib.MR
	rdmaDone sim.Event
}

// serveRec is one request in service, from its first grant to its reply:
// the staging buffer it keeps across grants, how many payload bytes have
// moved, the store op's outcome, and the lifecycle bookkeeping published
// with the reply. Records come off Server.recs, sized at set-up, and go
// back zeroed with their staging buffer.
type serveRec struct {
	conn    *clientConn
	req     wire.Request
	staging *ib.MR
	done    int
	st      wire.Status
	stamp   srvStamp
	flow    uint64
}

func (s *Server) getRec() *serveRec {
	n := len(s.recs) - 1
	r := s.recs[n]
	s.recs = s.recs[:n]
	return r
}

func (s *Server) putRec(r *serveRec) {
	*r = serveRec{staging: r.staging}
	s.recs = append(s.recs, r)
}

// chunk is the next grant's payload for a request of n bytes with done
// moved: the rest of it on the paper path and under TenantFIFO (the
// control arm), at most tenantQuantum under the fair queue.
func (s *Server) chunk(n, done int) int {
	q := s.cfg.StagingBytes
	if s.tn != nil && !s.cfg.TenantFIFO {
		q = min(q, tenantQuantum)
	}
	return min(n-done, q)
}

// next takes the next grant for a worker: from the work channel on the
// paper path, from the fair queue under tenancy, where a request's
// first grant also observes its queueing delay.
func (s *Server) next(p *sim.Proc) (srvReq, bool) {
	if s.tn == nil {
		return s.work.Recv(p)
	}
	it, pushAt, ok := s.tn.sched.Pop(p)
	if ok {
		s.tnCheck()
		if it.rec == nil {
			s.tn.met[it.conn.tenantID].schedWait.Observe(p.Now().Sub(pushAt))
		}
	}
	return it, ok
}

func (s *Server) worker(p *sim.Proc, w *worker) {
	for it, ok := s.next(p); ok; it, ok = s.next(p) {
		s.serve(p, w, it)
	}
}

// serve moves one grant of a request on worker w. The first grant
// validates the request and takes its serve record; a read then runs its
// store op. Each grant moves at most one quantum over the wire, and a
// request with bytes left re-enters the fair queue. A write's store op
// runs once its payload is staged, and the request ends with its reply.
//
// The store op runs where storeStage puts it: inline on the paper path, so
// the four workers overlap RDMA with the copy (§4.2.1); on a store proc
// under tenancy, so the single issue worker never sits in a store op and
// a small request waits at most one quantum of wire time behind a
// neighbor's bulk transfer.
func (s *Server) serve(p *sim.Proc, w *worker, it srvReq) {
	r := it.rec
	if r == nil {
		if r = s.begin(p, w, it); r == nil {
			return
		}
		if r.req.Type == wire.ReqRead && !s.storeStage(p, w, r) {
			return
		}
	}
	if r.st != wire.StatusOK { // a read whose store op failed
		s.finish(p, w.replyMR, r, r.st)
		return
	}
	n := int(r.req.Length)
	chunk := s.chunk(n, r.done)
	op, what := ib.OpRDMARead, "rdma-read" // swap-out: pull the page data
	if r.req.Type == wire.ReqRead {
		op, what = ib.OpRDMAWrite, "rdma-write" // swap-in: push it
	}
	span := s.tracer.Begin(w.name, what)
	err := s.postRDMA(p, r.conn, &w.rdmaDone, op,
		ib.Segment{MR: r.staging, Off: r.done, Len: chunk}, r.req.RKey, int(r.req.Addr)+r.done, r.flow)
	if err != nil {
		s.finish(p, w.replyMR, r, wire.StatusServerError)
		return
	}
	w.rdmaDone.Wait(p)
	if chunk == n {
		span.EndBytes(n)
	} else if s.tracer != nil {
		span.EndArgs(map[string]any{"bytes": chunk, "done": r.done})
	}
	if r.conn.qp.Closed() {
		s.drop(r)
		return
	}
	r.done += chunk
	if r.done < n {
		s.tn.sched.Push(r.conn.tenantID, s.chunk(n, r.done), p.Now(), srvReq{rec: r})
		return
	}
	if r.req.Type == wire.ReqRead {
		s.met.reads.Inc()
		s.met.bytesServed.Add(int64(n))
		if s.tn != nil {
			s.tnTouchRead(r.conn, r.req)
		}
		s.finish(p, w.replyMR, r, wire.StatusOK)
		return
	}
	if s.storeStage(p, w, r) {
		s.written(p, w.replyMR, r)
	}
}

// begin opens a request's first grant: the client's flow continues on
// the worker's track, a request refused at receive, by the protocol's
// rulebook (its length bounded by the staging buffer) or, under tenancy,
// by quota admission is answered on the worker's reply buffer, and any
// other takes a serve record.
func (s *Server) begin(p *sim.Proc, w *worker, it srvReq) *serveRec {
	stamp := srvStamp{start: p.Now()}
	flow, hasFlow := s.lifecycle().TakeFlow(it.req.Handle)
	if hasFlow {
		s.tracer.FlowStep(w.name, "req", flow)
	}
	st := it.st
	if st == wire.StatusOK {
		st = wire.Check(it.req, uint64(it.conn.areaSize), s.cfg.StagingBytes)
	}
	if st != wire.StatusOK {
		s.met.badRequests.Inc()
	} else if s.tn != nil && it.req.Type == wire.ReqWrite && !s.tnAdmitWrite(it.conn, it.req) {
		// Over-quota growth is refused before any RDMA is issued; the
		// client's recovery path backs off and retries.
		st = wire.StatusRetry
	}
	if st != wire.StatusOK {
		s.reply(p, it.conn, w.replyMR, it.req.Handle, stamp, st)
		s.release(it.conn)
		return nil
	}
	r := s.getRec()
	r.conn, r.req, r.stamp, r.flow = it.conn, it.req, stamp, flow
	return r
}

// storeStage runs r's store op. On the paper path it runs inline and
// reports true: the worker carries on with the request. Under tenancy it
// hands r to a store proc and reports false.
func (s *Server) storeStage(p *sim.Proc, w *worker, r *serveRec) bool {
	if s.storeQ != nil {
		s.storeQ.Send(p, r)
		return false
	}
	s.storeOp(p, w.name, r)
	return true
}

// storer is a store proc: it runs the store op of every record it is
// handed, then answers a write on its own reply buffer or puts a staged
// read back in the fair queue for its RDMA grants. NewServer starts one
// per provisioned credit, and every request in service holds a credit, so
// a record never waits for a store proc.
func (s *Server) storer(p *sim.Proc, replyMR *ib.MR) {
	track := s.name + "-store"
	for r, ok := s.storeQ.Recv(p); ok; r, ok = s.storeQ.Recv(p) {
		s.storeOp(p, track, r)
		if r.req.Type == wire.ReqWrite {
			s.written(p, replyMR, r)
			continue
		}
		s.tn.sched.Push(r.conn.tenantID, s.chunk(int(r.req.Length), 0), p.Now(), srvReq{rec: r})
	}
}

// storeOp moves r's payload between its staging buffer and the store on
// track, accounting the copy in r's stamp and a failure in r.st.
func (s *Server) storeOp(p *sim.Proc, track string, r *serveRec) {
	n := int(r.req.Length)
	what, op := "store-read", s.store.ReadAt
	if r.req.Type == wire.ReqWrite {
		what, op = "store-write", s.store.WriteAt
	}
	span := s.tracer.Begin(track, what)
	copyStart := p.Now()
	err := op(p, r.staging.Buf[:n], r.conn.areaOff+int64(r.req.Offset))
	r.stamp.copyNs += p.Now().Sub(copyStart)
	span.EndBytes(n)
	if err != nil {
		r.st = wire.StatusServerError
	}
}

// written answers a write whose store op has run. A store proc that
// outlived the connection has no one to answer.
func (s *Server) written(p *sim.Proc, replyMR *ib.MR, r *serveRec) {
	if r.st == wire.StatusOK {
		s.met.writes.Inc()
		s.met.bytesStored.Add(int64(r.req.Length))
		if s.tn != nil {
			s.tnMarkWrite(r.conn, r.req)
		}
	}
	if s.tn != nil && r.conn.qp.Closed() {
		s.drop(r)
		return
	}
	s.finish(p, replyMR, r, r.st)
}

// finish answers r with st on replyMR and ends it.
func (s *Server) finish(p *sim.Proc, replyMR *ib.MR, r *serveRec, st wire.Status) {
	conn, handle, stamp := r.conn, r.req.Handle, r.stamp
	s.putRec(r)
	s.reply(p, conn, replyMR, handle, stamp, st)
	s.release(conn)
}

// drop ends r unanswered: its connection closed under it.
func (s *Server) drop(r *serveRec) {
	conn := r.conn
	s.putRec(r)
	s.release(conn)
}
