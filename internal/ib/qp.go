package ib

import (
	"math/bits"

	"hpbd/internal/sim"
)

// Segment addresses a contiguous byte range within a registered region.
type Segment struct {
	MR  *MR
	Off int
	Len int
}

func (s Segment) valid() bool {
	return s.MR != nil && s.MR.valid && s.Off >= 0 && s.Len >= 0 && s.Off+s.Len <= len(s.MR.Buf)
}

func (s Segment) bytes() []byte { return s.MR.Buf[s.Off : s.Off+s.Len] }

// SendWR is a send-side work request: SEND, RDMA WRITE, or RDMA READ.
type SendWR struct {
	ID uint64
	Op Opcode
	// Local is the local gather segment (data source for SEND/RDMA WRITE,
	// destination for RDMA READ).
	Local Segment
	// RemoteKey/RemoteOff address the remote region for RDMA operations.
	RemoteKey uint32
	RemoteOff int
	// Solicited sets the solicited-event bit so the peer's armed
	// completion handler fires (SEND only).
	Solicited bool
	// Flow, when non-zero, threads the caller's causal flow id through the
	// fabric: the completion span carries it and a flow step is emitted on
	// the posting HCA's track (tracing only; no timing effect).
	Flow uint64
}

// RecvWR is a posted receive buffer.
type RecvWR struct {
	ID    uint64
	Local Segment
}

// QP is a reliably connected queue pair.
type QP struct {
	hca    *HCA
	qpn    uint32
	peer   *QP
	sendCQ *CQ
	recvCQ *CQ
	recvQ  sim.Ring[RecvWR]
	closed bool
}

// CreateQP creates a queue pair whose send and receive completions go to
// the given CQs (they may be the same CQ, as in the paper's client, which
// shares CQs across the QPs to all servers).
func (h *HCA) CreateQP(sendCQ, recvCQ *CQ) *QP {
	h.nextQPN++
	qp := &QP{hca: h, qpn: h.nextQPN, sendCQ: sendCQ, recvCQ: recvCQ}
	h.qps = append(h.qps, qp)
	return qp
}

// QPN returns the queue pair number, unique within the HCA. It is the
// stable identity callers sort on when draining QP collections (map
// iteration order must never reach a scheduling decision).
func (q *QP) QPN() uint32 { return q.qpn }

// Connect wires two queue pairs into the RC connected state. In the real
// system this is the out-of-band (socket) QP information exchange done at
// device initialization.
func Connect(a, b *QP) {
	a.peer = b
	b.peer = a
}

// HCA returns the adapter owning this QP.
func (q *QP) HCA() *HCA { return q.hca }

// Closed reports whether Close was called.
func (q *QP) Closed() bool { return q.closed }

// PostedRecvs returns the current receive queue depth.
func (q *QP) PostedRecvs() int { return q.recvQ.Len() }

// Close transitions the QP to the error state: posted receives flush with
// StatusFlushErr and subsequent operations fail.
func (q *QP) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for r, ok := q.recvQ.Pop(); ok; r, ok = q.recvQ.Pop() {
		q.recvCQ.push(CQE{WRID: r.ID, Op: OpRecv, Status: StatusFlushErr, QP: q})
	}
}

// PostRecv posts a receive buffer. Receives complete in FIFO order as
// SENDs arrive.
//
//hpbd:hotpath
func (q *QP) PostRecv(wr RecvWR) error {
	if q.closed {
		return ErrQPClosed
	}
	if !wr.Local.valid() {
		return ErrBadSegment
	}
	//hpbd:allow hotalloc -- the ring grows to the connection's receive depth, then stays
	q.recvQ.Push(wr)
	return nil
}

// PostSend posts a send-side work request, charging the calling process the
// per-WQE host cost. Completion is reported asynchronously on the send CQ.
func (q *QP) PostSend(p *sim.Proc, wr SendWR) error {
	if q.closed {
		return ErrQPClosed
	}
	if q.peer == nil {
		return ErrNotConnected
	}
	if !wr.Local.valid() {
		return ErrBadSegment
	}
	p.Sleep(q.hca.fabric.cfg.PerWQE)
	q.issue(wr)
	return nil
}

// PostSendBatch posts wrs as one chained work-request list rung with a
// single doorbell: the posting process is charged Config.PerDoorbell once
// (PerWQE when PerDoorbell is zero) instead of PerWQE per request, which
// is the host-overhead saving doorbell batching buys. The WRs issue in
// slice order and complete individually on the send CQ. Validation is
// atomic: on error nothing is issued.
func (q *QP) PostSendBatch(p *sim.Proc, wrs []SendWR) error {
	if len(wrs) == 0 {
		return nil
	}
	if q.closed {
		return ErrQPClosed
	}
	if q.peer == nil {
		return ErrNotConnected
	}
	for i := range wrs {
		if !wrs[i].Local.valid() {
			return ErrBadSegment
		}
	}
	d := q.hca.fabric.cfg.PerDoorbell
	if d <= 0 {
		d = q.hca.fabric.cfg.PerWQE
	}
	p.Sleep(d)
	for i := range wrs {
		q.issue(wrs[i])
	}
	return nil
}

// wrRec is one send-side work request in flight: what the fabric must
// remember between the post and the WR's last event. The gather segment
// is captured at post time (the model's stand-in for DMA gather: callers
// reuse their staging slots the moment PostSend returns) into payload,
// which the record keeps across uses; an RDMA READ captures the remote
// bytes there when the request reaches the responder. The four callbacks
// are bound once, when the record is created, so scheduling an event
// allocates nothing. A record returns to its fabric's free list when its
// last event has fired — the ack for SEND / RDMA WRITE (and for a WR the
// fault hook aborted), the landing or the error CQE for RDMA READ — and
// the list needs no lock: simulated code runs one goroutine at a time.
// Records are never shrunk or dropped, so an idle fabric holds at most
// its peak number of WRs in flight times the largest payload (rounded up
// to a power of two).
type wrRec struct {
	next    *wrRec // free-list link
	q, peer *QP    // the posting QP and its peer at post time
	wr      SendWR
	postAt  sim.Time
	payload []byte // payload[:wr.Local.Len] is the captured data; capacity is kept
	st      Status // what the ack reports: a NAK from deliver, or the fault hook's abort

	deliver, ack, readReq, readDone func()
}

// takeWR returns a record for wr posted on q now, with room for the
// payload. A free-list miss, or a payload larger than the record has
// carried before, allocates.
func (f *Fabric) takeWR(q *QP, wr SendWR, now sim.Time) *wrRec {
	r := f.freeWRs
	if r == nil {
		r = &wrRec{}
		r.deliver, r.ack, r.readReq, r.readDone = r.onDeliver, r.onAck, r.onReadReq, r.onReadDone
	} else {
		f.freeWRs, r.next = r.next, nil
	}
	r.q, r.peer, r.wr, r.postAt, r.st = q, q.peer, wr, now, StatusSuccess
	if n := wr.Local.Len; cap(r.payload) < n {
		r.payload = make([]byte, 1<<bits.Len(uint(n-1)))
	}
	return r
}

// putWR recycles r after its last event, dropping what it pins.
//
//hpbd:hotpath
func (f *Fabric) putWR(r *wrRec) {
	r.q, r.peer, r.wr = nil, nil, SendWR{}
	r.next, f.freeWRs = f.freeWRs, r
}

// issue runs the fabric timing model for wr and schedules its effects.
//
//hpbd:hotpath
func (q *QP) issue(wr SendWR) {
	f := q.hca.fabric
	env, cfg := f.env, &f.cfg
	src, dst := q.hca, q.peer.hca
	now := env.Now()
	//hpbd:allow hotalloc -- free-list miss: allocates until the list has grown to the peak WRs in flight
	r := f.takeWR(q, wr, now)
	n := wr.Local.Len

	// Fault injection point: every send-side WR passes through the hook
	// before any timing state mutates, so an aborted WR leaves the
	// egress/ingress serialization clocks untouched.
	var extra sim.Duration
	if h := f.fault; h != nil {
		extra, r.st = h.SendFault(src.name, wr.Op)
		if r.st != StatusSuccess {
			env.After(cfg.EventDelay+extra, r.ack)
			return
		}
	}

	switch wr.Op {
	case OpSend, OpRDMAWrite:
		copy(r.payload[:n], wr.Local.bytes())
		// QP context fetch penalties on both adapters, plus first-touch
		// fault service when the local gather buffer is an ODP region.
		start := now.Add(src.qpPenalty(q)).Add(extra).
			Add(f.odpDelay(wr.Local.MR, wr.Local.Off, n))
		egStart := maxTime(start, src.egressFree)
		egDone := egStart.Add(cfg.Link.BW.Over(n))
		src.egressFree = egDone
		inStart := maxTime(egStart.Add(cfg.Link.Prop), dst.ingressFree)
		inDone := inStart.Add(cfg.Link.BW.Over(n)).Add(dst.qpPenalty(q.peer))
		dst.ingressFree = inDone
		if wr.Op == OpRDMAWrite {
			// A cold remote ODP window stalls the responder's RDMA engine
			// while its fault resolves before the write can land.
			inDone = inDone.Add(f.odpDelay(dst.lookupMR(wr.RemoteKey), wr.RemoteOff, n))
			dst.ingressFree = inDone
		}
		env.After(inDone.Sub(now), r.deliver)
		// Sender completion when the RC ack returns.
		env.After(inDone.Add(cfg.Link.Prop).Sub(now), r.ack)

	case OpRDMARead:
		// Request travels to the responder, then data streams back. The
		// local destination faults in before the request leaves (the HCA
		// needs the sink resident to scatter the response).
		start := now.Add(src.qpPenalty(q)).Add(extra).
			Add(f.odpDelay(wr.Local.MR, wr.Local.Off, n))
		reqArrive := maxTime(start, src.egressFree).Add(cfg.Link.BW.Over(32)).Add(cfg.Link.Prop)
		env.After(reqArrive.Sub(now), r.readReq)
	}
}

// onDeliver lands a SEND / RDMA WRITE at the peer; the outcome rides the
// record to the ack.
//
//hpbd:hotpath
func (r *wrRec) onDeliver() { r.st = r.q.deliver(&r.wr, r.payload[:r.wr.Local.Len], r.peer) }

// onAck completes a SEND / RDMA WRITE at the sender when the RC ack
// returns, or reports a WR the fault hook aborted.
//
//hpbd:hotpath
func (r *wrRec) onAck() {
	st := r.st
	if st == StatusSuccess && r.peer.closed {
		st = StatusFlushErr
	}
	r.complete(st)
}

// onReadReq runs when an RDMA READ request reaches the responder.
//
//hpbd:hotpath
func (r *wrRec) onReadReq() { r.q.completeRDMARead(r) }

// onReadDone lands an RDMA READ's data at the requester.
//
//hpbd:hotpath
func (r *wrRec) onReadDone() {
	st := StatusSuccess
	if r.q.closed {
		st = StatusFlushErr
	} else {
		copy(r.wr.Local.bytes(), r.payload)
	}
	r.complete(st)
}

// complete reports the WR's one CQE on the send CQ with its completion
// span, and recycles the record.
//
//hpbd:hotpath
func (r *wrRec) complete(st Status) {
	q, n := r.q, r.wr.Local.Len
	q.sendCQ.push(CQE{WRID: r.wr.ID, Op: r.wr.Op, Status: st, QP: q, ByteLen: n})
	//hpbd:allow hotalloc -- the span's argument map is built only with a tracer attached
	q.traceComplete(r.wr.Op, r.postAt, n, r.wr.Flow)
	q.hca.fabric.putWR(r)
}

// traceComplete records one post-to-completion span on the posting HCA's
// track (no-op unless fabric tracing is enabled); a non-zero flow id also
// continues the request's causal flow through the HCA.
func (q *QP) traceComplete(op Opcode, postAt sim.Time, n int, flow uint64) {
	tr := q.hca.fabric.tracer()
	if tr == nil {
		return
	}
	args := map[string]any{"bytes": n, "qpn": q.qpn}
	if flow != 0 {
		args["flow"] = flow
		tr.FlowStep(q.hca.name, "req", flow)
	}
	tr.Complete(q.hca.name, op.String(), postAt, q.hca.fabric.env.Now(), args)
}

// completeRDMARead runs at the responder when r's read request arrives:
// it captures the remote bytes and streams them back.
//
//hpbd:hotpath
func (q *QP) completeRDMARead(r *wrRec) {
	f := q.hca.fabric
	env, cfg := f.env, &f.cfg
	now := env.Now()
	wr, peer, n := &r.wr, r.peer, r.wr.Local.Len
	if peer.closed || q.closed {
		q.sendCQ.push(CQE{WRID: wr.ID, Op: wr.Op, Status: StatusFlushErr, QP: q})
		f.putWR(r)
		return
	}
	rmr := peer.hca.lookupMR(wr.RemoteKey)
	if rmr == nil || wr.RemoteOff < 0 || wr.RemoteOff+n > len(rmr.Buf) {
		q.sendCQ.push(CQE{WRID: wr.ID, Op: wr.Op, Status: StatusRemoteAccessErr, QP: q})
		f.putWR(r)
		return
	}
	copy(r.payload[:n], rmr.Buf[wr.RemoteOff:wr.RemoteOff+n])
	// Data path: responder egress -> requester ingress. A cold remote ODP
	// range must fault in before the responder can stream it out.
	egStart := maxTime(now.Add(peer.hca.qpPenalty(peer)).
		Add(f.odpDelay(rmr, wr.RemoteOff, n)), peer.hca.egressFree)
	egDone := egStart.Add(cfg.Link.BW.Over(n))
	peer.hca.egressFree = egDone
	inStart := maxTime(egStart.Add(cfg.Link.Prop), q.hca.ingressFree)
	inDone := inStart.Add(cfg.Link.BW.Over(n)).Add(q.hca.qpPenalty(q))
	q.hca.ingressFree = inDone
	env.After(inDone.Sub(now), r.readDone)
}

// deliver applies an arriving SEND/RDMA WRITE at the destination and
// returns the status the sender's ack will carry.
//
//hpbd:hotpath
func (q *QP) deliver(wr *SendWR, payload []byte, peer *QP) Status {
	if peer.closed {
		return StatusFlushErr
	}
	switch wr.Op {
	case OpSend:
		rwr, ok := peer.recvQ.Pop()
		if !ok {
			// RC would RNR-retry; the paper avoids this entirely with
			// credit-based flow control. Surface it as an error so tests
			// can demonstrate why flow control is required.
			return StatusRNR
		}
		ncopy := copy(rwr.Local.bytes(), payload)
		peer.recvCQ.push(CQE{
			WRID: rwr.ID, Op: OpRecv, Status: StatusSuccess, QP: peer,
			ByteLen: ncopy, Solicited: wr.Solicited,
		})
	case OpRDMAWrite:
		rmr := peer.hca.lookupMR(wr.RemoteKey)
		if rmr == nil || wr.RemoteOff < 0 || wr.RemoteOff+len(payload) > len(rmr.Buf) {
			return StatusRemoteAccessErr
		}
		copy(rmr.Buf[wr.RemoteOff:], payload)
		// RDMA WRITE is invisible to the responder: no CQE at peer.
	}
	return StatusSuccess
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
