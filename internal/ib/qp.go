package ib

import "hpbd/internal/sim"

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
	recvQ  []RecvWR
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

// Peer returns the connected remote QP, if any.
func (q *QP) Peer() *QP { return q.peer }

// Closed reports whether Close was called.
func (q *QP) Closed() bool { return q.closed }

// PostedRecvs returns the current receive queue depth.
func (q *QP) PostedRecvs() int { return len(q.recvQ) }

// Close transitions the QP to the error state: posted receives flush with
// StatusFlushErr and subsequent operations fail.
func (q *QP) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, r := range q.recvQ {
		q.recvCQ.push(CQE{WRID: r.ID, Op: OpRecv, Status: StatusFlushErr, QP: q})
	}
	q.recvQ = nil
}

// PostRecv posts a receive buffer. Receives complete in FIFO order as
// SENDs arrive.
func (q *QP) PostRecv(wr RecvWR) error {
	if q.closed {
		return ErrQPClosed
	}
	if !wr.Local.valid() {
		return ErrBadSegment
	}
	q.recvQ = append(q.recvQ, wr)
	return nil
}

// clone captures the bytes of a segment at post time (the model's stand-in
// for DMA gather).
func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
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

// PostSendAsync posts from callback context (no process to charge); used
// by layered code that batches posts inside event handlers.
func (q *QP) PostSendAsync(wr SendWR) error {
	if q.closed {
		return ErrQPClosed
	}
	if q.peer == nil {
		return ErrNotConnected
	}
	if !wr.Local.valid() {
		return ErrBadSegment
	}
	q.issue(wr)
	return nil
}

// issue runs the fabric timing model for wr and schedules its effects.
func (q *QP) issue(wr SendWR) {
	env := q.hca.fabric.env
	cfg := q.hca.fabric.cfg
	src, dst := q.hca, q.peer.hca
	now := env.Now()

	// Fault injection point: every send-side WR passes through the hook
	// before any timing state mutates, so an aborted WR leaves the
	// egress/ingress serialization clocks untouched.
	var extra sim.Duration
	if h := q.hca.fabric.fault; h != nil {
		var st Status
		extra, st = h.SendFault(src.name, wr.Op)
		if st != StatusSuccess {
			n := wr.Local.Len
			env.After(cfg.EventDelay+extra, func() {
				q.sendCQ.push(CQE{WRID: wr.ID, Op: wr.Op, Status: st, QP: q, ByteLen: n})
				q.traceComplete(wr.Op, now, n, wr.Flow)
			})
			return
		}
	}

	switch wr.Op {
	case OpSend, OpRDMAWrite:
		payload := clone(wr.Local.bytes())
		n := len(payload)
		// QP context fetch penalties on both adapters, plus first-touch
		// fault service when the local gather buffer is an ODP region.
		start := now.Add(src.qpPenalty(q)).Add(extra).
			Add(q.hca.fabric.odpDelay(wr.Local.MR, wr.Local.Off, n))
		egStart := maxTime(start, src.egressFree)
		egDone := egStart.Add(cfg.Link.BW.Over(n))
		src.egressFree = egDone
		inStart := maxTime(egStart.Add(cfg.Link.Prop), dst.ingressFree)
		inDone := inStart.Add(cfg.Link.BW.Over(n)).Add(dst.qpPenalty(q.peer))
		dst.ingressFree = inDone
		if wr.Op == OpRDMAWrite {
			// A cold remote ODP window stalls the responder's RDMA engine
			// while its fault resolves before the write can land.
			inDone = inDone.Add(q.hca.fabric.odpDelay(dst.lookupMR(wr.RemoteKey), wr.RemoteOff, n))
			dst.ingressFree = inDone
		}

		peer := q.peer
		var failed Status // set by deliver on a NAK-worthy outcome
		env.After(inDone.Sub(now), func() {
			failed = q.deliver(wr, payload, peer)
		})
		// Sender completion when the RC ack returns.
		ackAt := inDone.Add(cfg.Link.Prop)
		env.After(ackAt.Sub(now), func() {
			st := failed
			if st == StatusSuccess && peer.closed {
				st = StatusFlushErr
			}
			q.sendCQ.push(CQE{WRID: wr.ID, Op: wr.Op, Status: st, QP: q, ByteLen: n})
			q.traceComplete(wr.Op, now, n, wr.Flow)
		})

	case OpRDMARead:
		// Request travels to the responder, then data streams back. The
		// local destination faults in before the request leaves (the HCA
		// needs the sink resident to scatter the response).
		n := wr.Local.Len
		start := now.Add(src.qpPenalty(q)).Add(extra).
			Add(q.hca.fabric.odpDelay(wr.Local.MR, wr.Local.Off, n))
		reqArrive := maxTime(start, src.egressFree).Add(cfg.Link.BW.Over(32)).Add(cfg.Link.Prop)
		peer := q.peer
		env.After(reqArrive.Sub(now), func() {
			q.completeRDMARead(wr, peer, n, now)
		})
	}
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

// completeRDMARead runs at the responder when the read request arrives;
// postAt is when the requester posted the WR (for the completion span).
func (q *QP) completeRDMARead(wr SendWR, peer *QP, n int, postAt sim.Time) {
	env := q.hca.fabric.env
	cfg := q.hca.fabric.cfg
	now := env.Now()
	if peer.closed || q.closed {
		q.sendCQ.push(CQE{WRID: wr.ID, Op: wr.Op, Status: StatusFlushErr, QP: q})
		return
	}
	rmr := peer.hca.lookupMR(wr.RemoteKey)
	if rmr == nil || wr.RemoteOff < 0 || wr.RemoteOff+n > len(rmr.Buf) {
		q.sendCQ.push(CQE{WRID: wr.ID, Op: wr.Op, Status: StatusRemoteAccessErr, QP: q})
		return
	}
	payload := clone(rmr.Buf[wr.RemoteOff : wr.RemoteOff+n])
	// Data path: responder egress -> requester ingress. A cold remote ODP
	// range must fault in before the responder can stream it out.
	egStart := maxTime(now.Add(peer.hca.qpPenalty(peer)).
		Add(q.hca.fabric.odpDelay(rmr, wr.RemoteOff, n)), peer.hca.egressFree)
	egDone := egStart.Add(cfg.Link.BW.Over(n))
	peer.hca.egressFree = egDone
	inStart := maxTime(egStart.Add(cfg.Link.Prop), q.hca.ingressFree)
	inDone := inStart.Add(cfg.Link.BW.Over(n)).Add(q.hca.qpPenalty(q))
	q.hca.ingressFree = inDone
	env.After(inDone.Sub(now), func() {
		st := StatusSuccess
		if q.closed {
			st = StatusFlushErr
		} else {
			copy(wr.Local.bytes(), payload)
		}
		q.sendCQ.push(CQE{WRID: wr.ID, Op: wr.Op, Status: st, QP: q, ByteLen: n})
		q.traceComplete(wr.Op, postAt, n, wr.Flow)
	})
}

// deliver applies an arriving SEND/RDMA WRITE at the destination and
// returns the status the sender's ack will carry.
func (q *QP) deliver(wr SendWR, payload []byte, peer *QP) Status {
	if peer.closed {
		return StatusFlushErr
	}
	switch wr.Op {
	case OpSend:
		if len(peer.recvQ) == 0 {
			// RC would RNR-retry; the paper avoids this entirely with
			// credit-based flow control. Surface it as an error so tests
			// can demonstrate why flow control is required.
			return StatusRNR
		}
		rwr := peer.recvQ[0]
		peer.recvQ = peer.recvQ[1:]
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
