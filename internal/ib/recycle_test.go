package ib

import (
	"bytes"
	"slices"
	"testing"

	"hpbd/internal/sim"
)

func fill(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

// postNow issues wr from callback context, with no process to charge the
// doorbell to, so a test can drive the fabric without a proc in between.
func (q *QP) postNow(wr SendWR) error {
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

// Recycled wire buffers keep capture-at-post: a SEND or RDMA WRITE carries
// the bytes its gather segment held when it was posted, whatever the
// caller does to the region afterwards (the HPBD client reuses a control
// slot the moment its WR is posted).
func TestCaptureAtPostSendAndWrite(t *testing.T) {
	for _, op := range []Opcode{OpSend, OpRDMAWrite} {
		env, _, a, b := pair(DefaultConfig())
		amr, bmr := a.mr(4096), b.mr(4096)
		copy(amr.Buf, fill(4096, 0xA1))
		if err := b.qp.PostRecv(RecvWR{ID: 1, Local: Segment{bmr, 0, 4096}}); err != nil {
			t.Fatal(err)
		}
		if err := a.qp.postNow(SendWR{ID: 2, Op: op, Local: Segment{amr, 0, 4096}, RemoteKey: bmr.RKey}); err != nil {
			t.Fatal(err)
		}
		copy(amr.Buf, fill(4096, 0xB2)) // after the post, before delivery
		env.Run()
		if e, ok := a.sendCQ.Poll(); !ok || e.Status != StatusSuccess {
			t.Fatalf("%v: send CQE = %+v, %v", op, e, ok)
		}
		if !bytes.Equal(bmr.Buf, fill(4096, 0xA1)) {
			t.Errorf("%v delivered bytes written after the post", op)
		}
	}
}

// An RDMA READ captures the remote bytes when the request reaches the
// responder; a write to the remote region while the response streams back
// does not show up in what lands.
func TestCaptureAtArrivalRead(t *testing.T) {
	const n = 128 << 10
	env, _, a, b := pair(DefaultConfig())
	amr, bmr := a.mr(n), b.mr(n)
	copy(bmr.Buf, fill(n, 0xC3))
	var landed sim.Time
	env.Go("read", func(p *sim.Proc) {
		if err := a.qp.PostSend(p, SendWR{ID: 1, Op: OpRDMARead, Local: Segment{amr, 0, n}, RemoteKey: bmr.RKey}); err != nil {
			t.Error(err)
		}
		if e := a.sendCQ.WaitPoll(p); e.Status != StatusSuccess || e.ByteLen != n {
			t.Errorf("read CQE = %+v", e)
		}
		landed = p.Now()
	})
	// The 32-byte request arrives within a few microseconds; 128 KB take
	// over a hundred to stream back.
	const mutateAt = 50 * sim.Microsecond
	env.After(mutateAt, func() { copy(bmr.Buf, fill(n, 0xD4)) })
	env.Run()
	if landed <= sim.Time(mutateAt) {
		t.Fatalf("read landed at %v, before the mutation at %v: the test proves nothing", landed, mutateAt)
	}
	if !bytes.Equal(amr.Buf, fill(n, 0xC3)) {
		t.Error("RDMA READ landed bytes written after its request arrived")
	}
}

// A record that last carried 128 KB is the next one handed out: a 64-byte
// SEND through it delivers exactly its 64 bytes.
func TestRecycledBufferLeavesNoStaleTail(t *testing.T) {
	const big, small = 128 << 10, 64
	env, f, a, b := pair(DefaultConfig())
	amr, bmr := a.mr(big), b.mr(big)
	rbuf := b.mr(4096)
	copy(amr.Buf, fill(big, 0x11))
	copy(rbuf.Buf, fill(4096, 0xEE))
	env.Go("run", func(p *sim.Proc) {
		if err := a.qp.PostSend(p, SendWR{ID: 1, Op: OpRDMAWrite, Local: Segment{amr, 0, big}, RemoteKey: bmr.RKey}); err != nil {
			t.Error(err)
		}
		a.sendCQ.WaitPoll(p)
		rec := f.freeWRs
		if rec == nil || rec.next != nil || cap(rec.payload) < big {
			t.Errorf("after one 128K WR the free list should hold its one record")
		}
		copy(amr.Buf, fill(small, 0x22))
		if err := b.qp.PostRecv(RecvWR{ID: 7, Local: Segment{rbuf, 0, 4096}}); err != nil {
			t.Error(err)
		}
		if err := a.qp.PostSend(p, SendWR{ID: 2, Op: OpSend, Local: Segment{amr, 0, small}}); err != nil {
			t.Error(err)
		}
		if e := b.recvCQ.WaitPoll(p); e.ByteLen != small || e.WRID != 7 {
			t.Errorf("recv CQE = %+v, want %d bytes", e, small)
		}
		a.sendCQ.WaitPoll(p)
		if f.freeWRs != rec {
			t.Error("the SEND did not reuse the 128K WR's record")
		}
	})
	env.Run()
	if !bytes.Equal(rbuf.Buf[:small], fill(small, 0x22)) {
		t.Error("SEND payload corrupted")
	}
	if !bytes.Equal(rbuf.Buf[small:], fill(4096-small, 0xEE)) {
		t.Error("SEND wrote past its 64 bytes: a stale tail of the recycled buffer leaked")
	}
}

// abortAll is a FaultHook that aborts every send-side WR.
type abortAll struct{}

func (abortAll) SendFault(string, Opcode) (sim.Duration, Status) { return 0, StatusRNR }

// Every WR gets exactly one CQE and its record comes back, whether it
// completes, is NAKed by a peer that closed with it in the air, or is
// aborted by the fault hook: a second identical burst allocates nothing.
func TestRecordsReturnOnEveryPath(t *testing.T) {
	const big = 128 << 10
	cases := []struct {
		name      string
		hook      FaultHook
		closePeer bool
		want      Status
	}{
		{"clean", nil, false, StatusSuccess},
		{"peer closed with WRs in the air", nil, true, StatusFlushErr},
		{"fault hook abort", abortAll{}, false, StatusRNR},
	}
	for _, tc := range cases {
		env, f, a, b := pair(DefaultConfig())
		f.SetFaultHook(tc.hook)
		amr, bmr := a.mr(big), b.mr(big)
		for i := 0; i < 16; i++ { // one receive per burst, posted up front
			if err := b.qp.PostRecv(RecvWR{ID: uint64(i), Local: Segment{bmr, 0, 64}}); err != nil {
				t.Fatal(err)
			}
		}
		wrs := []SendWR{
			{ID: 1, Op: OpSend, Local: Segment{amr, 0, 64}},
			{ID: 2, Op: OpRDMAWrite, Local: Segment{amr, 0, 4 << 10}, RemoteKey: bmr.RKey},
			{ID: 3, Op: OpRDMAWrite, Local: Segment{amr, 0, big}, RemoteKey: bmr.RKey},
			{ID: 4, Op: OpRDMARead, Local: Segment{amr, 0, big}, RemoteKey: bmr.RKey},
		}
		burst := func() {
			for _, wr := range wrs {
				if err := a.qp.postNow(wr); err != nil {
					t.Fatalf("%s: post: %v", tc.name, err)
				}
			}
			if tc.closePeer {
				b.qp.Close()
			}
			env.Run()
			var cqes [5]int // by WR id
			for {
				e, ok := a.sendCQ.Poll()
				if !ok {
					break
				}
				cqes[e.WRID]++
				if e.Status != tc.want {
					t.Errorf("%s: WR %d completed %v, want %v", tc.name, e.WRID, e.Status, tc.want)
				}
			}
			if cqes != [5]int{0, 1, 1, 1, 1} {
				t.Errorf("%s: CQEs by WR id %v, want exactly one for each of the four WRs", tc.name, cqes)
			}
		}
		burst()
		for b.recvCQ.Len() > 0 { // the flushed receives of the closed peer, once
			b.recvCQ.Poll()
		}
		if allocs := testing.AllocsPerRun(10, func() {
			burst()
			b.recvCQ.Poll()
		}); allocs != 0 {
			t.Errorf("%s: a repeated burst allocates %.0f times, want 0", tc.name, allocs)
		}
		n := 0
		for r := f.freeWRs; r != nil; r = r.next {
			n++
		}
		if n != len(wrs) {
			t.Errorf("%s: %d records on the free list, want the %d the burst had in flight", tc.name, n, len(wrs))
		}
	}
}

// The receive queue is a ring: a connection that posts and consumes at
// its working depth allocates nothing, consumes in FIFO order, and Close
// flushes what is still posted oldest first.
func TestPostRecvAllocsPerRun(t *testing.T) {
	const depth = 16
	env, _, a, b := pair(DefaultConfig())
	amr, bmr := a.mr(64), b.mr(depth*64)
	post := func(slot int) {
		if err := b.qp.PostRecv(RecvWR{ID: uint64(slot), Local: Segment{bmr, slot * 64, 64}}); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < depth; slot++ {
		post(slot)
	}
	next := 0
	cycle := func() {
		// One SEND consumes the oldest receive; its slot is reposted.
		if err := a.qp.postNow(SendWR{Op: OpSend, Local: Segment{amr, 0, 64}}); err != nil {
			t.Fatal(err)
		}
		env.Run()
		a.sendCQ.Poll()
		e, ok := b.recvCQ.Poll()
		if !ok || e.Status != StatusSuccess || e.WRID != uint64(next) {
			t.Fatalf("receive CQE = %+v ok=%v, want slot %d (FIFO)", e, ok, next)
		}
		post(next)
		next = (next + 1) % depth
	}
	for i := 0; i < 2*depth; i++ { // rings and free lists reach their working size
		cycle()
	}
	if allocs := testing.AllocsPerRun(10000, cycle); allocs != 0 {
		t.Errorf("%.4f allocs per post/consume cycle at depth %d, want 0", allocs, depth)
	}
	if got := b.qp.PostedRecvs(); got != depth {
		t.Errorf("PostedRecvs = %d, want %d", got, depth)
	}
	b.qp.Close()
	for i := 0; i < depth; i++ {
		want := uint64((next + i) % depth)
		if e, ok := b.recvCQ.Poll(); !ok || e.Status != StatusFlushErr || e.WRID != want {
			t.Fatalf("flush %d = %+v ok=%v, want slot %d flushed in posting order", i, e, ok, want)
		}
	}
	if b.qp.PostedRecvs() != 0 || b.recvCQ.Len() != 0 {
		t.Errorf("after Close: %d posted, %d CQEs left", b.qp.PostedRecvs(), b.recvCQ.Len())
	}
}

// A CQ with a sink delivers a burst from one scheduled drain, in push
// order; a completion that the sink's own consequence pushes later gets a
// drain of its own; and every delivery falls where a process looping on
// WaitPoll would have made it.
func TestCQSinkBurstOrder(t *testing.T) {
	run := func(sink bool) (got []uint64, order []string) {
		env, _, a, _ := pair(DefaultConfig())
		cq := a.hca.CreateCQ("cq")
		consume := func(e CQE) {
			got = append(got, e.WRID)
			order = append(order, "cqe")
			if e.WRID == 3 {
				// The consequence of a completion (a woken worker posting
				// its next WR) produces the next completion later.
				env.After(0, func() {
					order = append(order, "consequence")
					cq.push(CQE{WRID: 4})
				})
			}
		}
		if sink {
			cq.SetSink(consume)
		} else {
			env.Go("poll", func(p *sim.Proc) {
				for {
					consume(cq.WaitPoll(p))
				}
			})
		}
		env.After(sim.Microsecond, func() {
			order = append(order, "burst")
			for id := uint64(1); id <= 3; id++ {
				cq.push(CQE{WRID: id})
			}
			if len(got) != 0 {
				t.Error("push delivered inline")
			}
			env.After(0, func() { order = append(order, "after") })
		})
		env.Run()
		if cq.Len() != 0 || cq.draining {
			t.Errorf("sink=%v: %d CQEs left queued, draining=%v", sink, cq.Len(), cq.draining)
		}
		env.Close()
		return got, order
	}
	got, order := run(true)
	if want := []uint64{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("sink saw %v, want %v", got, want)
	}
	if want := []string{"burst", "cqe", "cqe", "cqe", "after", "consequence", "cqe"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if _, procOrder := run(false); !slices.Equal(order, procOrder) {
		t.Errorf("sink order %v differs from a WaitPoll process's %v", order, procOrder)
	}
}
