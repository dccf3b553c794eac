package ib

import (
	"testing"

	"hpbd/internal/sim"
)

func TestPerQPSendOrderingFIFO(t *testing.T) {
	// RC guarantees ordering: two SENDs posted back to back must complete
	// receives in post order.
	env, _, a, b := pair(DefaultConfig())
	amr, bmr := a.mr(8192), b.mr(8192)
	var order []uint64
	env.Go("recv", func(p *sim.Proc) {
		b.qp.PostRecv(RecvWR{ID: 100, Local: Segment{bmr, 0, 4096}})
		b.qp.PostRecv(RecvWR{ID: 101, Local: Segment{bmr, 4096, 4096}})
		for i := 0; i < 2; i++ {
			e := b.recvCQ.WaitPoll(p)
			order = append(order, e.WRID)
		}
	})
	env.Go("send", func(p *sim.Proc) {
		a.qp.PostSend(p, SendWR{ID: 1, Op: OpSend, Local: Segment{amr, 0, 4096}})
		a.qp.PostSend(p, SendWR{ID: 2, Op: OpSend, Local: Segment{amr, 4096, 2048}})
	})
	env.Run()
	env.Close()
	if len(order) != 2 || order[0] != 100 || order[1] != 101 {
		t.Errorf("receive order = %v, want [100 101]", order)
	}
}

func TestEgressSerializationBackToBack(t *testing.T) {
	// Two large sends from one HCA must serialize on its egress link:
	// total time ~ 2x one transfer, not 1x.
	cfg := DefaultConfig()
	cfg.QPCacheMiss = 0
	env, f, a, b := pair(cfg)
	amr, bmr := a.mr(256*1024), b.mr(256*1024)
	n := 128 * 1024
	var done sim.Time
	env.Go("recv", func(p *sim.Proc) {
		b.qp.PostRecv(RecvWR{ID: 1, Local: Segment{bmr, 0, n}})
		b.qp.PostRecv(RecvWR{ID: 2, Local: Segment{bmr, n, n}})
		b.recvCQ.WaitPoll(p)
		b.recvCQ.WaitPoll(p)
		done = p.Now()
	})
	env.Go("send", func(p *sim.Proc) {
		a.qp.PostSend(p, SendWR{ID: 1, Op: OpSend, Local: Segment{amr, 0, n}})
		a.qp.PostSend(p, SendWR{ID: 2, Op: OpSend, Local: Segment{amr, n, n}})
	})
	env.Run()
	env.Close()
	ser := f.Config().Link.BW.Over(n)
	if sim.Duration(done) < 2*ser {
		t.Errorf("two 128K sends done at %v; egress must serialize to >= %v", done, 2*ser)
	}
}

func TestWaitPollTimeout(t *testing.T) {
	env, _, a, _ := pair(DefaultConfig())
	var timedOut, got bool
	env.Go("poll", func(p *sim.Proc) {
		_, ok := a.sendCQ.WaitPollTimeout(p, 50*sim.Microsecond)
		timedOut = !ok
		// Next poll has a completion coming.
		_, ok = a.sendCQ.WaitPollTimeout(p, sim.Second)
		got = ok
	})
	env.Go("feed", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond)
		amr := a.mr(64)
		a.qp.PostSend(p, SendWR{ID: 9, Op: OpRDMAWrite, Local: Segment{amr, 0, 64}, RemoteKey: 0xbad})
	})
	env.Run()
	env.Close()
	if !timedOut {
		t.Error("first WaitPollTimeout should time out")
	}
	if !got {
		t.Error("second WaitPollTimeout should deliver the completion")
	}
}

func TestQPPenaltyCapacityModel(t *testing.T) {
	env := sim.NewEnv()
	f := NewFabric(env, DefaultConfig())
	h := f.NewHCA("h")
	cq := h.CreateCQ("cq")
	var qps []*QP
	for i := 0; i < 8; i++ {
		qps = append(qps, h.CreateQP(cq, cq))
	}
	if d := h.qpPenalty(qps[0]); d != 0 {
		t.Errorf("penalty with 8 QPs = %v, want 0", d)
	}
	for i := 0; i < 8; i++ {
		h.CreateQP(cq, cq)
	}
	if d := h.qpPenalty(qps[0]); d <= 0 {
		t.Errorf("penalty with 16 QPs = %v, want > 0", d)
	}
	env.Close()
}

func TestStringers(t *testing.T) {
	cases := []struct{ got, want string }{
		{OpSend.String(), "SEND"},
		{OpRDMARead.String(), "RDMA_READ"},
		{OpRDMAWrite.String(), "RDMA_WRITE"},
		{OpRecv.String(), "RECV"},
		{StatusSuccess.String(), "OK"},
		{StatusRNR.String(), "RNR"},
		{StatusFlushErr.String(), "FLUSH_ERR"},
		{StatusRemoteAccessErr.String(), "REM_ACCESS_ERR"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestPostSendNotConnected(t *testing.T) {
	env := sim.NewEnv()
	f := NewFabric(env, DefaultConfig())
	h := f.NewHCA("h")
	cq := h.CreateCQ("cq")
	qp := h.CreateQP(cq, cq)
	mr := h.RegisterMRAtSetup(make([]byte, 64))
	env.Go("t", func(p *sim.Proc) {
		if err := qp.PostSend(p, SendWR{ID: 1, Op: OpSend, Local: Segment{mr, 0, 64}}); err != ErrNotConnected {
			t.Errorf("err = %v, want ErrNotConnected", err)
		}
	})
	env.Run()
	env.Close()
}
