package hpbd

import (
	"io"
	"log"
	"math"
	"net"
	"testing"
	"time"

	"hpbd/internal/ib"
	"hpbd/internal/netblock"
	"hpbd/internal/sim"
	"hpbd/internal/wire"
)

// rulebookArea is the area both servers export in the conformance table;
// both bound a request's length at 128 KB.
const rulebookArea = 256 << 10

// rulebookCases is the request rulebook (wire.Check) as both servers must
// apply it, one raw request per row. The servers differ in one stated
// row: ReqStat is netblock's alone.
var rulebookCases = []struct {
	name      string
	req       wire.Request
	hpbd, net wire.Status
}{
	{"write in range", wire.Request{Type: wire.ReqWrite, Length: 4096}, wire.StatusOK, wire.StatusOK},
	{"read ending at the area's end", wire.Request{Type: wire.ReqRead, Offset: rulebookArea - 4096, Length: 4096}, wire.StatusOK, wire.StatusOK},
	{"zero length", wire.Request{Type: wire.ReqRead}, wire.StatusOutOfRange, wire.StatusOutOfRange},
	{"longer than any request", wire.Request{Type: wire.ReqRead, Length: 132 << 10}, wire.StatusOutOfRange, wire.StatusOutOfRange},
	{"read past the area's end", wire.Request{Type: wire.ReqRead, Offset: rulebookArea - 4096, Length: 8192}, wire.StatusOutOfRange, wire.StatusOutOfRange},
	{"write past the area's end", wire.Request{Type: wire.ReqWrite, Offset: rulebookArea - 4096, Length: 8192}, wire.StatusOutOfRange, wire.StatusOutOfRange},
	{"offset at the area's end", wire.Request{Type: wire.ReqRead, Offset: rulebookArea, Length: 4096}, wire.StatusOutOfRange, wire.StatusOutOfRange},
	{"range wraps past 2^64", wire.Request{Type: wire.ReqRead, Offset: math.MaxUint64 - 100, Length: 4096}, wire.StatusOutOfRange, wire.StatusOutOfRange},
	{"unknown type", wire.Request{Type: 9, Length: 4096}, wire.StatusBadRequest, wire.StatusBadRequest},
	{"unknown type out of range", wire.Request{Type: 9, Offset: math.MaxUint64 - 100, Length: 4096}, wire.StatusBadRequest, wire.StatusBadRequest},
	{"stat", wire.Request{Type: wire.ReqStat}, wire.StatusBadRequest, wire.StatusOK},
}

// TestRequestRulebookConformance sends every rulebook row, raw, to an
// HPBD server over a bare QP and to a netblock server over a bare TCP
// connection, and checks each answers with the row's status and stays in
// step for the next row.
func TestRequestRulebookConformance(t *testing.T) {
	t.Run("hpbd", func(t *testing.T) {
		env := sim.NewEnv()
		f := ib.NewFabric(env, ib.DefaultConfig())
		srv := NewServer(f, "mem0", DefaultServerConfig(1<<20))
		hca := f.NewHCA("raw")
		cq := hca.CreateCQ("raw-cq")
		qp := hca.CreateQP(cq, cq)
		if _, err := srv.attach(qp, rulebookArea, "", nil); err != nil {
			t.Fatal(err)
		}
		ctl := hca.RegisterMRAtSetup(make([]byte, wire.RequestSize))
		rep := hca.RegisterMRAtSetup(make([]byte, wire.ReplySize))
		data := hca.RegisterMRAtSetup(make([]byte, 128<<10))
		env.Go("raw-client", func(p *sim.Proc) {
			for i, c := range rulebookCases {
				if err := qp.PostRecv(ib.RecvWR{Local: ib.Segment{MR: rep, Len: wire.ReplySize}}); err != nil {
					t.Fatal(err)
				}
				req := c.req
				req.Handle, req.RKey = uint64(i+1), data.RKey
				wire.MarshalRequest(ctl.Buf, &req)
				if err := qp.PostSend(p, ib.SendWR{Op: ib.OpSend, Local: ib.Segment{MR: ctl, Len: wire.RequestSize}}); err != nil {
					t.Fatal(err)
				}
				for e := cq.WaitPoll(p); e.Op != ib.OpRecv; e = cq.WaitPoll(p) {
				}
				r, err := wire.UnmarshalReply(rep.Buf)
				if err != nil || r.Handle != req.Handle || r.Status != c.hpbd {
					t.Errorf("%s: hpbd answered %+v, %v; want %v", c.name, r, err, c.hpbd)
				}
			}
		})
		env.Run()
		env.Close()
	})

	t.Run("netblock", func(t *testing.T) {
		s, err := netblock.Serve("127.0.0.1:0", netblock.ServerConfig{CapacityBytes: 1 << 20, Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		hello := make([]byte, wire.HelloSize)
		wire.MarshalHello(hello, &wire.Hello{AreaBytes: rulebookArea})
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, make([]byte, wire.HelloReplySize)); err != nil {
			t.Fatal(err)
		}
		hdr, rep := make([]byte, wire.RequestSize), make([]byte, wire.ReplySize)
		for i, c := range rulebookCases {
			req := c.req
			req.Handle = uint64(i + 1)
			wire.MarshalRequest(hdr, &req)
			msg := hdr
			if req.Type == wire.ReqWrite { // the payload follows, refused or not
				msg = append(hdr[:len(hdr):len(hdr)], make([]byte, req.Length)...)
			}
			if _, err := conn.Write(msg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if _, err := io.ReadFull(conn, rep); err != nil {
				t.Fatalf("%s: reply: %v", c.name, err)
			}
			r, err := wire.UnmarshalReply(rep)
			if err != nil || r.Handle != req.Handle || r.Status != c.net {
				t.Errorf("%s: netblock answered %+v, %v; want %v", c.name, r, err, c.net)
			}
			payload := 0
			switch {
			case r.Status != wire.StatusOK:
			case req.Type == wire.ReqRead:
				payload = int(req.Length)
			case req.Type == wire.ReqStat:
				payload = wire.StatPayloadSize
			}
			if _, err := io.ReadFull(conn, make([]byte, payload)); err != nil {
				t.Fatalf("%s: payload: %v", c.name, err)
			}
		}
	})
}
