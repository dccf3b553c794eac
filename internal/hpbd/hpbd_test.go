package hpbd

import (
	"bytes"
	"fmt"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/disk"
	"hpbd/internal/faultsim"
	"hpbd/internal/ib"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/tenant"
)

// testbed wires one client device (one per tenant under a tenancy spec)
// to its servers behind a block queue.
type testbed struct {
	env     *sim.Env
	fabric  *ib.Fabric
	dev     *Device            // the only device, or the first tenant's
	devs    map[string]*Device // by tenant id ("" without tenancy)
	servers []*Server
	queue   *blockdev.Queue
	reg     *telemetry.Registry // the device's registry (the node's when shared)
	inj     *faultsim.Injector  // nil without a fault schedule
	spec    *tenant.Spec        // the servers' QoS spec, nil without tenancy
}

// bedOpts says what a bed has beyond one default client on one default
// 1 MB server; the zero value is that bed.
type bedOpts struct {
	servers  int
	area     int64               // bytes exported per server
	client   ClientConfig        // zero PoolBytes: DefaultClientConfig()
	server   func(*ServerConfig) // adjusts every server's configuration
	shared   bool                // fabric, client, servers and injector share one registry, as cluster.Build wires them
	fallback bool                // the client gets a local-disk fallback the size of the device
	faults   string              // faultsim schedule replayed against the bed
	// tenancy is a QoS spec every server enforces; each of its tenants
	// gets a device over all the servers, with the pushback retry budget
	// and its own fallback disk so quota reclaim has a demotion target.
	tenancy string
}

func newBed(t *testing.T, o bedOpts) *testbed {
	t.Helper()
	if o.servers == 0 {
		o.servers = 1
	}
	if o.area == 0 {
		o.area = 1 << 20
	}
	if o.client.PoolBytes == 0 {
		o.client = DefaultClientConfig()
	}
	env := sim.NewEnv()
	ibcfg := ib.DefaultConfig()
	if o.shared {
		o.client.Telemetry = telemetry.New(env)
		ibcfg.Telemetry = o.client.Telemetry
	}
	f := ib.NewFabric(env, ibcfg)
	var spec *tenant.Spec
	ids := []string{""}
	if o.tenancy != "" {
		var err error
		if spec, err = tenant.ParseSpec(o.tenancy); err != nil {
			t.Fatal(err)
		}
		ids, o.fallback = nil, true
		for _, tn := range spec.Tenants {
			ids = append(ids, tn.ID)
		}
	}
	tb := &testbed{env: env, fabric: f, devs: make(map[string]*Device), spec: spec}
	for i := 0; i < o.servers; i++ {
		sc := DefaultServerConfig(o.area * int64(len(ids)))
		sc.Telemetry = o.client.Telemetry
		sc.Tenancy = spec
		if o.server != nil {
			o.server(&sc)
		}
		tb.servers = append(tb.servers, NewServer(f, fmt.Sprintf("mem%d", i), sc))
	}
	for _, id := range ids {
		cc, name, fb := o.client, "hpbd0", "hda-fb"
		if id != "" {
			cc.Tenant, cc.MaxRetries = id, 8
			name, fb = "hpbd-"+id, "fb-"+id
		}
		if o.fallback {
			cc.Fallback = disk.New(env, fb, o.area*int64(o.servers), disk.DefaultParams())
		}
		dev := NewDevice(f, name, cc)
		for _, srv := range tb.servers {
			if err := dev.ConnectServer(srv, o.area); err != nil {
				t.Fatalf("ConnectServer(%s): %v", name, err)
			}
		}
		tb.devs[id] = dev
	}
	dev := tb.devs[ids[0]]
	tb.dev, tb.reg = dev, dev.Telemetry()
	tb.queue = blockdev.NewQueue(env, netmodel.DefaultHost(), dev)
	if o.faults != "" {
		sched, err := faultsim.ParseSpec(o.faults)
		if err != nil {
			t.Fatalf("ParseSpec: %v", err)
		}
		tb.inj = faultsim.New(env, *sched, tb.reg)
		for _, s := range tb.servers {
			tb.inj.AddServer(s)
		}
		for _, id := range ids {
			tb.inj.AddClient(tb.devs[id])
		}
		f.SetFaultHook(tb.inj)
		tb.inj.Start()
	}
	return tb
}

// do submits one I/O through the block queue, unplugs it and waits.
func (tb *testbed) do(p *sim.Proc, write bool, sector int64, data []byte) error {
	io, err := tb.queue.Submit(write, sector, data)
	if err != nil {
		return err
	}
	tb.queue.Unplug()
	return io.Wait(p)
}

func (tb *testbed) run(fn func(p *sim.Proc)) {
	tb.env.Go("test", fn)
	tb.env.Run()
	tb.env.Close()
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestWriteReadRoundTripSingleServer(t *testing.T) {
	tb := newBed(t, bedOpts{})
	want := pattern(128*1024, 3)
	var got []byte
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, 0, append([]byte(nil), want...)); err != nil {
			t.Fatalf("write: %v", err)
		}
		buf := make([]byte, len(want))
		if err := tb.do(p, false, 0, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		got = buf
	})
	if !bytes.Equal(got, want) {
		t.Error("128K round trip through HPBD corrupted data")
	}
	// The bytes must actually live in the server's RamDisk.
	if !bytes.Equal(tb.servers[0].Store().Peek(0, len(want)), want) {
		t.Error("server store does not hold the written bytes")
	}
}

func TestDataLandsOnCorrectServerBlockedLayout(t *testing.T) {
	// Two servers, 1 MB each: sector addresses below 1 MB go to server 0,
	// above to server 1 (blocked, non-striped).
	tb := newBed(t, bedOpts{servers: 2})
	w0 := pattern(4096, 1)
	w1 := pattern(4096, 2)
	tb.run(func(p *sim.Proc) {
		a, _ := tb.queue.Submit(true, 0, append([]byte(nil), w0...))
		b, _ := tb.queue.Submit(true, (1<<20)/blockdev.SectorSize, append([]byte(nil), w1...))
		tb.queue.Unplug()
		a.Wait(p)
		b.Wait(p)
	})
	if !bytes.Equal(tb.servers[0].Store().Peek(0, 4096), w0) {
		t.Error("server 0 does not hold the first MB's data")
	}
	if !bytes.Equal(tb.servers[1].Store().Peek(0, 4096), w1) {
		t.Error("server 1 does not hold the second MB's data")
	}
	if tb.servers[0].Stats().Writes != 1 || tb.servers[1].Stats().Writes != 1 {
		t.Errorf("writes per server = %d/%d, want 1/1",
			tb.servers[0].Stats().Writes, tb.servers[1].Stats().Writes)
	}
}

func TestRequestSpanningServerBoundarySplits(t *testing.T) {
	tb := newBed(t, bedOpts{servers: 2})
	// 64 KB write straddling the 1 MB boundary.
	start := int64(1<<20-32*1024) / blockdev.SectorSize
	want := pattern(64*1024, 9)
	var got []byte
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, start, append([]byte(nil), want...)); err != nil {
			t.Fatalf("write: %v", err)
		}
		buf := make([]byte, len(want))
		if err := tb.do(p, false, start, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		got = buf
	})
	if !bytes.Equal(got, want) {
		t.Error("boundary-spanning round trip corrupted data")
	}
	if tb.dev.Stats().Splits == 0 {
		t.Error("spanning request was not split")
	}
	if tb.servers[0].Stats().Writes == 0 || tb.servers[1].Stats().Writes == 0 {
		t.Error("split pieces did not reach both servers")
	}
}

func TestManyConcurrentRequests(t *testing.T) {
	tb := newBed(t, bedOpts{servers: 4})
	const pagesz = 4096
	const npages = 512 // 2 MB total across 4 servers
	tb.run(func(p *sim.Proc) {
		ios := make([]*blockdev.IO, 0, npages)
		for i := 0; i < npages; i++ {
			io, err := tb.queue.Submit(true, int64(i*8), pattern(pagesz, byte(i)))
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			ios = append(ios, io)
			if i%32 == 31 {
				tb.queue.Unplug()
			}
		}
		tb.queue.Unplug()
		for i, io := range ios {
			if err := io.Wait(p); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		// Read everything back and verify.
		bufs := make([][]byte, npages)
		rios := make([]*blockdev.IO, npages)
		for i := 0; i < npages; i++ {
			bufs[i] = make([]byte, pagesz)
			rio, err := tb.queue.Submit(false, int64(i*8), bufs[i])
			if err != nil {
				t.Fatalf("Submit read %d: %v", i, err)
			}
			rios[i] = rio
			tb.queue.Unplug()
		}
		for i, io := range rios {
			if err := io.Wait(p); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(bufs[i], pattern(pagesz, byte(i))) {
				t.Fatalf("page %d corrupted", i)
			}
		}
	})
}

func TestFlowControlBoundsOutstanding(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.Credits = 2
	tb := newBed(t, bedOpts{area: 16 << 20, client: ccfg})
	tb.run(func(p *sim.Proc) {
		var ios []*blockdev.IO
		for i := 0; i < 64; i++ {
			io, _ := tb.queue.Submit(true, int64(i*256), pattern(4096, byte(i)))
			ios = append(ios, io)
			tb.queue.Unplug() // defeat merging: distinct sectors anyway
		}
		for _, io := range ios {
			io.Wait(p)
		}
	})
	if tb.dev.Stats().CreditStalls == 0 {
		t.Error("64 requests with 2 credits never stalled on flow control")
	}
	st := tb.dev.Stats()
	if st.PhysReqs != 64 || st.Replies != 64 {
		t.Errorf("phys/replies = %d/%d, want 64/64", st.PhysReqs, st.Replies)
	}
}

func TestPoolPressureBlocksAndRecovers(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.PoolBytes = 256 * 1024 // two 128K requests fill the pool
	tb := newBed(t, bedOpts{area: 8 << 20, client: ccfg})
	tb.run(func(p *sim.Proc) {
		var ios []*blockdev.IO
		for i := 0; i < 16; i++ {
			// Non-adjacent 128K writes: no merging, each needs 128K pool.
			sector := int64(i * 2 * (128 * 1024) / blockdev.SectorSize)
			io, err := tb.queue.Submit(true, sector, pattern(128*1024, byte(i)))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			ios = append(ios, io)
			tb.queue.Unplug()
		}
		for _, io := range ios {
			if err := io.Wait(p); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	})
	if tb.dev.Pool().AllocWaits == 0 {
		t.Error("pool allocation never waited despite 16x128K through a 256K pool")
	}
	if tb.dev.Pool().InUse() != 0 {
		t.Errorf("pool leak: %d bytes still in use", tb.dev.Pool().InUse())
	}
}

func TestOutOfRangeIO(t *testing.T) {
	tb := newBed(t, bedOpts{})
	tb.run(func(p *sim.Proc) {
		if _, err := tb.queue.Submit(true, tb.dev.Sectors(), make([]byte, 4096)); err != blockdev.ErrOutOfRange {
			t.Errorf("err = %v, want ErrOutOfRange", err)
		}
	})
}

func TestServerLossFailsDevice(t *testing.T) {
	tb := newBed(t, bedOpts{})
	var errs int
	tb.run(func(p *sim.Proc) {
		// Kill the server's QP mid-run, then issue I/O.
		if err := tb.do(p, true, 0, pattern(4096, 1)); err != nil {
			t.Fatalf("first write should succeed: %v", err)
		}
		for qp := range tb.servers[0].conns {
			qp.Close()
		}
		var ios []*blockdev.IO
		for i := 0; i < 4; i++ {
			io, _ := tb.queue.Submit(true, int64(i*8), pattern(4096, 2))
			tb.queue.Unplug()
			ios = append(ios, io)
		}
		for _, io := range ios {
			if io.Wait(p) != nil {
				errs++
			}
		}
	})
	if errs != 4 {
		t.Errorf("errored I/Os after server loss = %d, want 4", errs)
	}
	if !tb.dev.Failed() {
		t.Error("device did not mark itself failed")
	}
	if tb.dev.Pool().InUse() != 0 {
		t.Errorf("pool leak after failure: %d bytes", tb.dev.Pool().InUse())
	}
}

func TestServerIdleSleepsAndWakes(t *testing.T) {
	tb := newBed(t, bedOpts{})
	tb.run(func(p *sim.Proc) {
		tb.do(p, true, 0, pattern(4096, 1))
		// Let the server idle well past its 200us spin window.
		p.Sleep(5 * sim.Millisecond)
		if tb.servers[0].Stats().IdleSleeps == 0 {
			t.Error("server never yielded the CPU while idle")
		}
		// It must still serve requests after sleeping.
		if err := tb.do(p, false, 0, make([]byte, 4096)); err != nil {
			t.Errorf("read after idle sleep: %v", err)
		}
	})
}

func TestServerAreaExhaustion(t *testing.T) {
	env := sim.NewEnv()
	f := ib.NewFabric(env, ib.DefaultConfig())
	srv := NewServer(f, "mem0", DefaultServerConfig(1<<20))
	dev := NewDevice(f, "hpbd0", DefaultClientConfig())
	if err := dev.ConnectServer(srv, 1<<20); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	dev2 := NewDevice(f, "hpbd1", DefaultClientConfig())
	if err := dev2.ConnectServer(srv, 1<<20); err == nil {
		t.Error("server exported more memory than it has")
	}
	env.Close()
}

func TestSixteenServers(t *testing.T) {
	tb := newBed(t, bedOpts{servers: 16, area: 256 * 1024})
	tb.run(func(p *sim.Proc) {
		// One page to each server's range.
		var ios []*blockdev.IO
		for i := 0; i < 16; i++ {
			sector := int64(i) * (256 * 1024 / blockdev.SectorSize)
			io, err := tb.queue.Submit(true, sector, pattern(4096, byte(i)))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			ios = append(ios, io)
			tb.queue.Unplug()
		}
		for _, io := range ios {
			if err := io.Wait(p); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	})
	for i, srv := range tb.servers {
		if srv.Stats().Writes != 1 {
			t.Errorf("server %d writes = %d, want 1", i, srv.Stats().Writes)
		}
	}
}

// Four concurrent large writes must overlap at the server (multiple
// outstanding RDMAs + staging copies across the worker pool): the batch
// finishes in far less than 4x one request's latency.
func TestServerOverlapsRDMAAndCopy(t *testing.T) {
	one := func(n int) sim.Duration {
		tb := newBed(t, bedOpts{area: 16 << 20})
		var elapsed sim.Duration
		tb.run(func(p *sim.Proc) {
			t0 := p.Now()
			var ios []*blockdev.IO
			for i := 0; i < n; i++ {
				// Discontiguous sectors: no merging.
				io, err := tb.queue.Submit(true, int64(i*600), pattern(128*1024, byte(i)))
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				ios = append(ios, io)
				tb.queue.Unplug()
			}
			for _, io := range ios {
				if err := io.Wait(p); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			elapsed = p.Now().Sub(t0)
		})
		return elapsed
	}
	single := one(1)
	four := one(4)
	if float64(four) > 3.0*float64(single) {
		t.Errorf("4 concurrent writes took %v vs %v for one; server pipeline not overlapping", four, single)
	}
}

func TestStatsCounters(t *testing.T) {
	tb := newBed(t, bedOpts{})
	tb.run(func(p *sim.Proc) {
		tb.do(p, true, 0, pattern(8192, 1))
		tb.do(p, false, 0, make([]byte, 8192))
	})
	d := tb.dev.Stats()
	if d.BytesWritten != 8192 || d.BytesRead != 8192 {
		t.Errorf("device bytes = %d/%d", d.BytesWritten, d.BytesRead)
	}
	s := tb.servers[0].Stats()
	if s.BytesStored != 8192 || s.BytesServed != 8192 {
		t.Errorf("server bytes = %d/%d", s.BytesStored, s.BytesServed)
	}
	if s.RDMAIssued != 2 {
		t.Errorf("RDMA ops = %d, want 2", s.RDMAIssued)
	}
}
