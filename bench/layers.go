package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"time"

	"hpbd/internal/blockdev"
	"hpbd/internal/experiments"
	"hpbd/internal/health"
	"hpbd/internal/hpbd"
	"hpbd/internal/ib"
	"hpbd/internal/netblock"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/vm"
	"hpbd/internal/wire"
	apps "hpbd/internal/workload"
)

// The micro-drives time calls into one layer's public API, with nothing
// of the layers above it running. Each host figure is the median of
// driveRounds rounds of a fixed operation count; each virtual figure is
// read from the same runs and is exact.

const driveRounds = 5

// sink keeps results the compiler could otherwise prove unused.
var sink uint64

// simDrive runs body as the only driver proc of the simulation env and
// returns the host time and allocations of running it to the end.
func simDrive(env *sim.Env, body func(p *sim.Proc)) (time.Duration, heap) {
	defer env.Close()
	env.Go("drive", body)
	return timedRun(env, nil)
}

// drives carries the micro-drives' results and, on a traced run, the
// span recorder: every drive is a span under its layer's.
type drives struct {
	metrics
	tr    *tracer
	layer int // the current layer's span
}

// hostRounds runs round driveRounds times; round performs n operations
// and returns its host time and allocations. It stores ns per operation
// under nsName and, where named, allocations and bytes per operation.
func hostRounds(m *drives, n int, nsName, allocsName, bytesName string, round func() (time.Duration, heap)) {
	defer m.tr.end(m.tr.begin(nsName, m.layer))
	var ns, allocs, bytes []float64
	for i := 0; i < driveRounds; i++ {
		d, h := round()
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(h.mallocs)/float64(n))
		bytes = append(bytes, float64(h.bytes)/float64(n))
	}
	m.setSamples(nsName, ns)
	if allocsName != "" {
		m.setSamples(allocsName, allocs)
	}
	if bytesName != "" {
		m.setSamples(bytesName, bytes)
	}
}

// hostLoop times a plain loop body that needs no simulation.
func hostLoop(body func()) (time.Duration, heap) {
	h0 := readHeap()
	t0 := hostNow()
	body()
	return hostSince(t0), readHeap().since(h0)
}

// nullDriver completes every request at once: what is left is the block
// layer's own cost (and, under the vm drive, the VM's).
type nullDriver struct{ sectors int64 }

func (d nullDriver) Name() string                            { return "null" }
func (d nullDriver) Sectors() int64                          { return d.sectors }
func (d nullDriver) Submit(_ *sim.Proc, r *blockdev.Request) { r.Complete(nil) }

func driveSim(m *drives) error {
	const n = 50000
	hostRounds(m, n, "sim.sleep_ns", "sim.allocs_per_event", "", func() (time.Duration, heap) {
		return simDrive(sim.NewEnv(), func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Microsecond)
			}
		})
	})
	hostRounds(m, n, "sim.pingpong_ns", "", "", func() (time.Duration, heap) {
		env := sim.NewEnv()
		ping, pong := sim.NewChan[int](env, 1), sim.NewChan[int](env, 1)
		env.Go("echo", func(p *sim.Proc) {
			for {
				v, ok := ping.Recv(p)
				if !ok {
					return
				}
				pong.Send(p, v)
			}
		})
		return simDrive(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ping.Send(p, i)
				pong.Recv(p)
			}
		})
	})
	hostRounds(m, n, "sim.after_ns", "", "", func() (time.Duration, heap) {
		env := sim.NewEnv()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				env.After(sim.Microsecond, tick)
			}
		}
		env.After(sim.Microsecond, tick)
		defer env.Close()
		return timedRun(env, nil)
	})
	return nil
}

// driveIB posts work requests between two HCAs with connected queue
// pairs and waits for each completion.
func driveIB(m *drives) error {
	const nSmall, nLarge = 10000, 1000
	var fail error
	round := func(n int, op ib.Opcode, size int, virtName string) func() (time.Duration, heap) {
		return func() (time.Duration, heap) {
			env := sim.NewEnv()
			f := ib.NewFabric(env, ib.DefaultConfig())
			a, b := f.NewHCA("a"), f.NewHCA("b")
			sendCQ, recvCQ := a.CreateCQ("a-send"), b.CreateCQ("b-recv")
			qa, qb := a.CreateQP(sendCQ, a.CreateCQ("a-recv")), b.CreateQP(b.CreateCQ("b-send"), recvCQ)
			ib.Connect(qa, qb)
			src, dst := a.RegisterMRAtSetup(make([]byte, size)), b.RegisterMRAtSetup(make([]byte, size))
			return simDrive(env, func(p *sim.Proc) {
				v0 := p.Now()
				for i := 0; i < n; i++ {
					if op == ib.OpSend {
						if err := qb.PostRecv(ib.RecvWR{ID: uint64(i), Local: ib.Segment{MR: dst, Len: size}}); err != nil {
							fail = err
							return
						}
					}
					err := qa.PostSend(p, ib.SendWR{ID: uint64(i), Op: op, Local: ib.Segment{MR: src, Len: size}, RemoteKey: dst.RKey})
					if err != nil {
						fail = err
						return
					}
					if op == ib.OpSend {
						recvCQ.WaitPoll(p)
					}
					if e := sendCQ.WaitPoll(p); e.Status != ib.StatusSuccess {
						fail = fmt.Errorf("ib %v: completion status %v", op, e.Status)
						return
					}
				}
				if virtName != "" {
					m.set(virtName, p.Now().Sub(v0).Micros()/float64(n))
				}
			})
		}
	}
	hostRounds(m, nSmall, "ib.rdma4k_ns", "ib.allocs_per_wr", "", round(nSmall, ib.OpRDMAWrite, 4<<10, "ib.virt_rdma4k_us"))
	hostRounds(m, nLarge, "ib.rdma128k_ns", "", "", round(nLarge, ib.OpRDMAWrite, 128<<10, "ib.virt_rdma128k_us"))
	hostRounds(m, nSmall, "ib.send_ns", "", "", round(nSmall, ib.OpSend, wire.RequestSize, ""))
	return fail
}

func driveWire(m *drives) error {
	const n = 2000000
	buf := make([]byte, wire.RequestSize)
	var fail error
	hostRounds(m, n, "wire.marshal_ns", "", "", func() (time.Duration, heap) {
		return hostLoop(func() {
			for i := 0; i < n; i++ {
				wire.MarshalRequest(buf, &wire.Request{Type: wire.ReqWrite, Handle: uint64(i), Offset: uint64(i) << 12, Length: 4096})
				req, err := wire.UnmarshalRequest(buf)
				if err != nil {
					fail = err
				}
				sink += req.Handle
			}
		})
	})
	return fail
}

// hpbdRoundTrips sends n sequential requests of one size and direction
// through a block queue over a device and one server, as the package's
// own overhead benchmark does, optionally with the health engine
// attached the way cluster.Build wires it. It returns the mean virtual
// round trip beside the host cost.
func hpbdRoundTrips(n, size int, write, withHealth bool) (time.Duration, heap, sim.Duration, error) {
	env := sim.NewEnv()
	f := ib.NewFabric(env, ib.DefaultConfig())
	ccfg := hpbd.DefaultClientConfig()
	if withHealth {
		ccfg.Telemetry = telemetry.New(env)
	}
	dev := hpbd.NewDevice(f, "hpbd0", ccfg)
	srv := hpbd.NewServer(f, "mem0", hpbd.DefaultServerConfig(1<<20))
	if err := dev.ConnectServer(srv, 1<<20); err != nil {
		return 0, heap{}, 0, err
	}
	q := blockdev.NewQueue(env, netmodel.DefaultHost(), dev)
	if withHealth {
		mon := health.NewMonitor(env, ccfg.Telemetry, health.Config{})
		q.SetActivityHook(mon.Kick)
		mon.Start()
	}
	data := make([]byte, size)
	var fail error
	var virtRun sim.Duration
	d, h := simDrive(env, func(p *sim.Proc) {
		v0 := p.Now()
		for i := 0; i < n; i++ {
			io, err := q.Submit(write, 0, data)
			if err == nil {
				q.Unplug()
				err = io.Wait(p)
			}
			if err != nil {
				fail = err
				return
			}
		}
		virtRun = p.Now().Sub(v0)
	})
	return d, h, virtRun / sim.Duration(n), fail
}

func driveHPBD(m *drives) error {
	const n4k, n128k = 3000, 500
	var fail error
	trips := func(n, size int, write, withHealth bool, virtName string) func() (time.Duration, heap) {
		return func() (time.Duration, heap) {
			d, h, v, err := hpbdRoundTrips(n, size, write, withHealth)
			if err != nil {
				fail = err
			}
			if virtName != "" {
				m.set(virtName, v.Micros())
			}
			return d, h
		}
	}
	hostRounds(m, n4k, "hpbd.rt4k_ns", "hpbd.rt4k_allocs", "", trips(n4k, 4<<10, true, false, "hpbd.virt_write4k_us"))
	hostRounds(m, n128k, "hpbd.rt128k_ns", "", "hpbd.rt128k_bytes", trips(n128k, 128<<10, true, false, "hpbd.virt_write128k_us"))
	trips(n4k/10, 4<<10, false, false, "hpbd.virt_read4k_us")()
	trips(n128k/10, 128<<10, false, false, "hpbd.virt_read128k_us")()

	// The health tax is the median 4 K round trip with the monitor
	// attached, less the median without it.
	taxed := &drives{metrics: metrics{}, tr: m.tr, layer: m.layer}
	hostRounds(taxed, n4k, "hpbd.rt4k_ns", "hpbd.rt4k_allocs", "", trips(n4k, 4<<10, true, true, ""))
	m.set("health.tax_ns_per_req", taxed.metrics["hpbd.rt4k_ns"].Value-m.metrics["hpbd.rt4k_ns"].Value)
	m.set("health.tax_allocs_per_req", taxed.metrics["hpbd.rt4k_allocs"].Value-m.metrics["hpbd.rt4k_allocs"].Value)

	// The staging pool under the swap mix's two sizes, up to a credit
	// window of buffers outstanding.
	const nPool = 500000
	hostRounds(m, nPool, "pool.alloc_free_ns", "", "", func() (time.Duration, heap) {
		env := sim.NewEnv()
		defer env.Close()
		pool := hpbd.NewBufferPool(env, hpbd.DefaultClientConfig().PoolBytes)
		rnd := rand.New(rand.NewSource(1))
		held := make([]int, 0, 16)
		return hostLoop(func() {
			for i := 0; i < nPool; i++ {
				if len(held) < cap(held) {
					size := readBytes
					if rnd.Intn(mixReads+mixWrites) < mixWrites {
						size = writeBytes
					}
					if off, err := pool.TryAlloc(size); err == nil {
						held = append(held, off)
						continue
					}
				}
				// Window or pool full: return a buffer, as a reply would.
				k := rnd.Intn(len(held))
				pool.Free(held[k])
				held[k] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		})
	})
	return fail
}

func driveBlockdev(m *drives) error {
	const n = 20000
	var fail error
	hostRounds(m, n, "blockdev.submit_ns", "", "", func() (time.Duration, heap) {
		env := sim.NewEnv()
		q := blockdev.NewQueue(env, netmodel.DefaultHost(), nullDriver{1 << 20})
		data := make([]byte, pageBytes)
		return simDrive(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				io, err := q.Submit(true, int64(i%1024)*8, data)
				if err == nil {
					q.Unplug()
					err = io.Wait(p)
				}
				if err != nil {
					fail = err
					return
				}
			}
		})
	})
	return fail
}

// driveVM times the VM's two paths into a page: the resident hit, and the
// major fault with the swap device costing nothing.
func driveVM(m *drives) error {
	const memPages = 1024
	var fail error
	touch := func(n, pages, readAhead int, countFaults bool) func() (time.Duration, heap) {
		return func() (time.Duration, heap) {
			env := sim.NewEnv()
			cfg := vm.DefaultConfig(memPages * vm.PageSize)
			cfg.ReadAheadPages = readAhead
			sys := vm.NewSystem(env, cfg)
			sys.AddSwap(blockdev.NewQueue(env, cfg.Host, nullDriver{int64(pages) * vm.SectorsPerPage * 2}), 0)
			as := sys.NewAddressSpace("drive", pages)
			// A first pass maps every page (and, when they do not fit,
			// pushes the early ones out to swap) before the clock starts.
			env.Go("populate", func(p *sim.Proc) {
				for i := 0; i < pages && fail == nil; i++ {
					fail = as.Touch(p, i, true)
				}
			})
			env.Run()
			faults0 := sys.Stats().SwapIns
			d, h := simDrive(env, func(p *sim.Proc) {
				for i := 0; i < n && fail == nil; i++ {
					fail = as.Touch(p, i%pages, true)
				}
			})
			if faults := sys.Stats().SwapIns - faults0; countFaults && faults < int64(n)/2 {
				fail = fmt.Errorf("vm fault drive: only %d of %d touches were major faults", faults, n)
			}
			return d, h
		}
	}
	const nHit, nFault = 2000000, 5000
	hostRounds(m, nHit, "vm.touch_hit_ns", "", "", touch(nHit, memPages/2, 8, false))
	// Cycling over twice the memory with read-ahead off makes every touch
	// a swap-in of a page the previous lap pushed out.
	hostRounds(m, nFault, "vm.fault_ns", "", "", touch(nFault, memPages*2, 1, true))
	return fail
}

func driveWorkload(m *drives) error {
	const n, elems = 2000000, 1 << 18
	var fail error
	hostRounds(m, n, "workload.access_ns", "", "", func() (time.Duration, heap) {
		env := sim.NewEnv()
		sys := vm.NewSystem(env, vm.DefaultConfig(4<<20))
		arr := apps.NewPagedArray(sys, "drive", elems, 4, apps.QuicksortCPUPerAccess)
		return simDrive(env, func(p *sim.Proc) {
			for i := 0; i < n && fail == nil; i++ {
				fail = arr.Access(p, i%elems, false)
			}
		})
	})
	return fail
}

func driveTelemetry(m *drives) error {
	const n = 2000000
	hostRounds(m, n, "telemetry.observe_ns", "", "", func() (time.Duration, heap) {
		env := sim.NewEnv()
		defer env.Close()
		h := telemetry.New(env).Histogram("drive")
		return hostLoop(func() {
			for i := 0; i < n; i++ {
				h.Observe(sim.Duration(i&0xffff) * sim.Nanosecond)
			}
		})
	})
	const nRec = n / 4
	hostRounds(m, nRec, "telemetry.lifecycle_record_ns", "", "", func() (time.Duration, heap) {
		env := sim.NewEnv()
		defer env.Close()
		lc := telemetry.New(env).EnableLifecycle(0)
		rec := telemetry.ReqRecord{Bytes: pageBytes, Server: "mem0", End: sim.Time(120 * sim.Microsecond)}
		for s := range rec.Stages {
			rec.Stages[s] = 15 * sim.Microsecond
		}
		return hostLoop(func() {
			for i := 0; i < nRec; i++ {
				rec.ID = uint64(i)
				lc.Record(&rec)
			}
		})
	})
	return nil
}

// driveNetblock measures the real TCP path over the loopback interface
// without a workload's worth of traffic: the unloaded round trip of 4 K
// requests, one in flight, and a short run of the swap mix for the
// client's stage breakdown.
func driveNetblock(m *drives) error {
	defer m.tr.end(m.tr.begin("netblock.rtt4k", m.layer))
	const n, area = 20000, 4 << 20
	srv, err := netblock.Serve("127.0.0.1:0", netblock.ServerConfig{CapacityBytes: area, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := netblock.Dial(srv.Addr(), area, netCredits)
	if err != nil {
		return err
	}
	defer c.Close()
	s := genRand4K(1, area, n, n/10)
	d := newNetDriver(c, area)
	d.run(prefill(area), nil, -1)
	d.run(s.ops[:s.warm], nil, -1)
	d.reads, d.writes = nil, nil
	d.run(s.timed(), nil, -1)
	if d.failed > 0 {
		return fmt.Errorf("netblock round trips: %d ops failed", d.failed)
	}
	rtts := sortedMicros(append(d.reads, d.writes...))
	m.set("netblock.rtt4k_p50_us", rank(rtts, 0.50))
	m.set("netblock.rtt4k_p99_us", rank(rtts, 0.99))

	defer m.tr.end(m.tr.begin("netblock.swapmix", m.layer))
	r, err := netRepeat(genSwapmix(1, 2*area, 8000, 800), nil, -1)
	if err != nil || r.failed > 0 {
		return fmt.Errorf("netblock swap mix: %d ops failed: %v", r.failed, err)
	}
	for name, v := range r.noisy {
		m.set(name, v)
	}
	return nil
}

// driveExperiments is the accuracy check: fig5's two headline ratios at
// the paper's scale, to be read against the paper's own.
func driveExperiments(m *drives) error {
	res, err := experiments.Fig5(experiments.Config{Scale: experiments.PaperScale, Seed: 1})
	if err != nil {
		return err
	}
	for name, rows := range map[string][2]string{
		"experiments.fig5_hpbd_over_local": {"hpbd", "local-memory"},
		"experiments.fig5_disk_over_hpbd":  {"disk", "hpbd"},
	} {
		r, err := res.Ratio(rows[0], rows[1])
		if err != nil {
			return err
		}
		m.set(name, r)
	}
	return nil
}

// microDrives runs every layer's drives.
func microDrives(tr *tracer) (metrics, error) {
	m := &drives{metrics: metrics{}, tr: tr}
	for _, d := range []struct {
		layer string
		run   func(*drives) error
	}{
		{"sim", driveSim}, {"ib", driveIB}, {"wire", driveWire}, {"hpbd", driveHPBD},
		{"blockdev", driveBlockdev}, {"vm", driveVM}, {"workload", driveWorkload},
		{"telemetry", driveTelemetry}, {"netblock", driveNetblock}, {"experiments", driveExperiments},
	} {
		m.layer = tr.begin("drive."+d.layer, -1)
		err := d.run(m)
		tr.end(m.layer)
		if err != nil {
			return m.metrics, fmt.Errorf("%s: %w", d.layer, err)
		}
	}
	return m.metrics, nil
}
