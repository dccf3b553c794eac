package hpbd

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/ib"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/tenant"
	"hpbd/internal/wire"
)

// writeBlocks writes count blocks of blockBytes each, sequentially, with
// a per-block pattern derived from seed, and returns the first error.
func (cb *testbed) writeBlocks(p *sim.Proc, count, blockBytes int, seed byte) error {
	secPerBlock := int64(blockBytes / blockdev.SectorSize)
	for i := 0; i < count; i++ {
		if err := cb.do(p, true, int64(i)*secPerBlock, pattern(blockBytes, seed+byte(i))); err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
	}
	return nil
}

// verifyBlocks reads every block back and compares against the seed
// pattern, failing the test on any mismatch (the corruption check).
func (cb *testbed) verifyBlocks(t *testing.T, p *sim.Proc, count, blockBytes int, seed byte) {
	t.Helper()
	secPerBlock := int64(blockBytes / blockdev.SectorSize)
	for i := 0; i < count; i++ {
		buf := make([]byte, blockBytes)
		if err := cb.do(p, false, int64(i)*secPerBlock, buf); err != nil {
			t.Errorf("read %d: %v", i, err)
			return
		}
		if !bytes.Equal(buf, pattern(blockBytes, seed+byte(i))) {
			t.Errorf("block %d corrupted after recovery", i)
		}
	}
}

// assertExactPartition checks the lifecycle invariant on every recorded
// request — degraded and retried ones included: the stages must sum to
// the end-to-end latency exactly.
func assertExactPartition(t *testing.T, dev *Device) {
	t.Helper()
	lc := dev.Lifecycle()
	if lc == nil {
		t.Fatal("lifecycle analyzer disabled")
	}
	for _, rec := range lc.Flight().Records() {
		var sum sim.Duration
		for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
			if rec.Stages[s] < 0 {
				t.Errorf("req %d: stage %v negative: %v", rec.ID, s, rec.Stages[s])
			}
			sum += rec.Stages[s]
		}
		if sum != rec.Total() {
			t.Errorf("req %d (server=%s retries=%d): stages sum to %v, end-to-end is %v",
				rec.ID, rec.Server, rec.Retries, sum, rec.Total())
		}
	}
}

// recoveryConfig arms retries and the watchdog at test-friendly scales.
func recoveryConfig() ClientConfig {
	ccfg := DefaultClientConfig()
	ccfg.MaxRetries = 2
	ccfg.RequestTimeout = 500 * sim.Microsecond
	return ccfg
}

// TestChaosTable drives the fault-kind matrix: each case runs a write
// stream while its schedule fires, optionally rewrites everything (so
// ranges lost with a crashed single-copy server regain an authoritative
// copy), reads all data back and compares byte-for-byte, then checks
// the lifecycle partition and the expected recovery counters.
func TestChaosTable(t *testing.T) {
	const blockBytes = 4096
	cases := []struct {
		name       string
		servers    int
		fallback   bool
		hybrid     bool
		blockBytes int
		blocks     int
		spec       string
		rewrite    bool // second write pass after the faults
		check      func(t *testing.T, cb *testbed)
	}{
		{
			// Server dies mid swap-out stream; the fallback disk absorbs
			// the rest. The rewrite pass gives every range an
			// authoritative copy (pre-crash ranges lived only on the
			// dead server, as in the paper's single-copy deployment).
			name: "crash-during-swap-out", servers: 1, fallback: true,
			blockBytes: blockBytes, blocks: 24,
			spec: "crash@400us=mem0", rewrite: true,
			check: func(t *testing.T, cb *testbed) {
				st := cb.dev.Stats()
				if st.LinkFailures != 1 {
					t.Errorf("LinkFailures = %d, want 1", st.LinkFailures)
				}
				if st.Fallbacks == 0 {
					t.Error("no requests absorbed by the fallback")
				}
				if cb.dev.Failed() {
					t.Error("device failed despite fallback")
				}
			},
		},
		{
			// Crash while 128 KB hybrid-path requests are in flight: the
			// large-transfer RDMA path must recover, not just the pool path.
			name: "crash-during-rdma", servers: 1, fallback: true, hybrid: true,
			blockBytes: 128 << 10, blocks: 12,
			spec: "crash@400us=mem0", rewrite: true,
			check: func(t *testing.T, cb *testbed) {
				st := cb.dev.Stats()
				if st.HybridLarge == 0 {
					t.Error("hybrid path never used; case mis-configured")
				}
				if st.LinkFailures != 1 {
					t.Errorf("LinkFailures = %d, want 1", st.LinkFailures)
				}
				if cb.dev.Failed() {
					t.Error("device failed despite fallback")
				}
			},
		},
		{
			// Double fault: both striped servers die at different times.
			name: "double-fault", servers: 2, fallback: true,
			blockBytes: blockBytes, blocks: 24,
			spec: "crash@300us=mem0,crash@700us=mem1", rewrite: true,
			check: func(t *testing.T, cb *testbed) {
				st := cb.dev.Stats()
				if st.LinkFailures != 2 {
					t.Errorf("LinkFailures = %d, want 2", st.LinkFailures)
				}
				if cb.dev.DownLinks() != 2 {
					t.Errorf("DownLinks = %d, want 2", cb.dev.DownLinks())
				}
				if cb.dev.Failed() {
					t.Error("device failed despite fallback")
				}
			},
		},
		{
			// Transient send errors burst, then clean air: requests must
			// retry through and steady state must resume with no data
			// loss and no degradation.
			// The burst is two errors: with sequential traffic both land
			// on the same request, which survives exactly because
			// MaxRetries is 2 (attempts 1 and 2 fail, attempt 3 clears).
			name: "recovery-then-steady-state", servers: 1, fallback: false,
			blockBytes: blockBytes, blocks: 24,
			spec: "senderr@200usx2=hpbd0",
			check: func(t *testing.T, cb *testbed) {
				st := cb.dev.Stats()
				if st.Retries == 0 {
					t.Error("send-error burst caused no retries")
				}
				if st.LinkFailures != 0 || st.Fallbacks != 0 {
					t.Errorf("transient errors escalated: links=%d fallbacks=%d",
						st.LinkFailures, st.Fallbacks)
				}
				if cb.dev.Failed() {
					t.Error("device failed on transient errors")
				}
			},
		},
		{
			// Receive-credit starvation: the server withholds buffers,
			// credits drain, senders stall — and everything completes
			// once the window lifts.
			name: "recv-starvation", servers: 1, fallback: false,
			blockBytes: blockBytes, blocks: 24,
			spec: "starve@200us+1ms=mem0",
			check: func(t *testing.T, cb *testbed) {
				if cb.dev.Failed() {
					t.Error("device failed under starvation")
				}
				if got := cb.dev.Stats().LinkFailures; got != 0 {
					t.Errorf("starvation escalated to %d link failures", got)
				}
			},
		},
		{
			// Registration-pool exhaustion: allocations stall until the
			// injector frees the pool; no errors, no data loss.
			name: "pool-exhaustion", servers: 1, fallback: false,
			blockBytes: blockBytes, blocks: 24,
			spec: "poolx@200us+1ms=hpbd0",
			check: func(t *testing.T, cb *testbed) {
				if cb.dev.Failed() {
					t.Error("device failed under pool exhaustion")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ccfg := recoveryConfig()
			if tc.hybrid {
				ccfg.HybridDataPath = true
			}
			area := int64(tc.blocks*tc.blockBytes)/int64(tc.servers) + 1<<20
			cb := newBed(t, bedOpts{servers: tc.servers, area: area, client: ccfg, shared: true, fallback: tc.fallback, faults: tc.spec})
			cb.run(func(p *sim.Proc) {
				if err := cb.writeBlocks(p, tc.blocks, tc.blockBytes, 3); err != nil {
					t.Errorf("write pass: %v", err)
					return
				}
				seed := byte(3)
				if tc.rewrite {
					seed = 11
					if err := cb.writeBlocks(p, tc.blocks, tc.blockBytes, seed); err != nil {
						t.Errorf("rewrite pass: %v", err)
						return
					}
				}
				cb.verifyBlocks(t, p, tc.blocks, tc.blockBytes, seed)
			})
			assertExactPartition(t, cb.dev)
			if cb.inj != nil {
				if got := cb.reg.Counter("faultsim.injected").Value(); got == 0 {
					t.Error("schedule injected no faults; case timing is off")
				}
				if got := cb.reg.Counter("faultsim.skipped").Value(); got != 0 {
					t.Errorf("schedule skipped %d faults (bad target?)", got)
				}
			}
			if leak := cb.dev.Pool().InUse(); leak != 0 {
				t.Errorf("pool leak after chaos: %d bytes", leak)
			}
			assertRecordsHome(t, cb.dev)
		})
	}
}

// TestWedgedServerRecovers covers the watchdog fix: a server hang longer
// than the request timeout must not wedge the device. With a fallback
// the stalled writes are cancelled, retried, and finally absorbed; the
// device stays alive and the data reads back intact.
func TestWedgedServerRecovers(t *testing.T) {
	ccfg := recoveryConfig()
	cb := newBed(t, bedOpts{client: ccfg, shared: true, fallback: true, faults: "hang@100us+20ms=mem0"})
	const blocks = 8
	cb.run(func(p *sim.Proc) {
		if err := cb.writeBlocks(p, blocks, 4096, 7); err != nil {
			t.Errorf("writes under hang: %v", err)
			return
		}
		cb.verifyBlocks(t, p, blocks, 4096, 7)
	})
	if got := cb.reg.Counter("hpbd.timeout_cancels").Value(); got == 0 {
		t.Error("watchdog cancelled nothing; the hang went unnoticed")
	}
	if cb.dev.Failed() {
		t.Error("device failed on a hung (not dead) server")
	}
	assertExactPartition(t, cb.dev)
	assertRecordsHome(t, cb.dev)
}

// TestWedgedServerNoFallback is the same hang without a fallback: the
// stalled requests must eventually error (per-request, after retries)
// instead of hanging forever, the device must stay alive, and service
// must resume once the hang lifts.
func TestWedgedServerNoFallback(t *testing.T) {
	ccfg := recoveryConfig()
	cb := newBed(t, bedOpts{client: ccfg, shared: true, faults: "hang@100us+10ms=mem0"})
	var errs, oks int
	cb.run(func(p *sim.Proc) {
		var ios []*blockdev.IO
		for i := 0; i < 4; i++ {
			io, err := cb.queue.Submit(true, int64(i*8), pattern(4096, 9))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			cb.queue.Unplug()
			ios = append(ios, io)
		}
		for _, io := range ios {
			if io.Wait(p) != nil {
				errs++
			} else {
				oks++
			}
		}
		// Outlast the hang, then prove steady state resumed.
		p.Sleep(15 * sim.Millisecond)
		if err := cb.writeBlocks(p, 4, 4096, 21); err != nil {
			t.Errorf("post-hang writes: %v", err)
			return
		}
		cb.verifyBlocks(t, p, 4, 4096, 21)
	})
	if errs == 0 && cb.reg.Counter("hpbd.timeout_cancels").Value() == 0 {
		t.Error("hang neither errored nor cancelled any request (watchdog dead?)")
	}
	if cb.dev.Failed() {
		t.Error("a wedged server must not kill the device")
	}
	assertExactPartition(t, cb.dev)
	assertRecordsHome(t, cb.dev)
}

// TestStripedReadWithOneLinkDown holds the one behaviour direct scatter
// changes: a read that spans two servers, one of them lost and no
// fallback to absorb its piece, completes exactly once with ErrServerLost.
// The surviving piece may already have landed in the I/O buffer — on an
// error its contents are undefined (blockdev.IO), so nothing is asserted
// about them — but the device stays up, nothing stays in flight or in the
// pool, and the live stripe still reads back.
func TestStripedReadWithOneLinkDown(t *testing.T) {
	const stripe = 64 << 10
	ccfg := recoveryConfig()
	ccfg.StripeBytes = stripe
	tb := newBed(t, bedOpts{servers: 2, client: ccfg})
	want := pattern(2*stripe, 3)
	var io *blockdev.IO
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, 0, append([]byte(nil), want...)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		tb.servers[1].Crash()
		var err error
		if io, err = tb.queue.Submit(false, 0, make([]byte, 2*stripe)); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		tb.queue.Unplug()
		if err := io.Wait(p); !errors.Is(err, ErrServerLost) {
			t.Errorf("striped read over a dead server = %v, want ErrServerLost", err)
		}
		if tb.dev.Stats().Splits == 0 {
			t.Error("the read did not split across the two servers")
		}
		live := make([]byte, stripe)
		if err := tb.do(p, false, 0, live); err != nil || !bytes.Equal(live, want[:stripe]) {
			t.Errorf("live stripe after the loss: err=%v, intact=%v", err, bytes.Equal(live, want[:stripe]))
		}
	})
	// The queue has drained: a second completion (the live piece finishing
	// after the lost one settled the parent) would have replaced the error.
	if io == nil {
		return
	}
	if err := io.Err(); !errors.Is(err, ErrServerLost) {
		t.Errorf("after the drain the read's error is %v, want ErrServerLost", err)
	}
	if tb.dev.Failed() || tb.dev.DownLinks() != 1 {
		t.Errorf("failed=%v downLinks=%d, want a live device with one link down", tb.dev.Failed(), tb.dev.DownLinks())
	}
	if n, used := tb.dev.inflight.on(nil), tb.dev.Pool().InUse(); n != 0 || used != 0 {
		t.Errorf("%d requests in flight, %d pool bytes held after the drain", n, used)
	}
}

// TestDefaultConfigStillFailStop pins the compatibility contract: with
// recovery disabled (the default config) a lost server still fails the
// whole device, exactly as before this package grew a recovery path.
func TestDefaultConfigStillFailStop(t *testing.T) {
	cb := newBed(t, bedOpts{shared: true, faults: "crash@300us=mem0"})
	var failed int
	cb.run(func(p *sim.Proc) {
		if err := cb.do(p, true, 0, pattern(4096, 5)); err != nil {
			t.Fatalf("pre-crash write: %v", err)
		}
		p.Sleep(400 * sim.Microsecond) // outlast the scheduled crash
		for i := 0; i < 4; i++ {
			io, err := cb.queue.Submit(true, int64(i*8), pattern(4096, 5))
			if err != nil {
				failed++
				continue
			}
			cb.queue.Unplug()
			if io.Wait(p) != nil {
				failed++
			}
		}
	})
	if failed == 0 {
		t.Error("crash before traffic end produced no failures under fail-stop config")
	}
	if !cb.dev.Failed() {
		t.Error("fail-stop device did not fail on server loss")
	}
}

// TestRecvWindowConserved guards the receive-window path every connection
// shares (repost): with and without tenancy, with and without a StarveRecv
// window opening mid-burst, once the burst drains every receive slot of
// every connection is either posted or withheld, the credit bank
// balances, and every byte reads back.
func TestRecvWindowConserved(t *testing.T) {
	const blocks, blockBytes = 64, 4096
	for _, tenancy := range []bool{false, true} {
		for _, starve := range []bool{false, true} {
			tenancy, starve := tenancy, starve
			t.Run(fmt.Sprintf("tenancy=%v/starve=%v", tenancy, starve), func(t *testing.T) {
				// The window opens while the bursts are still being
				// submitted: early enough that, under tenancy, the four
				// pool credits have not all been consumed yet.
				const starveAt, starveFor = 10 * sim.Microsecond, 200 * sim.Microsecond
				var env *sim.Env
				var srv *Server
				var devs []*Device
				if tenancy {
					tb := newBed(t, bedOpts{tenancy: "pool=4,a:w1,b:w1"})
					env, srv, devs = tb.env, tb.servers[0], []*Device{tb.devs["a"], tb.devs["b"]}
				} else {
					cb := newBed(t, bedOpts{shared: true})
					env, srv, devs = cb.env, cb.servers[0], []*Device{cb.dev}
				}
				if starve {
					env.After(starveAt, func() { srv.StarveRecv(starveFor) })
				}
				stashed := 0
				env.After(starveAt+starveFor-sim.Microsecond, func() { stashed = len(srv.starved) })
				for i, dev := range devs {
					i, dev := i, dev
					env.Go(fmt.Sprintf("burst%d", i), func(p *sim.Proc) {
						// The writes go out as one burst, overrunning the
						// window (under tenancy into RNR pushback, which the
						// retry budget and the fallback absorb).
						want := make([][]byte, blocks)
						reqs := make([]*blockdev.Request, blocks)
						for b := range want {
							want[b] = pattern(blockBytes, byte(17*i+b))
							reqs[b] = blockdev.NewRequest(env, true, int64(b*blockBytes/blockdev.SectorSize), want[b])
							dev.Submit(p, reqs[b])
						}
						for b, r := range reqs {
							if err := r.Wait(p); err != nil {
								t.Errorf("dev %d write %d: %v", i, b, err)
								return
							}
						}
						for b := range want {
							got := make([]byte, blockBytes)
							r := blockdev.NewRequest(env, false, int64(b*blockBytes/blockdev.SectorSize), got)
							dev.Submit(p, r)
							if err := r.Wait(p); err != nil {
								t.Errorf("dev %d read %d: %v", i, b, err)
								return
							}
							if !bytes.Equal(got, want[b]) {
								t.Errorf("dev %d block %d read back different bytes", i, b)
							}
						}
					})
				}
				env.Run()
				env.Close()

				if starve && stashed == 0 {
					t.Error("the starvation window withheld no slot; case timing is off")
				}
				if len(srv.conns) != len(devs) {
					t.Fatalf("%d connections, want %d", len(srv.conns), len(devs))
				}
				for qp, conn := range srv.conns {
					withheld := 0
					for _, sl := range srv.starved {
						if sl.conn == conn {
							withheld++
						}
					}
					if tenancy {
						for _, sl := range srv.tn.withheld[conn.tenantID] {
							if sl.conn == conn {
								withheld++
							}
						}
					}
					if got := qp.PostedRecvs() + withheld; got != recvDepth {
						t.Errorf("tenant %q: %d posted + %d withheld receive slots, want %d in all",
							conn.tenantID, qp.PostedRecvs(), withheld, recvDepth)
					}
				}
				if err := srv.TenancyCheck(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestAttachDuringStarve pins what a connection attached inside a
// StarveRecv window gets. The paper path posts its whole window outright
// (the fault withholds reposts, not first posts); under tenancy the slots
// wait out the window in the stash and then enter through the credit bank.
func TestAttachDuringStarve(t *testing.T) {
	for _, tenancy := range []bool{false, true} {
		tenancy := tenancy
		t.Run(fmt.Sprintf("tenancy=%v", tenancy), func(t *testing.T) {
			env := sim.NewEnv()
			f := ib.NewFabric(env, ib.DefaultConfig())
			scfg := DefaultServerConfig(1 << 20)
			ccfg := DefaultClientConfig()
			if tenancy {
				spec, err := tenant.ParseSpec("pool=4,a:w1")
				if err != nil {
					t.Fatal(err)
				}
				scfg.Tenancy = spec
				ccfg.Tenant = "a"
			}
			srv := NewServer(f, "mem0", scfg)
			dev := NewDevice(f, "hpbd0", ccfg)
			during := -1
			env.After(10*sim.Microsecond, func() {
				srv.StarveRecv(200 * sim.Microsecond)
				if err := dev.ConnectServer(srv, 1<<20); err != nil {
					t.Errorf("ConnectServer: %v", err)
					return
				}
				for qp := range srv.conns {
					during = qp.PostedRecvs()
				}
			})
			env.Run()
			env.Close()

			want := recvDepth
			if tenancy {
				want = 0
			}
			if during != want {
				t.Errorf("%d receives posted inside the window, want %d", during, want)
			}
			for qp, conn := range srv.conns {
				withheld := len(srv.starved)
				if tenancy {
					withheld += len(srv.tn.withheld[conn.tenantID])
				}
				if got := qp.PostedRecvs() + withheld; got != recvDepth || qp.PostedRecvs() == 0 {
					t.Errorf("after the window: %d posted + %d withheld, want %d in all and some posted",
						qp.PostedRecvs(), withheld, recvDepth)
				}
			}
			if err := srv.TenancyCheck(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestServerNaksMalformedRequest reaches the one arm of handleRecvCQE no
// device drives: a control message that does not decode. A raw client —
// a bare QP attached to the server — sends garbage: the server answers
// StatusBadRequest under the handle the decode yields (zero: it failed
// before the field), gives the receive slot back, counts the message and,
// under tenancy, returns the request's credit to the bank. The next
// well-formed request on the same connection is served.
func TestServerNaksMalformedRequest(t *testing.T) {
	for _, tenancy := range []bool{false, true} {
		tenancy := tenancy
		t.Run(fmt.Sprintf("tenancy=%v", tenancy), func(t *testing.T) {
			env := sim.NewEnv()
			reg := telemetry.New(env)
			f := ib.NewFabric(env, ib.DefaultConfig())
			scfg := DefaultServerConfig(1 << 20)
			scfg.Telemetry = reg
			tenantID := ""
			if tenancy {
				spec, err := tenant.ParseSpec("pool=4,a:w1")
				if err != nil {
					t.Fatal(err)
				}
				scfg.Tenancy, tenantID = spec, "a"
			}
			srv := NewServer(f, "mem0", scfg)

			hca := f.NewHCA("raw")
			cq := hca.CreateCQ("raw-cq")
			qp := hca.CreateQP(cq, cq)
			srvQP, err := srv.attach(qp, 1<<20, tenantID, nil)
			if err != nil {
				t.Fatal(err)
			}
			conn := srv.conns[srvQP]
			ctl := hca.RegisterMRAtSetup(make([]byte, wire.RequestSize))
			replies := hca.RegisterMRAtSetup(make([]byte, 2*wire.ReplySize))
			data := hca.RegisterMRAtSetup(pattern(4096, 5))
			for slot := 0; slot < 2; slot++ {
				if err := qp.PostRecv(ib.RecvWR{ID: uint64(slot),
					Local: ib.Segment{MR: replies, Off: slot * wire.ReplySize, Len: wire.ReplySize}}); err != nil {
					t.Fatal(err)
				}
			}
			held := func() int {
				if !tenancy {
					return 0
				}
				return srv.tn.bank.Held(tenantID)
			}
			window := func() (posted, withheld int) {
				withheld = len(srv.starved)
				if tenancy {
					withheld += len(srv.tn.withheld[tenantID])
				}
				return srvQP.PostedRecvs(), withheld
			}

			// exchange sends the control message in ctl and returns the reply.
			exchange := func(p *sim.Proc) wire.Reply {
				if err := qp.PostSend(p, ib.SendWR{Op: ib.OpSend, Local: ib.Segment{MR: ctl, Len: wire.RequestSize}}); err != nil {
					t.Fatalf("PostSend: %v", err)
				}
				for {
					e := cq.WaitPoll(p)
					if e.Status != ib.StatusSuccess {
						t.Fatalf("CQE %+v", e)
					}
					if e.Op != ib.OpRecv {
						continue // our own send completing
					}
					slot := int(e.WRID)
					rep, err := wire.UnmarshalReply(replies.Buf[slot*wire.ReplySize : (slot+1)*wire.ReplySize])
					if err != nil {
						t.Fatalf("reply does not decode: %v", err)
					}
					return rep
				}
			}
			env.Go("raw-client", func(p *sim.Proc) {
				held0 := held()
				posted0, _ := window()
				for i := range ctl.Buf {
					ctl.Buf[i] = 0xEE // no request magic
				}
				if _, err := wire.UnmarshalRequest(ctl.Buf); err == nil {
					t.Fatal("the garbage decodes; the test proves nothing")
				}
				rep := exchange(p)
				if rep.Status != wire.StatusBadRequest || rep.Handle != 0 {
					t.Errorf("garbage answered with %+v, want StatusBadRequest under handle 0", rep)
				}
				if got := reg.Counter("mem0.bad_requests").Value(); got != 1 {
					t.Errorf("mem0.bad_requests = %d, want 1", got)
				}
				if got := reg.Counter("mem0.requests").Value(); got != 0 {
					t.Errorf("mem0.requests = %d: the garbage was counted as a request", got)
				}
				p.Sleep(10 * sim.Microsecond) // the NAK proc releases the credit after its send
				if posted, withheld := window(); posted+withheld != recvDepth || posted != posted0 {
					t.Errorf("after the NAK: %d posted + %d withheld receive slots, want %d posted of %d in all: the message's credit did not come back",
						posted, withheld, posted0, recvDepth)
				}
				if got := held(); got != held0 {
					t.Errorf("tenant holds %d credits after the NAK, %d before the message", got, held0)
				}

				wire.MarshalRequest(ctl.Buf, &wire.Request{
					Type: wire.ReqWrite, Handle: 7, Offset: 8192, Length: 4096, RKey: data.RKey,
				})
				if rep := exchange(p); rep.Status != wire.StatusOK || rep.Handle != 7 {
					t.Errorf("well-formed write after the NAK answered with %+v, want StatusOK under handle 7", rep)
				}
				got := make([]byte, 4096)
				if err := srv.Store().ReadAt(p, got, conn.areaOff+8192); err != nil || !bytes.Equal(got, pattern(4096, 5)) {
					t.Errorf("the write after the NAK did not reach the store (err=%v)", err)
				}
			})
			env.Run()
			env.Close()

			if posted, withheld := window(); posted+withheld != recvDepth {
				t.Errorf("at drain: %d posted + %d withheld receive slots, want %d in all", posted, withheld, recvDepth)
			}
			if err := srv.TenancyCheck(); err != nil {
				t.Error(err)
			}
			if st := srv.Stats(); st.BadRequests != 1 || st.Requests != 1 || st.Writes != 1 {
				t.Errorf("server stats %+v, want one bad request, one request, one write", st)
			}
		})
	}
}
