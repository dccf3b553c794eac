package hpbd

import (
	"errors"
	"fmt"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/ib"
	"hpbd/internal/sim"
	"hpbd/internal/tenant"
)

// Whatever ends a request — a reply, a quota pushback retried until it
// lands or degrades, its link dying while it waits for a credit, the
// device failing under it — its payload home gives back exactly what
// staging took: no pool bytes stay allocated, every MR the reuse cache
// registered is idle in it again (or was evicted), and the migration MR
// never lands in the cache. One row per home, one column per ending.
func TestPayloadHomeReleasedOnEveryPath(t *testing.T) {
	hybrid := func(c *ClientConfig) { c.HybridDataPath, c.HybridThresholdBytes = true, 16<<10 }
	homes := []struct {
		name string
		size int // bytes per write
		arm  func(*ClientConfig)
		mig  bool // the traffic is a live rebalance instead of writes
	}{
		{"pool", 4096, func(*ClientConfig) {}, false},
		{"cached-mr", 32 << 10, hybrid, false},
		{"unstaged", 4096, func(c *ClientConfig) { c.MergeWindow = 4 }, false},
		{"migration-mr", 32 << 10, hybrid, true},
	}
	endings := []struct {
		name  string
		arm   func(c *ClientConfig, o *bedOpts, size int, mig bool)
		taken func(cb *testbed) bool // the ending actually happened
	}{
		{"success", func(*ClientConfig, *bedOpts, int, bool) {},
			func(cb *testbed) bool { return cb.dev.Stats().Replies > 0 && !cb.dev.Failed() }},
		{"status-retry", func(c *ClientConfig, o *bedOpts, size int, _ bool) {
			c.Tenant, c.MaxRetries, o.fallback = "a", 8, true
			spec, _ := tenant.ParseSpec(fmt.Sprintf("pool=16,a:w1:q%d", 4*size))
			o.server = func(sc *ServerConfig) { sc.Tenancy = spec }
		}, func(cb *testbed) bool {
			var n int64
			for _, srv := range cb.servers {
				n += srv.TenantStats()[0].QuotaRetries
			}
			return n > 0
		}},
		{"link-death-in-credit-stall", func(c *ClientConfig, o *bedOpts, _ int, mig bool) {
			c.Credits, c.MaxRetries, o.fallback, o.faults = 2, 2, true, "crash@1us=mem0"
			if mig {
				o.faults = "crash@500us=mem0" // mid-copy: mem0 is a source
			}
		}, func(cb *testbed) bool { return cb.dev.Stats().LinkFailures == 1 && !cb.dev.Failed() }},
		{"device-fail", func(c *ClientConfig, o *bedOpts, _ int, mig bool) {
			o.faults = "crash@150us=mem0"
			if mig {
				o.faults = "crash@500us=mem0"
			}
		}, func(cb *testbed) bool { return cb.dev.Failed() }},
	}
	for _, h := range homes {
		for _, e := range endings {
			t.Run(h.name+"/"+e.name, func(t *testing.T) {
				o := bedOpts{servers: 2, client: DefaultClientConfig(), shared: true}
				h.arm(&o.client)
				e.arm(&o.client, &o, h.size, h.mig)
				cb := newBed(t, o)
				if h.mig {
					cb.run(func(p *sim.Proc) {
						sc := DefaultServerConfig(1 << 20)
						if o.server != nil {
							o.server(&sc)
						}
						srv := NewServer(cb.fabric, "mem2", sc)
						cb.servers = append(cb.servers, srv)
						cb.dev.AddServerLive(p, srv, 1<<20) // aborts under the fatal endings
					})
				} else {
					// Straight into the driver from six procs: the backlog
					// overruns the credit window, and strided sectors keep
					// the merge window from folding requests together. The
					// seventh starts late: a fail-stop device only learns
					// of a crash from its next send to the dead server.
					for w := 0; w < 7; w++ {
						w := w
						cb.env.Go("writer", func(p *sim.Proc) {
							p.Sleep(10*sim.Microsecond + sim.Duration(w/6)*sim.Millisecond)
							for i := 0; i < 4; i++ {
								sector := int64((w%6*4+i)*2*h.size) / blockdev.SectorSize
								r := blockdev.NewRequest(cb.env, true, sector, pattern(h.size, byte(w)))
								cb.dev.Submit(p, r)
								r.Wait(p) // errors are the point of the fatal endings
							}
						})
					}
					cb.env.Run()
					cb.env.Close()
				}
				if !e.taken(cb) {
					t.Fatalf("the run never reached its ending: %+v", cb.dev.Stats())
				}
				if n := cb.dev.Pool().InUse(); n != 0 {
					t.Errorf("%d pool bytes still allocated", n)
				}
				if n := cb.dev.inflight.on(nil); n != 0 && !cb.dev.Failed() {
					t.Errorf("%d requests still in flight", n)
				}
				if c := cb.dev.mrc; c != nil {
					if out := c.misses.Value() - c.evicts.Value() - int64(c.Idle()); out != 0 {
						t.Errorf("%d cached MRs never came back", out)
					}
					for _, mr := range c.idle {
						if mr == cb.dev.migMR {
							t.Error("the migration MR was put in the reuse cache")
						}
					}
				}
			})
		}
	}
}

// The in-flight list walks in ascending handle order whatever order
// requests entered and left in, a retry takes its fresh handle before the
// backoff and enters the list only after it, a cancelled request's slot
// stays a zombie — its credit withheld — until the late reply to the old
// handle lands, and a handle no slot holds finds nothing.
func TestInflightTableOrderAndCancel(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.MaxRetries = 2
	cb := newBed(t, bedOpts{client: ccfg})
	d, link := cb.dev, cb.dev.links[0]
	walk := func() string {
		var hs []uint64
		for ph := range d.inflight.all() {
			hs = append(hs, ph.handle)
		}
		return fmt.Sprint(hs)
	}
	cb.run(func(p *sim.Proc) {
		// Five reads posted to a hung server sit in the list as slotted
		// requests 1..5 until the hang lifts.
		cb.servers[0].HangFor(sim.Millisecond)
		for i := 0; i < 5; i++ {
			d.Submit(p, blockdev.NewRequest(cb.env, false, int64(i*8), make([]byte, 4096)))
		}
		p.Sleep(20 * sim.Microsecond)
		free := len(link.free)
		if link.lookup(99) != nil {
			t.Error("handle 99 found a slot")
		}
		// What the watchdog does to an overdue request: cancel, retry. The
		// retry is handle 6 at once but out of the list for the backoff,
		// and the old handle's slot stays taken...
		ph2 := link.lookup(2).ph
		d.cancel(ph2)
		d.retryOrRoute(ph2)
		if s := link.lookup(2); len(link.free) != free || s == nil || s.ph != nil || ph2.handle != 6 || walk() != "[1 3 4 5]" {
			t.Errorf("during the backoff: free slots %d -> %d, handle 2's slot %+v, retried handle %d, list %s; want %d, a zombie, 6, [1 3 4 5]",
				free, len(link.free), s, ph2.handle, walk(), free)
		}
		// ...during which a requeue (what a cutover does) admits handle 7.
		ph4 := link.lookup(4).ph
		d.cancel(ph4)
		d.inflight.admit(ph4)
		if ph4.handle != 7 || walk() != "[1 3 5 7]" {
			t.Errorf("requeued as handle %d, list %s; want 7, [1 3 5 7]", ph4.handle, walk())
		}
		p.Sleep(2 * retryBackoff)
		if walk() != "[1 3 5 6 7]" {
			t.Errorf("6 entered after 7 and the list walks %s, want [1 3 5 6 7]", walk())
		}
	})
	// The late replies to 2 and 4 freed their zombies.
	assertRecordsHome(t, d)
}

// A post that fails on the paper's fail-stop device (no retries, no
// fallback) settles every request of the chain with the error and frees
// each one's slot at once: none of them reached the server.
func TestFailedPostFreesSlots(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.DoorbellBatch = 4
	cb := newBed(t, bedOpts{client: ccfg})
	d := cb.dev
	var errs []error
	cb.run(func(p *sim.Proc) {
		// Reads stage without a copy, so all four are admitted before the
		// sender runs; invalidating the staging MR then fails their post.
		var reqs []*blockdev.Request
		for i := 0; i < 4; i++ {
			r := blockdev.NewRequest(cb.env, false, int64(i*8), make([]byte, 4096))
			d.Submit(p, r)
			reqs = append(reqs, r)
		}
		d.hca.DeregisterMRAtTeardown(d.links[0].reqMR)
		for _, r := range reqs {
			errs = append(errs, r.Wait(p))
		}
	})
	for i, err := range errs {
		if !errors.Is(err, ib.ErrBadSegment) {
			t.Errorf("read %d: %v, want the post's error", i, err)
		}
	}
	if st := d.Stats(); st.PhysReqs != 0 || st.Doorbells != 0 {
		t.Errorf("%d requests and %d doorbells counted for a failed post", st.PhysReqs, st.Doorbells)
	}
	assertRecordsHome(t, d)
}

// A crash that lands on a full window: every slot holds a request the
// dead server will never answer, so the watchdog's cancels leave the
// window all zombies and no send can reach the server to find the crash
// out. The link fails once the zombies have been on the wire for the
// retry budget, and what queued behind them goes to the fallback instead
// of waiting for ever.
func TestCrashOnFullWindowFailsLink(t *testing.T) {
	ccfg := recoveryConfig()
	ccfg.Credits = 2
	cb := newBed(t, bedOpts{client: ccfg, shared: true, fallback: true})
	d := cb.dev
	const writes = 6
	var errs []error
	cb.env.Go("test", func(p *sim.Proc) {
		// The hang holds both replies, so the window is full at the crash.
		cb.servers[0].HangFor(sim.Millisecond)
		var reqs []*blockdev.Request
		for i := 0; i < writes; i++ {
			r := blockdev.NewRequest(cb.env, true, int64(i*8), pattern(4096, byte(i)))
			d.Submit(p, r)
			reqs = append(reqs, r)
		}
		p.Sleep(50 * sim.Microsecond)
		cb.servers[0].Crash()
		for _, r := range reqs {
			errs = append(errs, r.Wait(p))
		}
	})
	// A wedged device never drains (the watchdog keeps ticking), so the
	// run is bounded: the retry budget is 1.5 ms.
	cb.env.RunUntil(sim.Time(20 * sim.Millisecond))
	cb.env.Close()
	if len(errs) != writes {
		t.Fatalf("%d of %d writes completed: the full window wedged the device", len(errs), writes)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("write %d: %v, want the fallback to absorb it", i, err)
		}
	}
	st := d.Stats()
	if cancels := cb.reg.Counter("hpbd.timeout_cancels").Value(); st.LinkFailures != 1 || cancels < 2 || st.Fallbacks != writes {
		t.Errorf("link failures %d, timeout cancels %d, fallbacks %d; want 1, >= 2, %d",
			st.LinkFailures, cancels, st.Fallbacks, writes)
	}
	assertRecordsHome(t, d)
}

// A live-added server is brought up by the same newLink as a connect-time
// one, so on a device with a reclaimer its quota refusals kick the
// reclaimer too (the parent's AddServerLive skipped the wiring).
func TestAddServerLiveWiresReclaimKick(t *testing.T) {
	spec, err := tenant.ParseSpec("pool=16,a:w1")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := DefaultClientConfig()
	ccfg.Tenant, ccfg.MaxRetries = "a", 2
	cb := newBed(t, bedOpts{client: ccfg, shared: true, fallback: true,
		server: func(sc *ServerConfig) { sc.Tenancy = spec }})
	if cb.dev.reclaimQ == nil {
		t.Fatal("the bed's device has no reclaimer")
	}
	cb.run(func(p *sim.Proc) {
		sc := DefaultServerConfig(1 << 20)
		sc.Tenancy = spec
		srv := NewServer(cb.fabric, "mem1", sc)
		if err := cb.dev.AddServerLive(p, srv, 1<<20); err != nil {
			t.Fatalf("AddServerLive: %v", err)
		}
		cb.servers = append(cb.servers, srv)
	})
	for i, link := range cb.dev.links {
		if cb.servers[i].conns[link.srvQP].reclaimKick == nil {
			t.Errorf("link %d (%s) has no reclaim kick", i, cb.servers[i].Name())
		}
	}
}
