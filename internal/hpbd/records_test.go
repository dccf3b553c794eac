package hpbd

import (
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/ib"
	"hpbd/internal/sim"
)

// settledPhys reports whether ph looks the way finishPhys leaves a record:
// zero but for the capacity of its carrier list.
func settledPhys(ph *phys) bool {
	return ph.parent == nil && ph.link == nil && ph.handle == 0 && ph.length == 0 &&
		!ph.home.staged() && len(ph.subs) == 0 && ph.mtrack == nil && ph.slot == nil &&
		ph.prev == nil && ph.next == nil
}

// assertRecordsHome checks, once a device has drained, that every request
// record it handed out came back: nothing live, nothing in the in-flight
// list, and both free lists acyclic chains of zeroed records — a record
// put back twice would sit on its list twice, a stale settle would have
// left a count or a field behind. Every link has its whole window back —
// each slot free, on the free stack once, neither live nor zombie — and
// every live link a reply buffer posted for each.
func assertRecordsHome(t *testing.T, d *Device) {
	t.Helper()
	if d.liveRecs != 0 || d.livePhys != 0 {
		t.Errorf("%d request records and %d loose phys handed out and not returned", d.liveRecs, d.livePhys)
	}
	if n := d.inflight.on(nil); n != 0 || !d.inflight.empty() || d.inflight.root.prev != &d.inflight.root {
		t.Errorf("%d requests still in the in-flight list", n)
	}
	for _, link := range d.links {
		name := link.srv.Name()
		stacked := map[*reqSlot]bool{}
		for _, s := range link.free {
			if stacked[s] {
				t.Fatalf("%s: slot %d is on the free stack twice", name, s.idx)
			}
			stacked[s] = true
		}
		for i := range link.slots {
			switch s := &link.slots[i]; {
			case s.ph != nil:
				t.Errorf("%s: slot %d still live under handle %d", name, i, s.h)
			case s.h != 0:
				t.Errorf("%s: slot %d is a zombie of handle %d", name, i, s.h)
			case !stacked[s]:
				t.Errorf("%s: slot %d is free but not on the free stack", name, i)
			}
		}
		if len(link.slots) != d.cfg.Credits || len(link.free) != d.cfg.Credits {
			t.Errorf("%s: %d of %d slots free, want %d", name, len(link.free), len(link.slots), d.cfg.Credits)
		}
		if n := link.qp.PostedRecvs(); !link.down && n != d.cfg.Credits {
			t.Errorf("%s: %d reply buffers posted, want %d", name, n, d.cfg.Credits)
		}
	}
	recs := map[*parentReq]bool{}
	for rec := d.freeRecs; rec != nil; rec = rec.free {
		if recs[rec] {
			t.Fatalf("request record %p is on the free list twice", rec)
		}
		recs[rec] = true
		if rec.req != nil || rec.remain != 0 || rec.err != nil || len(rec.segs) != 0 || !settledPhys(&rec.first) {
			t.Errorf("recycled request record not zeroed: %+v", rec)
		}
	}
	loose := map[*phys]bool{}
	for ph := d.freePhys; ph != nil; ph = ph.free {
		if loose[ph] {
			t.Fatalf("phys %p is on the free list twice", ph)
		}
		loose[ph] = true
		if !settledPhys(ph) {
			t.Errorf("recycled phys not zeroed: %+v", ph)
		}
	}
}

// assertServeRecordsHome is the server's twin of assertRecordsHome: once
// a server has drained, its free list holds every serve record it was
// built with — one per worker on the paper path, one per provisioned
// credit under tenancy — each zeroed but for a staging buffer no other
// record shares.
func assertServeRecordsHome(t *testing.T, s *Server) {
	t.Helper()
	want := serverWorkers
	if s.tn != nil {
		want = s.tn.spec.Provisioned()
	}
	if len(s.recs) != want {
		t.Errorf("%s: %d serve records on the free list, built with %d", s.name, len(s.recs), want)
	}
	seen := map[*serveRec]bool{}
	staging := map[*ib.MR]bool{}
	for _, r := range s.recs {
		if seen[r] {
			t.Fatalf("%s: serve record %p is on the free list twice", s.name, r)
		}
		seen[r] = true
		if r.staging == nil || staging[r.staging] {
			t.Errorf("%s: serve record %p has a missing or shared staging buffer", s.name, r)
		}
		staging[r.staging] = true
		if *r != (serveRec{staging: r.staging}) {
			t.Errorf("%s: recycled serve record not zeroed: %+v", s.name, *r)
		}
	}
}

// checkRecordsLive is the invariant while requests are in flight: what the
// in-flight list reaches — a request, a carrier and its constituents, and
// their parent records — is live, never a recycled record, and a request
// holding a slot holds it under its own handle.
func checkRecordsLive(t *testing.T, d *Device) {
	t.Helper()
	free := map[*phys]bool{}
	for ph := d.freePhys; ph != nil; ph = ph.free {
		free[ph] = true
	}
	freeRecs := map[*parentReq]bool{}
	for rec := d.freeRecs; rec != nil; rec = rec.free {
		freeRecs[rec] = true
	}
	owed := func(what string, ph *phys) {
		switch {
		case free[ph]:
			t.Errorf("%s %d is on the free list", what, ph.handle)
		case ph.link == nil || ph.length == 0:
			t.Errorf("%s %d is a zeroed record", what, ph.handle)
		case ph.parent == nil:
			t.Errorf("%s %d has no parent record", what, ph.handle)
		case freeRecs[ph.parent] || ph.parent.remain <= 0 || ph.parent.req == nil:
			t.Errorf("%s %d points at a recycled parent record (remain %d)", what, ph.handle, ph.parent.remain)
		}
	}
	var last uint64
	for ph := range d.inflight.all() {
		if ph.handle <= last {
			t.Errorf("the list walks handle %d after %d", ph.handle, last)
		}
		last = ph.handle
		if s := ph.slot; s != nil && (s.ph != ph || s.h != ph.handle || ph.link.lookup(ph.handle) != s) {
			t.Errorf("request %d does not hold its slot under its own handle", ph.handle)
		}
		if len(ph.subs) == 0 {
			owed("request", ph)
			continue
		}
		if free[ph] || ph.link == nil || ph.parent != nil {
			t.Errorf("carrier %d is not a live carrier record", ph.handle)
		}
		for _, s := range ph.subs {
			owed("constituent", s)
		}
	}
}

// TestRequestRecordLifetimes runs the chaos schedules that settle requests
// on every path there is — a crash with the fallback absorbing what was in
// flight, a hang the watchdog cancels, transient send errors retried after
// a backoff, a striped request losing one of its two servers — over a
// merging sender (MergeWindow 8 behind two credits, so carriers form), and
// holds the record discipline throughout: the in-flight list reaches only
// live records at every sampling instant, every I/O completes, and at the
// drain every record handed out is back on its free list, zeroed, once,
// and every slot of a live link is free. Two credits are fewer than the
// server's four workers: a cancelled request's slot stays a zombie until
// its late reply lands, so a lifted hang cannot overrun the reply window.
func TestRequestRecordLifetimes(t *testing.T) {
	const blocks, blockBytes = 32, 32 << 10
	cases := []struct {
		name    string
		servers int
		stripe  int64
		faults  string
		check   func(t *testing.T, st DeviceStats, cb *testbed)
	}{
		{name: "crash-degraded", servers: 1, faults: "crash@400us=mem0",
			check: func(t *testing.T, st DeviceStats, _ *testbed) {
				if st.LinkFailures != 1 || st.Fallbacks == 0 {
					t.Errorf("link failures %d, fallbacks %d: the crash did not degrade requests", st.LinkFailures, st.Fallbacks)
				}
			}},
		{name: "hang-timeout-cancel", servers: 1, faults: "hang@100us+20ms=mem0",
			check: func(t *testing.T, st DeviceStats, cb *testbed) {
				if cb.reg.Counter("hpbd.timeout_cancels").Value() == 0 {
					t.Error("the watchdog cancelled nothing")
				}
			}},
		{name: "rnr-retry-backoff", servers: 1, faults: "senderr@200usx2=hpbd0",
			check: func(t *testing.T, st DeviceStats, _ *testbed) {
				if st.Retries == 0 {
					t.Error("the send-error burst caused no retry")
				}
			}},
		{name: "striped-split-crash", servers: 2, stripe: blockBytes / 2, faults: "crash@400us=mem1",
			check: func(t *testing.T, st DeviceStats, _ *testbed) {
				if st.Splits == 0 || st.LinkFailures != 1 {
					t.Errorf("splits %d, link failures %d: want two-server requests losing one server", st.Splits, st.LinkFailures)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ccfg := recoveryConfig()
			ccfg.Credits = 2
			ccfg.MergeWindow = 8
			ccfg.MergeBytes = 512 << 10
			ccfg.StripeBytes = tc.stripe
			cb := newBed(t, bedOpts{servers: tc.servers, area: 4 << 20, client: ccfg, shared: true,
				fallback: true, faults: tc.faults, server: stagingBytes(512 << 10)})
			secPerBlock := int64(blockBytes / blockdev.SectorSize)
			// burst keeps all its blocks outstanding at once: the backlog
			// behind two credits is what the sender merges.
			burst := func(p *sim.Proc, write bool, seed byte) (errs int) {
				ios := make([]*blockdev.IO, blocks)
				bufs := make([][]byte, blocks)
				for i := range ios {
					bufs[i] = make([]byte, blockBytes)
					if write {
						bufs[i] = pattern(blockBytes, seed+byte(i))
					}
					io, err := cb.queue.Submit(write, int64(i)*secPerBlock, bufs[i])
					if err != nil {
						t.Fatalf("submit %d: %v", i, err)
					}
					ios[i] = io
				}
				cb.queue.Unplug()
				for i, io := range ios {
					if err := io.Wait(p); err != nil {
						errs++
					} else if !write && string(bufs[i]) != string(pattern(blockBytes, seed+byte(i))) {
						t.Errorf("block %d read back different bytes", i)
					}
				}
				return errs
			}
			done := false
			cb.env.Go("records-check", func(p *sim.Proc) {
				for !done {
					checkRecordsLive(t, cb.dev)
					p.Sleep(7 * sim.Microsecond)
				}
			})
			cb.run(func(p *sim.Proc) {
				defer func() { done = true }()
				burst(p, true, 3) // the faults fire in here
				// A rewrite gives every range an authoritative copy again
				// (what lived only on a crashed server is gone with it).
				if errs := burst(p, true, 11); errs != 0 {
					t.Errorf("%d rewrites failed after the faults", errs)
				}
				if errs := burst(p, false, 11); errs != 0 {
					t.Errorf("%d reads failed after the rewrite", errs)
				}
			})
			if cb.reg.Counter("faultsim.injected").Value() == 0 {
				t.Error("schedule injected no faults; case timing is off")
			}
			if tc.stripe == 0 && cb.reg.Counter("hpbd.merge.wrs").Value() == 0 {
				t.Error("no carrier was built; the case exercises no merge record")
			}
			tc.check(t, cb.dev.Stats(), cb)
			if cb.dev.Failed() {
				t.Error("device failed despite the fallback")
			}
			assertRecordsHome(t, cb.dev)
			if cb.dev.freeRecs == nil {
				t.Error("no request record was ever recycled")
			}
			assertExactPartition(t, cb.dev)
			if leak := cb.dev.Pool().InUse(); leak != 0 {
				t.Errorf("pool leak: %d bytes", leak)
			}
		})
	}
}
