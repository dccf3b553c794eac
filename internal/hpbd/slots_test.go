package hpbd

import (
	"errors"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// slotCounts tallies a link's window: free slots, live ones (a request
// holds them) and zombies (their request was pulled back and a late
// reply is still owed).
func slotCounts(link *serverLink) (free, live, zombie int) {
	for i := range link.slots {
		switch s := &link.slots[i]; {
		case s.h == 0:
			free++
		case s.ph != nil:
			live++
		default:
			zombie++
		}
	}
	return free, live, zombie
}

// submitAll submits one request per buffer at once and waits for them
// all, returning each one's error.
func submitAll(p *sim.Proc, d *Device, write bool, bufs [][]byte) []error {
	secPerBuf := int64(len(bufs[0]) / blockdev.SectorSize)
	reqs := make([]*blockdev.Request, len(bufs))
	for i, b := range bufs {
		reqs[i] = blockdev.NewRequest(d.env, write, int64(i)*secPerBuf, b)
		d.Submit(p, reqs[i])
	}
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		errs[i] = r.Wait(p)
	}
	return errs
}

func pages(n, size int) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = pattern(size, byte(i))
	}
	return bufs
}

// untilZombie sleeps until the link's window holds a zombie, failing the
// test if none appears within limit.
func untilZombie(t *testing.T, p *sim.Proc, link *serverLink, limit sim.Duration) {
	t.Helper()
	for end := p.Now().Add(limit); p.Now() < end; p.Sleep(10 * sim.Microsecond) {
		if _, _, z := slotCounts(link); z > 0 {
			return
		}
	}
	t.Errorf("no zombie slot within %v", limit)
}

// TestSlotFreeRules drives each way a request gives its slot back and
// holds the rule for it: a reply (OK, an error status or quota pushback)
// and a send that never reached the server free the slot at once; a
// timeout cancel leaves a zombie until the late reply lands; a failed link
// or device frees its whole window, zombies included. A sampler checks
// the free stack against the slots every microsecond, and at the drain
// every window is free with its reply buffers posted.
func TestSlotFreeRules(t *testing.T) {
	cases := []struct {
		name    string
		opts    bedOpts
		drive   func(t *testing.T, cb *testbed, p *sim.Proc)
		zombies bool // a zombie must appear on link 0 during the run
		check   func(t *testing.T, cb *testbed)
	}{
		{name: "reply-ok",
			drive: func(t *testing.T, cb *testbed, p *sim.Proc) {
				for i, err := range submitAll(p, cb.dev, true, pages(4, 4096)) {
					if err != nil {
						t.Errorf("write %d: %v", i, err)
					}
				}
			},
			check: func(t *testing.T, cb *testbed) {
				if st := cb.dev.Stats(); st.Replies != 4 {
					t.Errorf("%d replies, want 4", st.Replies)
				}
			}},
		{name: "reply-error-status",
			// A 32 KB read does not fit the server's 4 KB staging buffer:
			// the server refuses it out of range.
			opts: bedOpts{server: stagingBytes(4096)},
			drive: func(t *testing.T, cb *testbed, p *sim.Proc) {
				for i, err := range submitAll(p, cb.dev, false, pages(2, 32<<10)) {
					if !errors.Is(err, ErrRemote) {
						t.Errorf("read %d: %v, want %v", i, err, ErrRemote)
					}
				}
			},
			check: func(t *testing.T, cb *testbed) {
				if st := cb.dev.Stats(); st.RemoteErrors != 2 {
					t.Errorf("%d remote errors, want 2", st.RemoteErrors)
				}
			}},
		{name: "quota-pushback",
			opts: bedOpts{tenancy: "pool=16,a:w1:q256K", area: 4 << 20},
			drive: func(t *testing.T, cb *testbed, p *sim.Proc) {
				for off := int64(0); off < 512<<10; off += 64 << 10 {
					r := blockdev.NewRequest(cb.env, true, off/blockdev.SectorSize, pattern(64<<10, byte(off>>16)))
					cb.dev.Submit(p, r)
					if err := r.Wait(p); err != nil {
						t.Errorf("write at %d: %v", off, err)
					}
				}
			},
			check: func(t *testing.T, cb *testbed) {
				if st := cb.stat(t, "a"); st.QuotaRetries == 0 {
					t.Error("no quota pushback while writing twice the quota")
				}
			}},
		{name: "send-error",
			opts: bedOpts{client: recoveryConfig(), faults: "senderr@10usx2=hpbd0"},
			drive: func(t *testing.T, cb *testbed, p *sim.Proc) {
				p.Sleep(20 * sim.Microsecond)
				for i, err := range submitAll(p, cb.dev, true, pages(2, 4096)) {
					if err != nil {
						t.Errorf("write %d: %v", i, err)
					}
				}
			},
			check: func(t *testing.T, cb *testbed) {
				if st := cb.dev.Stats(); st.Retries == 0 || st.LinkFailures != 0 {
					t.Errorf("retries %d, link failures %d; want > 0, 0", st.Retries, st.LinkFailures)
				}
			}},
		{name: "failed-post-recovery",
			// With recovery a failed post fails the link, whose window
			// frees; the fallback absorbs the requeued writes.
			opts: bedOpts{client: recoveryConfig(), fallback: true},
			drive: func(t *testing.T, cb *testbed, p *sim.Proc) {
				cb.dev.hca.DeregisterMRAtTeardown(cb.dev.links[0].reqMR)
				for i, err := range submitAll(p, cb.dev, true, pages(3, 4096)) {
					if err != nil {
						t.Errorf("write %d: %v, want the fallback to absorb it", i, err)
					}
				}
			},
			check: func(t *testing.T, cb *testbed) {
				if st := cb.dev.Stats(); st.LinkFailures != 1 || st.Fallbacks != 3 {
					t.Errorf("link failures %d, fallbacks %d; want 1, 3", st.LinkFailures, st.Fallbacks)
				}
			}},
		{name: "timeout-cancel",
			// The watchdog cancels the reads the hang holds; their slots
			// stay zombies until the late replies land after the hang.
			opts: bedOpts{client: recoveryConfig(), fallback: true},
			drive: func(t *testing.T, cb *testbed, p *sim.Proc) {
				cb.servers[0].HangFor(sim.Millisecond)
				for i, err := range submitAll(p, cb.dev, false, pages(2, 4096)) {
					if err != nil {
						t.Errorf("read %d: %v", i, err)
					}
				}
			},
			zombies: true,
			check: func(t *testing.T, cb *testbed) {
				if n := cb.reg.Counter("hpbd.timeout_cancels").Value(); n == 0 {
					t.Error("the watchdog cancelled nothing")
				}
				if st := cb.dev.Stats(); st.LinkFailures != 0 {
					t.Errorf("%d link failures, want 0: the late replies free the zombies", st.LinkFailures)
				}
			}},
		{name: "link-failure",
			// A crash behind zombies: no late reply will land, and the
			// failed link frees them with the rest of its window.
			opts: bedOpts{client: recoveryConfig(), fallback: true, shared: true},
			drive: func(t *testing.T, cb *testbed, p *sim.Proc) {
				cb.servers[0].HangFor(10 * sim.Millisecond)
				done := sim.NewEvent(cb.env)
				cb.env.Go("crasher", func(p *sim.Proc) {
					defer done.Trigger()
					untilZombie(t, p, cb.dev.links[0], 2*sim.Millisecond)
					cb.servers[0].Crash()
				})
				for i, err := range submitAll(p, cb.dev, true, pages(2, 4096)) {
					if err != nil {
						t.Errorf("write %d: %v, want the fallback to absorb it", i, err)
					}
				}
				done.Wait(p)
			},
			zombies: true,
			check: func(t *testing.T, cb *testbed) {
				if st := cb.dev.Stats(); st.LinkFailures != 1 || !cb.dev.links[0].down {
					t.Errorf("%d link failures, link down %v; want 1, true", st.LinkFailures, cb.dev.links[0].down)
				}
			}},
		{name: "device-failure",
			// The same crash with no fallback: losing the only link fails
			// the device, which frees every window, zombies included.
			opts: bedOpts{client: recoveryConfig()},
			drive: func(t *testing.T, cb *testbed, p *sim.Proc) {
				cb.servers[0].HangFor(10 * sim.Millisecond)
				done := sim.NewEvent(cb.env)
				cb.env.Go("crasher", func(p *sim.Proc) {
					defer done.Trigger()
					untilZombie(t, p, cb.dev.links[0], 2*sim.Millisecond)
					cb.servers[0].Crash()
				})
				for i, err := range submitAll(p, cb.dev, true, pages(2, 4096)) {
					if !errors.Is(err, ErrDeviceFailed) && !errors.Is(err, ErrServerLost) {
						t.Errorf("write %d: %v, want the device's failure", i, err)
					}
				}
				done.Wait(p)
			},
			zombies: true,
			check: func(t *testing.T, cb *testbed) {
				if !cb.dev.Failed() {
					t.Error("the device outlived its only server")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cb := newBed(t, tc.opts)
			link := cb.dev.links[0]
			sawZombie, running := false, true
			cb.env.Go("slot-sampler", func(p *sim.Proc) {
				for running {
					free, _, zombie := slotCounts(link)
					sawZombie = sawZombie || zombie > 0
					if free != len(link.free) {
						t.Errorf("at %v: %d slots free, %d on the free stack", p.Now(), free, len(link.free))
						return
					}
					checkRecordsLive(t, cb.dev)
					p.Sleep(sim.Microsecond)
				}
			})
			// The sampler keeps the run from draining, so a leaked slot that
			// stalls the sender for ever would never return: bound it.
			cb.env.Go("test", func(p *sim.Proc) {
				tc.drive(t, cb, p)
				running = false
			})
			cb.env.RunUntil(sim.Time(100 * sim.Millisecond))
			cb.env.Close()
			if running {
				t.Fatal("the run did not finish in 100 ms: a request is waiting on the window for ever")
			}
			if sawZombie != tc.zombies {
				t.Errorf("a zombie slot appeared: %v, want %v", sawZombie, tc.zombies)
			}
			tc.check(t, cb)
			assertRecordsHome(t, cb.dev)
			if t.Failed() {
				free, live, zombie := slotCounts(link)
				t.Logf("link 0 at the drain: %d free, %d live, %d zombie", free, live, zombie)
			}
		})
	}
}
