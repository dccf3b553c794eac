package hpbd

import (
	"bytes"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// TestServePathConfigurations drives the one serve path in each shape a
// spec gives it: the paper server (four workers, whole requests, store
// ops inline), one tenant under TenantFIFO (one worker, whole requests,
// store procs) and two tenants under the fair queue (one worker, 16 KB
// grants, store procs). Every tenant writes and reads back a 4K, a 32K
// and a 128K request, all tenants at once. The bytes come back, the
// server counts each request once, credits are conserved and every serve
// record is home at drain.
func TestServePathConfigurations(t *testing.T) {
	sizes := []int{4 << 10, 32 << 10, 128 << 10}
	for _, c := range []struct {
		name, spec string
		fifo       bool
	}{
		{name: "paper"},
		{name: "one-tenant-fifo", spec: "pool=4,a:w1", fifo: true},
		{name: "two-tenant-wfq", spec: "pool=4,a:w1,b:w1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newBed(t, bedOpts{tenancy: c.spec, server: func(sc *ServerConfig) { sc.TenantFIFO = c.fifo }})
			io := func(p *sim.Proc, dev *Device, write bool, off int64, buf []byte) error {
				r := blockdev.NewRequest(tb.env, write, off/blockdev.SectorSize, buf)
				dev.Submit(p, r)
				return r.Wait(p)
			}
			ids := []string{""}
			if tb.spec != nil {
				ids = ids[:0]
				for _, tn := range tb.spec.Tenants {
					ids = append(ids, tn.ID)
				}
			}
			for k, id := range ids {
				dev := tb.devs[id]
				tb.env.Go("tenant-"+id, func(p *sim.Proc) {
					var off int64
					for i, n := range sizes {
						want := pattern(n, byte(16*k+i))
						got := make([]byte, n)
						if err := io(p, dev, true, off, want); err != nil {
							t.Errorf("tenant %q: %dK write: %v", id, n>>10, err)
							return
						}
						if err := io(p, dev, false, off, got); err != nil {
							t.Errorf("tenant %q: %dK read: %v", id, n>>10, err)
							return
						}
						if !bytes.Equal(got, want) {
							t.Errorf("tenant %q: %dK read back differs from what was written", id, n>>10)
						}
						off += int64(n)
					}
				})
			}
			tb.env.Run()
			tb.env.Close()

			srv := tb.servers[0]
			reqs, bytes := int64(len(tb.devs)*len(sizes)), int64(0)
			for _, n := range sizes {
				bytes += int64(len(tb.devs) * n)
			}
			for name, want := range map[string]int64{
				"writes": reqs, "reads": reqs, "bytes_stored": bytes, "bytes_served": bytes,
			} {
				if got := srv.Telemetry().Counter(srv.Name() + "." + name).Value(); got != want {
					t.Errorf("%s.%s = %d, want %d", srv.Name(), name, got, want)
				}
			}
			if err := srv.TenancyCheck(); err != nil {
				t.Error(err)
			}
			assertServeRecordsHome(t, srv)
		})
	}
}
