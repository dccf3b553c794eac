package hpbd

import (
	"bytes"
	"fmt"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// stat returns tenant id's QoS snapshot on the bed's first server.
func (tb *testbed) stat(t *testing.T, id string) TenantStat {
	t.Helper()
	for _, st := range tb.servers[0].TenantStats() {
		if st.ID == id {
			return st
		}
	}
	t.Fatalf("no TenantStat for %s", id)
	return TenantStat{}
}

// TestQuotaPushbackAndReclaim writes twice a tenant's quota through the
// admission-controlled path: the server must push back with RNR-style
// retries, the reclaimer must demote cold pages to the fallback disk,
// and every write must eventually land — with residency driven back
// toward the quota rather than growing unbounded.
func TestQuotaPushbackAndReclaim(t *testing.T) {
	const quota = 512 << 10
	tb := newBed(t, bedOpts{tenancy: fmt.Sprintf("pool=16,a:w1:q%d", quota), area: 4 << 20})
	const total = 2 * quota
	const chunk = 64 << 10
	tb.env.Go("writer", func(p *sim.Proc) {
		for off := int64(0); off < total; off += chunk {
			buf := pattern(chunk, byte(off>>16))
			r := blockdev.NewRequest(tb.env, true, off/blockdev.SectorSize, buf)
			tb.devs["a"].Submit(p, r)
			if err := r.Wait(p); err != nil {
				t.Errorf("write at %d: %v", off, err)
				return
			}
		}
	})
	tb.env.Run()
	tb.env.Close()
	st := tb.stat(t, "a")
	if st.QuotaRetries == 0 {
		t.Error("no quota pushback recorded while writing 2x the quota")
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded: reclaim never demoted cold pages")
	}
	// Admission is optimistic (in-flight writes admitted before earlier
	// ones mark residency), so allow one in-flight window of slack.
	slack := int64(blockdev.MaxRequestBytes) + chunk
	if st.Resident > quota+slack {
		t.Errorf("resident %d exceeds quota %d by more than the admission window %d",
			st.Resident, quota, slack)
	}
	if err := tb.servers[0].TenancyCheck(); err != nil {
		t.Error(err)
	}
}

// TestQuotaEvictionPreservesData reads back every byte written past the
// quota: pages demoted to the fallback disk must return the same data
// as pages still resident on the server.
func TestQuotaEvictionPreservesData(t *testing.T) {
	const quota = 256 << 10
	tb := newBed(t, bedOpts{tenancy: fmt.Sprintf("pool=16,a:w1:q%d", quota), area: 4 << 20})
	const total = 4 * quota
	const chunk = 32 << 10
	ok := false
	tb.env.Go("rw", func(p *sim.Proc) {
		for off := int64(0); off < total; off += chunk {
			buf := pattern(chunk, byte(off/chunk))
			r := blockdev.NewRequest(tb.env, true, off/blockdev.SectorSize, buf)
			tb.devs["a"].Submit(p, r)
			if err := r.Wait(p); err != nil {
				t.Errorf("write at %d: %v", off, err)
				return
			}
		}
		for off := int64(0); off < total; off += chunk {
			buf := make([]byte, chunk)
			r := blockdev.NewRequest(tb.env, false, off/blockdev.SectorSize, buf)
			tb.devs["a"].Submit(p, r)
			if err := r.Wait(p); err != nil {
				t.Errorf("read at %d: %v", off, err)
				return
			}
			if !bytes.Equal(buf, pattern(chunk, byte(off/chunk))) {
				t.Errorf("chunk at %d corrupted through quota eviction", off)
				return
			}
		}
		ok = true
	})
	tb.env.Run()
	tb.env.Close()
	if !ok {
		t.Fatal("round trip did not complete")
	}
	st := tb.stat(t, "a")
	if st.Evictions == 0 {
		t.Error("4x-quota working set produced no evictions: the read-back never touched the fallback path")
	}
	if err := tb.servers[0].TenancyCheck(); err != nil {
		t.Error(err)
	}
}

// TestUnquotedTenantUnaffected runs a quota'd tenant to exhaustion next
// to an unlimited one: the neighbor's writes must see no pushback.
func TestUnquotedTenantUnaffected(t *testing.T) {
	tb := newBed(t, bedOpts{tenancy: "pool=16,a:w1:q256K,b:w1", area: 4 << 20})
	const chunk = 64 << 10
	write := func(p *sim.Proc, id string, off int64) error {
		r := blockdev.NewRequest(tb.env, true, off/blockdev.SectorSize, pattern(chunk, 1))
		tb.devs[id].Submit(p, r)
		return r.Wait(p)
	}
	tb.env.Go("a", func(p *sim.Proc) {
		for off := int64(0); off < 1<<20; off += chunk {
			if err := write(p, "a", off); err != nil {
				t.Errorf("a: %v", err)
				return
			}
		}
	})
	tb.env.Go("b", func(p *sim.Proc) {
		for off := int64(0); off < 1<<20; off += chunk {
			if err := write(p, "b", off); err != nil {
				t.Errorf("b: %v", err)
				return
			}
		}
	})
	tb.env.Run()
	tb.env.Close()
	if st := tb.stat(t, "b"); st.QuotaRetries != 0 || st.Evictions != 0 {
		t.Errorf("unlimited tenant saw pushback: %d retries, %d evictions", st.QuotaRetries, st.Evictions)
	}
	if st := tb.stat(t, "a"); st.QuotaRetries == 0 {
		t.Error("quota'd tenant saw no pushback at 4x its quota")
	}
	if err := tb.servers[0].TenancyCheck(); err != nil {
		t.Error(err)
	}
}

// TestTenancyOffIdentical ensures the tenancy hooks are inert without a
// spec: a server built with a zero Tenancy config reports no tenant
// stats and serves exactly like the PR 9 data path (the byte-identity
// of the golden artifacts is asserted by the experiments suite; this
// guards the API surface).
func TestTenancyOffIdentical(t *testing.T) {
	tb := newBed(t, bedOpts{})
	if got := tb.servers[0].TenantStats(); got != nil {
		t.Errorf("TenantStats without tenancy = %+v, want nil", got)
	}
	if err := tb.servers[0].TenancyCheck(); err != nil {
		t.Errorf("TenancyCheck without tenancy: %v", err)
	}
	tb.env.Close()
}

// TestQuotaReclaimOnGrownServer crosses the quota with a membership
// change. A grow lands two moves of 600 KB on the new server under a 1 MB
// quota: the second is refused until reclaim demotes cold pages of the
// first — pages only the placement directory can address — so the grown
// server's evictions move and its residency ends within the quota.
// Rewriting the device then takes foreground writes past the quota there,
// and draining a founder leaves none of the tenant's bytes resident on it.
func TestQuotaReclaimOnGrownServer(t *testing.T) {
	const area, quota = 768 << 10, 1 << 20
	const blocks, blockBytes = 24, 64 << 10 // the whole 1.5 MB device
	tb := newBed(t, bedOpts{servers: 2, area: area, tenancy: fmt.Sprintf("pool=16,a:w1:q%d", quota)})
	grownStat := func() TenantStat {
		return tb.servers[2].TenantStats()[0]
	}
	tb.run(func(p *sim.Proc) {
		if err := tb.writeBlocks(p, blocks, blockBytes, 3); err != nil {
			t.Errorf("write pass: %v", err)
			return
		}
		tb.addServer(t, p, "mem2", 6<<20)
		if n := tb.dev.Directory().SectorsOn(2) * blockdev.SectorSize; n <= quota {
			t.Errorf("the grow put %d bytes on mem2, not more than its %d quota", n, quota)
			return
		}
		afterGrow := grownStat().Evictions
		if afterGrow == 0 {
			t.Error("no evictions on the grown server: reclaim never addressed its pages")
		}
		tb.verifyBlocks(t, p, blocks, blockBytes, 3)
		if err := tb.writeBlocks(p, blocks, blockBytes, 11); err != nil {
			t.Errorf("rewrite pass: %v", err)
			return
		}
		if got := grownStat().Evictions; got <= afterGrow {
			t.Errorf("foreground writes past the quota evicted nothing on the grown server (%d before, %d after)", afterGrow, got)
		}
		if err := tb.dev.DrainServer(p, "mem0"); err != nil {
			t.Errorf("DrainServer: %v", err)
			return
		}
		if got := tb.servers[0].TenantResident(tb.dev.links[0].srvQP); got != 0 {
			t.Errorf("drained mem0 still counts %d resident bytes", got)
		}
		tb.verifyBlocks(t, p, blocks, blockBytes, 11)
	})
	if t.Failed() {
		return // the grow may not have happened
	}
	// Admission is optimistic, as in TestQuotaPushbackAndReclaim.
	if st := grownStat(); st.Resident > quota+int64(blockdev.MaxRequestBytes)+blockBytes {
		t.Errorf("grown server holds %d resident bytes, quota %d", st.Resident, quota)
	}
	for _, srv := range tb.servers {
		if err := srv.TenancyCheck(); err != nil {
			t.Errorf("%s: %v", srv.Name(), err)
		}
	}
}
