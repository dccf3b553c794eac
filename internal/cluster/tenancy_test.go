package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/faultsim"
	"hpbd/internal/sim"
	"hpbd/internal/tenant"
)

func tenantSpec(t *testing.T, s string) *tenant.Spec {
	t.Helper()
	spec, err := tenant.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// tenantPattern gives each tenant a distinct byte fill so cross-tenant
// bleed through the shared store is detectable.
func tenantPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

func submitWait(p *sim.Proc, env *sim.Env, n *TenantNode, write bool, off int64, buf []byte) error {
	r := blockdev.NewRequest(env, write, off/blockdev.SectorSize, buf)
	n.Dev.Submit(p, r)
	return r.Wait(p)
}

// TestTenantFleetDataIsolation writes a distinct pattern for every
// tenant at the same device offsets and reads them all back: the shared
// servers keep one area per tenant, so no write may bleed into a
// neighbor's bytes.
func TestTenantFleetDataIsolation(t *testing.T) {
	env := sim.NewEnv()
	fleet, err := Build(env, Config{
		Swap:      SwapHPBD,
		Tenancy:   tenantSpec(t, "pool=32,a:w1,b:w2,c:w4"),
		Servers:   2,
		SwapBytes: 2 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 64 << 10
	got := make(map[string][]byte)
	for i, n := range fleet.Tenants {
		n := n
		seed := byte(i + 1)
		env.Go("tenant-"+n.ID, func(p *sim.Proc) {
			want := tenantPattern(chunk, seed)
			// Offsets straddle the two-server split (1 MB boundary).
			for _, off := range []int64{0, 1<<20 - chunk, 1 << 20} {
				if err := submitWait(p, env, n, true, off, append([]byte(nil), want...)); err != nil {
					t.Errorf("%s write at %d: %v", n.ID, off, err)
					return
				}
			}
			buf := make([]byte, chunk)
			if err := submitWait(p, env, n, false, 1<<20-chunk, buf); err != nil {
				t.Errorf("%s read: %v", n.ID, err)
				return
			}
			got[n.ID] = append([]byte(nil), buf...)
		})
	}
	env.Run()
	env.Close()
	for i, n := range fleet.Tenants {
		want := tenantPattern(chunk, byte(i+1))
		if !bytes.Equal(got[n.ID], want) {
			t.Errorf("tenant %s read back foreign or corrupt bytes", n.ID)
		}
	}
}

// replayTenancy runs one deterministic three-tenant workload over a
// two-server fleet with a mid-run crash of mem0 and renders every
// observable artifact — per-tenant read-back digests, the servers'
// QoS snapshots and each registry's metric summary — into one string.
func replayTenancy(t *testing.T, seed int64) string {
	t.Helper()
	env := sim.NewEnv()
	fleet, err := Build(env, Config{
		Swap:         SwapHPBD,
		Tenancy:      tenantSpec(t, "pool=32,a:w1:r4,b:w2:r4,c:w4:r4"),
		Servers:      2,
		SwapBytes:    2 << 20,
		FallbackDisk: true,
		Faults: &faultsim.Schedule{Faults: []faultsim.Fault{
			{At: 500 * sim.Microsecond, Kind: faultsim.KindCrash, Target: "mem0"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	const page = 4096
	const pages = 96
	for i, n := range fleet.Tenants {
		i, n := i, n
		env.Go("load-"+n.ID, func(p *sim.Proc) {
			// An LCG keyed by tenant and seed drives sizes and offsets
			// so the interleaving is rich but fully reproducible.
			state := uint64(seed)*2862933555777941757 + uint64(i+1)
			next := func(m int) int {
				state = state*6364136223846793005 + 1442695040888963407
				return int(state>>33) % m
			}
			failed := 0
			for round := 0; round < pages; round++ {
				pg := int64(next(256))
				sz := page * (1 + next(4))
				buf := tenantPattern(sz, byte(i*31+round))
				if err := submitWait(p, env, n, true, pg*page, buf); err != nil {
					failed++ // crash window: the error path is part of the artifact
				}
			}
			// Read-back digest: sum of all bytes at 32 fixed pages.
			sum := 0
			buf := make([]byte, page)
			for k := 0; k < 32; k++ {
				if err := submitWait(p, env, n, false, int64(k*7%256)*page, buf); err != nil {
					failed++
					continue
				}
				for _, v := range buf {
					sum += int(v)
				}
			}
			fmt.Fprintf(&b, "tenant %s: digest %d, failed %d, t=%v\n", n.ID, sum, failed, p.Now())
		})
	}
	env.Run()
	env.Close()
	for _, srv := range fleet.HPBDServers {
		if err := srv.TenancyCheck(); err != nil {
			t.Errorf("%s conservation after crash replay: %v", srv.Name(), err)
		}
		for _, st := range srv.TenantStats() {
			fmt.Fprintf(&b, "%s/%s: reqs %d bytes %d held %d borrowed %d resident %d evict %d qretry %d\n",
				srv.Name(), st.ID, st.SchedReqs, st.SchedBytes, st.Held, st.Borrowed,
				st.Resident, st.Evictions, st.QuotaRetries)
		}
	}
	b.WriteString(fleet.Tel.Summary())
	for _, n := range fleet.Tenants {
		b.WriteString(n.Tel.Summary())
	}
	return b.String()
}

// TestDeterministicReplayTenancy is the tenancy tier's determinism
// gate: the same seed must reproduce a three-tenant run byte for byte —
// latencies, QoS counters, crash recovery and all — even with a server
// crashing mid-run. Scheduling, credit grants and reclaim hold the
// determinism contract or this diffs.
func TestDeterministicReplayTenancy(t *testing.T) {
	first := replayTenancy(t, 42)
	second := replayTenancy(t, 42)
	if first != second {
		t.Fatalf("replay diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	// A different seed must actually change the artifact, or the
	// comparison above is vacuous.
	if other := replayTenancy(t, 43); other == first {
		t.Error("different seed produced an identical artifact; the workload is not exercising the fleet")
	}
}

// TestTenancyCreditConservation floods a self-checking fleet from every
// tenant at once and verifies the credit bank balances on each server —
// the runtime invariant (free + held == provisioned) that the
// creditbalance analyzer enforces statically.
func TestTenancyCreditConservation(t *testing.T) {
	env := sim.NewEnv()
	fleet, err := Build(env, Config{
		Swap:      SwapHPBD,
		Tenancy:   tenantSpec(t, "pool=16,a:w1:r2,b:w4:r2,c:w2"),
		Servers:   2,
		SwapBytes: 2 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fleet.Tenants {
		n := n
		for w := 0; w < 4; w++ {
			w := w
			env.Go(fmt.Sprintf("load-%s-%d", n.ID, w), func(p *sim.Proc) {
				buf := make([]byte, blockdev.MaxRequestBytes)
				for i := 0; i < 24; i++ {
					off := int64((w*24+i)%12) * blockdev.MaxRequestBytes
					if err := submitWait(p, env, n, true, off, buf); err != nil {
						t.Errorf("%s: %v", n.ID, err)
						return
					}
				}
			})
		}
	}
	env.Run()
	env.Close()
	for _, srv := range fleet.HPBDServers {
		if err := srv.TenancyCheck(); err != nil {
			t.Errorf("%s: %v", srv.Name(), err)
		}
		for _, st := range srv.TenantStats() {
			if st.SchedReqs == 0 {
				t.Errorf("%s/%s issued no requests: the flood never reached the scheduler", srv.Name(), st.ID)
			}
		}
	}
}
