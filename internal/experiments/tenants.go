package experiments

import (
	"fmt"
	"sort"
	"strings"

	"hpbd/internal/blockdev"
	"hpbd/internal/cluster"
	"hpbd/internal/hpbd"
	"hpbd/internal/sim"
	"hpbd/internal/tenant"
)

// UnknownExperiment builds the error for an unregistered experiment ID,
// listing every registered experiment in Names() order so a typo on the
// command line is immediately recoverable.
func UnknownExperiment(name string) error {
	return fmt.Errorf("unknown experiment %q (registered: %s)", name, strings.Join(Names(), " "))
}

// IsolationParams shapes one noisy-neighbor run: tenant a fires a
// continuous burst storm of 128 KB writes while tenant b — the victim —
// performs closed-loop 4 KB read-ins. The victim's per-request latencies
// are returned for quantile checks.
type IsolationParams struct {
	// FIFO selects the control scheduler (strict arrival order).
	FIFO bool
	// Solo disables the storm: the victim-alone baseline.
	Solo bool
	// Probes is the victim's read count (0: 300).
	Probes int
	// StormDepth is the storm's outstanding-request target (0: 16).
	StormDepth int
	// Pool is the per-server credit pool (0: 32, an even 16/16 split).
	Pool int
}

// storm keeps depth 128 KB writes outstanding against node's device
// until *stop, cycling over the device from distinct start offsets.
func tenantStorm(env *sim.Env, node *cluster.TenantNode, depth int, stop *bool) {
	total := node.Dev.Sectors() * blockdev.SectorSize
	span := total / int64(depth)
	span -= span % int64(blockdev.MaxRequestBytes)
	for w := 0; w < depth; w++ {
		base := int64(w) * span
		env.Go(fmt.Sprintf("storm-%d", w), func(p *sim.Proc) {
			buf := make([]byte, blockdev.MaxRequestBytes)
			for off := int64(0); !*stop; off = (off + int64(blockdev.MaxRequestBytes)) % span {
				r := blockdev.NewRequest(env, true, (base+off)/blockdev.SectorSize, buf)
				node.Dev.Submit(p, r)
				if r.Wait(p) != nil {
					return
				}
			}
		})
	}
}

// tenantFleet describes the per-tenant fleet both tenant runners use: one
// shared server, a 4 MB device per tenant of spec, WFQ or the strict-FIFO
// control scheduler.
func tenantFleet(spec *tenant.Spec, fifo, fallback bool) cluster.Config {
	return cluster.Config{
		Swap: cluster.SwapHPBD, Tenancy: spec, Servers: 1, SwapBytes: 4 << 20, FallbackDisk: fallback,
		ServerCfg: func(storeBytes int64) hpbd.ServerConfig {
			sc := hpbd.DefaultServerConfig(storeBytes)
			sc.TenantFIFO = fifo
			return sc
		},
	}
}

// RunTenantIsolation runs one arm of the noisy-neighbor scenario on a
// single shared server and returns the victim's sorted read latencies.
// Everything is deterministic: same parameters, same latencies.
func RunTenantIsolation(pr IsolationParams) ([]sim.Duration, error) {
	if pr.Probes <= 0 {
		pr.Probes = 300
	}
	if pr.StormDepth <= 0 {
		pr.StormDepth = 16
	}
	if pr.Pool <= 0 {
		pr.Pool = 32
	}
	spec, err := tenant.ParseSpec(fmt.Sprintf("pool=%d,a:w1,b:w1", pr.Pool))
	if err != nil {
		return nil, err
	}
	const page = 4096
	const region = 64 // victim pages pre-written, then probed
	lats := make([]sim.Duration, 0, pr.Probes)
	_, _, err = cluster.Run(tenantFleet(spec, pr.FIFO, false), func(fleet *cluster.Node) []cluster.Proc {
		env, victim, noisy := fleet.Env, fleet.Tenant("b"), fleet.Tenant("a")
		stop := false
		return []cluster.Proc{{Name: "victim", Run: func(p *sim.Proc) error {
			defer func() { stop = true }()
			buf := make([]byte, page)
			for i := 0; i < region; i++ {
				r := blockdev.NewRequest(env, true, int64(i)*page/blockdev.SectorSize, buf)
				victim.Dev.Submit(p, r)
				if r.Wait(p) != nil {
					return nil // reported as missing probes below
				}
			}
			if !pr.Solo {
				tenantStorm(env, noisy, pr.StormDepth, &stop)
				// Let the storm reach its steady backlog before probing.
				p.Sleep(2 * sim.Millisecond)
			}
			for i := 0; i < pr.Probes; i++ {
				pg := int64(i*7) % region
				t0 := p.Now()
				r := blockdev.NewRequest(env, false, pg*page/blockdev.SectorSize, buf)
				victim.Dev.Submit(p, r)
				if r.Wait(p) != nil {
					break
				}
				lats = append(lats, p.Now().Sub(t0))
			}
			return nil
		}}}
	})
	if err != nil {
		return nil, err
	}
	if len(lats) < pr.Probes {
		return nil, fmt.Errorf("victim completed %d/%d probes", len(lats), pr.Probes)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats, nil
}

// LatP99 returns the 99th percentile of sorted latencies.
func LatP99(sorted []sim.Duration) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// SweepTenant is the noisy-neighbor isolation sweep: tenant b's 4 KB
// read-in p99 alone, under tenant a's 128 KB write storm with the FIFO
// control scheduler, and under the same storm with weighted fair
// queueing. The WFQ arm is required to stay within 1.5x of the solo
// baseline — the isolation contract the test tier enforces — while the
// FIFO control shows what sharing without QoS costs.
func SweepTenant(c Config) (*Result, error) {
	res := &Result{
		ID:    "sweep-tenant",
		Title: "Victim read p99 vs a neighbor's 128KB write storm (1 server, 2 tenants)",
		Unit:  "ms",
		PaperNote: "extension: the paper is single-client — this measures the QoS " +
			"layer's noisy-neighbor isolation (WFQ + credit partitioning vs FIFO)",
	}
	probes := 300
	if s := c.scale(); s > PaperScale {
		probes = 100 // cheap CI runs still exercise every arm
	}
	arms := []struct {
		label string
		pr    IsolationParams
	}{
		{"b-solo", IsolationParams{Solo: true, Probes: probes}},
		{"b-vs-storm-fifo", IsolationParams{FIFO: true, Probes: probes}},
		{"b-vs-storm-wfq", IsolationParams{Probes: probes}},
	}
	var solo float64
	for _, arm := range arms {
		lats, err := RunTenantIsolation(arm.pr)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, arm.label, err)
		}
		p50 := lats[len(lats)/2].Micros() / 1000
		p99 := LatP99(lats).Micros() / 1000
		stat := ""
		if arm.label == "b-solo" {
			solo = p99
		} else if solo > 0 {
			stat = fmt.Sprintf("%.2fx solo p99", p99/solo)
		}
		res.Rows = append(res.Rows, Row{Label: arm.label, Value: p99, P50ms: p50, P99ms: p99, Stat: stat})
	}
	return res, nil
}

// starvationShare is the alert threshold: a tenant with pending demand
// whose issued byte share is below this fraction of its weight share is
// being starved of its entitlement.
const starvationShare = 0.25

// TenantsReport runs a deterministic mixed load over a tenant fleet
// built from specStr and renders the per-tenant QoS table hpbdctl
// tenants prints: credits held/borrowed, withheld demand, sched-wait
// p99, issued requests/bytes, resident bytes, evictions and quota
// pushback, snapshotted mid-storm. Tenants starved below their weighted
// entitlement get a starvation alert line under the table.
func TenantsReport(specStr string, fifo bool) (string, error) {
	spec, err := tenant.ParseSpec(specStr)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	// Every tenant runs the same storm shape; QoS — not arrival order —
	// decides who gets served. The snapshot lands mid-storm so held
	// credits and backlogs are visible, then the storms are released.
	_, _, err = cluster.Run(tenantFleet(spec, fifo, true), func(fleet *cluster.Node) []cluster.Proc {
		stop := false
		for _, n := range fleet.Tenants {
			tenantStorm(fleet.Env, n, 16, &stop)
		}
		return []cluster.Proc{{Name: "report", Run: func(p *sim.Proc) error {
			tenantsTable(&b, p, fleet.HPBDServers[0], spec, fifo)
			stop = true
			return nil
		}}}
	})
	return b.String(), err
}

// tenantsTable sleeps into the storm and renders srv's per-tenant QoS
// table, starvation alerts and conservation check into b.
func tenantsTable(b *strings.Builder, p *sim.Proc, srv *hpbd.Server, spec *tenant.Spec, fifo bool) {
	p.Sleep(20 * sim.Millisecond)
	stats := srv.TenantStats()
	var totalBytes int64
	totalWeight := 0
	for _, st := range stats {
		totalBytes += st.SchedBytes
		totalWeight += st.Weight
	}
	fmt.Fprintf(b, "tenants on %s (pool=%d, sched=%s, t=%v):\n",
		srv.Name(), spec.Pool, map[bool]string{true: "fifo", false: "wfq"}[fifo], p.Now())
	fmt.Fprintf(b, "%-10s %6s %4s %8s %5s %7s %5s %12s %8s %10s %10s %6s %7s\n",
		"TENANT", "WEIGHT", "RES", "QUOTA", "HELD", "BORROW", "WAIT",
		"SCHEDP99US", "REQS", "BYTES", "RESIDENT", "EVICT", "QRETRY")
	var alerts []string
	for _, st := range stats {
		fmt.Fprintf(b, "%-10s %6d %4d %8d %5d %7d %5d %12.0f %8d %10d %10d %6d %7d\n",
			st.ID, st.Weight, st.Reserved, st.Quota, st.Held, st.Borrowed, st.Waiting,
			st.SchedP99.Micros(), st.SchedReqs, st.SchedBytes, st.Resident,
			st.Evictions, st.QuotaRetries)
		if totalBytes == 0 || totalWeight == 0 {
			continue
		}
		byteShare := float64(st.SchedBytes) / float64(totalBytes)
		weightShare := float64(st.Weight) / float64(totalWeight)
		if (st.Queued > 0 || st.Waiting > 0) && byteShare < starvationShare*weightShare {
			alerts = append(alerts, fmt.Sprintf(
				"starvation alert: tenant %s issued %.1f%% of bytes against a %.1f%% weight share",
				st.ID, byteShare*100, weightShare*100))
		}
	}
	for _, a := range alerts {
		fmt.Fprintf(b, "%s\n", a)
	}
	if err := srv.TenancyCheck(); err != nil {
		fmt.Fprintf(b, "credit conservation VIOLATED: %v\n", err)
	} else {
		fmt.Fprintf(b, "credit conservation: ok\n")
	}
}
