package experiments

import (
	"fmt"

	"hpbd/internal/cluster"
	"hpbd/internal/faultsim"
	"hpbd/internal/health"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// TraceRunFaults executes testswap over a mirrored HPBD node (servers
// per side) while replaying the given fault spec, with event tracing
// enabled. The returned registry holds the trace — recovery shows up as
// faultsim/link-failed/retry instants interleaved with the request
// lifecycle — plus the recovery counters. Spec syntax is
// faultsim.ParseSpec's, e.g. "crash@8ms=mem0,delay@2ms+4ms~200us=mem1".
func TraceRunFaults(c Config, servers int, spec string) (*telemetry.Registry, error) {
	sched, err := faultsim.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{Servers: orDefault(servers, 1), Mirror: true, Faults: sched}
	return traceMeasure(c, cfg, testswapWorkload(int64(paperData)/c.scale()))
}

// recoveryStat summarizes a node's recovery activity for a result row.
func recoveryStat(node *cluster.Node) string {
	t := node.Tel
	s := fmt.Sprintf("retries=%d links-lost=%d fallbacks=%d",
		t.Counter("hpbd.retries").Value(),
		t.Counter("hpbd.link_failures").Value(),
		t.Counter("hpbd.fallbacks").Value())
	if node.Mirror != nil {
		ms := node.Mirror.Stats()
		s += fmt.Sprintf(" failovers=%d degraded-writes=%d", ms.ReadFailovers, ms.DegradedWrites)
	}
	return s
}

// SweepDegraded measures degraded-mode cost: testswap on a mirrored
// two-server node, healthy versus with one server crashed halfway
// through the healthy run's virtual duration, plus the last-resort
// local-disk fallback on a single-server device. The crash instant is
// derived from the healthy run (half its virtual time), so the sweep is
// fully deterministic without wall-clock input.
func SweepDegraded(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:    "sweep-degraded",
		Title: fmt.Sprintf("Testswap under server loss (1/%d scale)", s),
		Unit:  "s",
		PaperNote: "extension: the paper defers reliability to mirroring " +
			"(Network RamDisk) — this measures what the failover costs",
	}
	data := int64(paperData) / s
	mkWorkload := testswapWorkload(data)
	// The health engine rides along (it only reads the registry, so the
	// measured times do not move) and its SLO-compliance summary becomes
	// an extra column: degraded modes should show the latency objective
	// eating budget while the healthy run stays clean.
	base := cluster.Config{
		MemBytes:  paperMem / s,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / s,
		Servers:   1,
		Mirror:    true,
		Health:    &health.Config{},
	}

	healthy, node, err := measure(base, c.Seed, mkWorkload)
	if err != nil {
		return nil, fmt.Errorf("%s/healthy: %w", res.ID, err)
	}
	p50, p99 := swapLatency(node)
	res.Rows = append(res.Rows, Row{
		Label: "mirrored-healthy", Value: healthy.Seconds(),
		P50ms: p50, P99ms: p99, Stat: recoveryStat(node),
		SLO: node.Health.SLOSummary(),
	})

	crashAt := sim.Duration(healthy) / 2
	crashed := base
	sched := faultsim.Schedule{Faults: []faultsim.Fault{
		{At: crashAt, Kind: faultsim.KindCrash, Target: "mem0"},
	}}
	crashed.Faults = &sched
	elapsed, node, err := measure(crashed, c.Seed, mkWorkload)
	if err != nil {
		return nil, fmt.Errorf("%s/crash: %w", res.ID, err)
	}
	p50, p99 = swapLatency(node)
	res.Rows = append(res.Rows, Row{
		Label: "mirrored-crash-mid-run", Value: elapsed.Seconds(),
		P50ms: p50, P99ms: p99, Stat: recoveryStat(node),
		SLO: node.Health.SLOSummary(),
	})

	fb := base
	fb.Mirror = false
	fb.FallbackDisk = true
	fb.Faults = &faultsim.Schedule{Faults: []faultsim.Fault{
		{At: crashAt, Kind: faultsim.KindCrash, Target: "mem0"},
	}}
	elapsed, node, err = measure(fb, c.Seed, mkWorkload)
	if err != nil {
		return nil, fmt.Errorf("%s/fallback: %w", res.ID, err)
	}
	p50, p99 = swapLatency(node)
	res.Rows = append(res.Rows, Row{
		Label: "fallback-disk-crash", Value: elapsed.Seconds(),
		P50ms: p50, P99ms: p99, Stat: recoveryStat(node),
		SLO: node.Health.SLOSummary(),
	})
	return res, nil
}
