package experiments

import (
	"fmt"
	"math/rand"

	"hpbd/internal/cluster"
	"hpbd/internal/faultsim"
	"hpbd/internal/health"
	"hpbd/internal/sim"
	"hpbd/internal/vm"
	"hpbd/internal/workload"
)

// testswapWorkload adapts testswap to measure's workload factory shape.
func testswapWorkload(data int64) func(*vm.System, *rand.Rand) runnable {
	return func(sys *vm.System, _ *rand.Rand) runnable {
		return workload.NewTestswap(sys, data)
	}
}

// HealthRun executes testswap over a multi-server HPBD node with the
// fleet health engine enabled and returns the node for its health
// surfaces (node.Health.Report, .TopTable, .Ring().WriteCSV, ...). When
// spec is non-empty the node is mirrored and the fault schedule replays
// against it — the "watch an incident happen" mode behind
// "hpbdctl health -spec ...". Servers defaults to 4 (2 per side when
// mirrored) and the same flags always produce the same bytes.
func HealthRun(c Config, servers int, spec string, hcfg health.Config) (*cluster.Node, error) {
	s := c.scale()
	cfg := cluster.Config{
		MemBytes:  paperMem / s,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / s,
		Servers:   servers,
		Health:    &hcfg,
	}
	if spec != "" {
		sched, err := faultsim.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		cfg.Mirror = true
		cfg.Faults = sched
		cfg.Servers = orDefault(servers, 2)
	}
	cfg.Servers = orDefault(cfg.Servers, 4)
	_, node, err := measure(cfg, c.Seed, testswapWorkload(int64(paperData)/s))
	return node, err
}

// HealthTopRun executes testswap over an elastic node that grows 2 -> 4
// servers mid-run, with the health engine sampling throughout, and
// returns the node. Its TopTable shows the load moving between placement
// epochs — the "hpbdctl top" scenario.
func HealthTopRun(c Config, servers int, hcfg health.Config) (*cluster.Node, error) {
	servers = orDefault(servers, 2)
	s := c.scale()
	cfg := cluster.Config{
		MemBytes:  paperMem / s,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / s,
		Servers:   servers,
		Health:    &hcfg,
	}
	cfg.Membership = []cluster.MemberOp{
		{At: 2 * sim.Millisecond, Kind: cluster.Grow, N: servers, Area: cfg.SwapBytes / int64(servers)},
	}
	_, node, err := measure(cfg, c.Seed, testswapWorkload(int64(paperData)/s))
	return node, err
}

// AblationHealth measures what the health engine costs the workload it
// watches: testswap on a two-server node with health off, on at the
// default 200us sampling interval, and on at an aggressive 50us. The
// sampler only reads the registry, so the virtual elapsed time must not
// move at all — the rows exist to prove that, and the Stat column
// records how much sampling actually happened.
func AblationHealth(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:    "ablation-health",
		Title: fmt.Sprintf("Health-engine overhead on testswap (1/%d scale)", s),
		Unit:  "s",
		PaperNote: "extension: the engine samples the registry in sim time, so " +
			"enabling it must not move the workload — rows differ only in Stat",
	}
	base := cluster.Config{
		MemBytes:  paperMem / s,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / s,
		Servers:   2,
	}
	data := int64(paperData) / s
	mk := func(label string, hcfg *health.Config) error {
		cfg := base
		cfg.Health = hcfg
		elapsed, node, err := measure(cfg, c.Seed, testswapWorkload(data))
		if err != nil {
			return fmt.Errorf("%s/%s: %w", res.ID, label, err)
		}
		p50, p99 := swapLatency(node)
		row := Row{Label: label, Value: elapsed.Seconds(), P50ms: p50, P99ms: p99}
		if node.Health != nil {
			row.Stat = fmt.Sprintf("samples=%d alerts=%d",
				node.Tel.Counter("health.samples").Value(),
				node.Tel.Counter("health.alerts").Value())
			row.SLO = node.Health.SLOSummary()
		} else {
			row.Stat = "health off"
		}
		res.Rows = append(res.Rows, row)
		return nil
	}
	if err := mk("health-off", nil); err != nil {
		return nil, err
	}
	if err := mk("health-200us", &health.Config{}); err != nil {
		return nil, err
	}
	if err := mk("health-50us", &health.Config{SampleInterval: 50 * sim.Microsecond}); err != nil {
		return nil, err
	}
	return res, nil
}
