package experiments

import (
	"fmt"
	"strings"

	"hpbd/internal/cluster"
	"hpbd/internal/health"
	"hpbd/internal/sim"
	"hpbd/internal/workload"
)

// SweepElastic measures what growing the fleet costs the foreground: a
// testswap run over a static two-server node, then the same run while
// the node grows 2 -> 4 -> 8 servers mid-stream with live migration
// rebalancing after every add. Rows report total runtime and foreground
// swap p99 for both, plus the virtual time each rebalance wave took.
// The grow instants are derived from the static run's duration (1/4 and
// 1/2 points), so the sweep is fully deterministic.
func SweepElastic(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:    "sweep-elastic",
		Title: fmt.Sprintf("Testswap while the fleet grows 2 -> 4 -> 8 (1/%d scale)", s),
		Unit:  "s",
		PaperNote: "extension: the paper's fleet is fixed at module load — this " +
			"measures live growth with migration riding the same RDMA data path",
	}
	data := int64(paperData) / s
	// Health rides along read-only; its SLO summary becomes an extra
	// column showing whether the grows cost the foreground any budget.
	base := cluster.Config{
		MemBytes:  paperMem / s,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / s,
		Servers:   2,
		Health:    &health.Config{},
	}

	// Static baseline: same node shape, no membership changes, so the
	// two runs differ only by the grows.
	staticRun, node, err := measureElastic(base, data, 0, 0, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("%s/static: %w", res.ID, err)
	}
	p50, p99 := swapLatency(node)
	res.Rows = append(res.Rows, Row{
		Label: "static-2servers", Value: staticRun.Seconds(),
		P50ms: p50, P99ms: p99, Stat: stageBreakdown(node),
		SLO: node.Health.SLOSummary(),
	})

	growAt1 := staticRun / 4
	growAt2 := staticRun / 2
	var rebal1, rebal2 sim.Duration
	elapsed, node, err := measureElastic(base, data, growAt1, growAt2, &rebal1, &rebal2)
	if err != nil {
		return nil, fmt.Errorf("%s/grow: %w", res.ID, err)
	}
	p50, p99 = swapLatency(node)
	tel := node.Tel
	res.Rows = append(res.Rows,
		Row{
			Label: "elastic-grow-2-4-8", Value: elapsed.Seconds(),
			P50ms: p50, P99ms: p99,
			Stat: fmt.Sprintf("epoch=%d migrated=%dKB moves=%d requeued=%d stalls=%d",
				tel.Gauge("placement.epoch").Value(),
				tel.Counter("migration.bytes").Value()/1024,
				tel.Counter("migration.moves").Value(),
				tel.Counter("migration.requeued").Value(),
				tel.Histogram("migration.stall").Count()),
			SLO: node.Health.SLOSummary(),
		},
		Row{Label: "rebalance-2to4", Value: rebal1.Seconds(), Stat: "2 servers added"},
		Row{Label: "rebalance-4to8", Value: rebal2.Seconds(), Stat: "4 servers added"},
	)
	return res, nil
}

// PlacementDump runs a short elastic scenario — testswap over servers
// founders with one mid-run fleet grow — and returns the placement
// directory's deterministic dump plus the migration counters, for
// hpbdctl's placement subcommand. The same flags always produce the
// same bytes.
func PlacementDump(c Config, servers int) (string, error) {
	if servers <= 0 {
		servers = 2
	}
	s := c.scale()
	cfg := cluster.Config{
		MemBytes:  paperMem / s,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / s,
		Servers:   servers,
	}
	env := sim.NewEnv()
	node, err := cluster.Build(env, cfg)
	if err != nil {
		return "", err
	}
	data := int64(paperData) / (s * 4) // a short stream: the dump is the point
	w := workload.NewTestswap(node.VM, data)
	var runErr error
	env.Go("workload", func(p *sim.Proc) {
		node.Ready.Wait(p)
		if runErr = w.Run(p); runErr != nil {
			return
		}
		if _, runErr = node.GrowFleet(p, cfg.SwapBytes/int64(servers)); runErr != nil {
			return
		}
	})
	env.Run()
	env.Close()
	if runErr != nil {
		return "", runErr
	}
	dir := node.HPBD.Directory()
	if dir == nil {
		return "", fmt.Errorf("elastic node has no placement directory")
	}
	var b strings.Builder
	dir.Dump(&b)
	fmt.Fprintf(&b, "migration: %d KB moved in %d moves, %d cutovers, %d requests requeued\n",
		node.Tel.Counter("migration.bytes").Value()/1024,
		node.Tel.Counter("migration.moves").Value(),
		node.Tel.Counter("migration.cutovers").Value(),
		node.Tel.Counter("migration.requeued").Value())
	return b.String(), nil
}

// measureElastic runs testswap on an elastic node, optionally growing
// the fleet 2->4 at growAt1 and 4->8 at growAt2 (virtual time since the
// node became ready; 0 disables). The rebalance wave durations are
// written through rebal1/rebal2 when non-nil.
func measureElastic(ccfg cluster.Config, data int64, growAt1, growAt2 sim.Duration, rebal1, rebal2 *sim.Duration) (sim.Duration, *cluster.Node, error) {
	env := sim.NewEnv()
	node, err := cluster.Build(env, ccfg)
	if err != nil {
		return 0, nil, err
	}
	area := ccfg.SwapBytes / int64(ccfg.Servers)
	w := workload.NewTestswap(node.VM, data)
	var elapsed sim.Duration
	var runErr, growErr error
	env.Go("workload", func(p *sim.Proc) {
		node.Ready.Wait(p)
		t0 := p.Now()
		runErr = w.Run(p)
		elapsed = p.Now().Sub(t0)
	})
	if growAt1 > 0 {
		env.Go("membership", func(p *sim.Proc) {
			node.Ready.Wait(p)
			t0 := p.Now()
			p.Sleep(growAt1)
			w1 := p.Now()
			for i := 0; i < 2; i++ {
				if _, err := node.GrowFleet(p, area); err != nil {
					growErr = fmt.Errorf("grow 2->4: %w", err)
					return
				}
			}
			if rebal1 != nil {
				*rebal1 = p.Now().Sub(w1)
			}
			if wait := growAt2 - p.Now().Sub(t0); wait > 0 {
				p.Sleep(wait)
			}
			w2 := p.Now()
			for i := 0; i < 4; i++ {
				if _, err := node.GrowFleet(p, area); err != nil {
					growErr = fmt.Errorf("grow 4->8: %w", err)
					return
				}
			}
			if rebal2 != nil {
				*rebal2 = p.Now().Sub(w2)
			}
		})
	}
	env.Run()
	env.Close()
	if runErr != nil {
		return 0, node, fmt.Errorf("workload: %w", runErr)
	}
	if growErr != nil {
		return 0, node, growErr
	}
	return elapsed, node, nil
}
