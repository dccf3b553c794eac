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
	staticRun, node, err := measure(base, c.Seed, testswapWorkload(data))
	if err != nil {
		return nil, fmt.Errorf("%s/static: %w", res.ID, err)
	}
	p50, p99 := swapLatency(node)
	res.Rows = append(res.Rows, Row{
		Label: "static-2servers", Value: staticRun.Seconds(),
		P50ms: p50, P99ms: p99, Stat: stageBreakdown(node),
		SLO: node.Health.SLOSummary(),
	})

	area := base.SwapBytes / int64(base.Servers)
	grown := base
	grown.Membership = []cluster.MemberOp{
		{At: staticRun / 4, Kind: cluster.Grow, N: 2, Area: area},
		{At: staticRun / 2, Kind: cluster.Grow, N: 4, Area: area},
	}
	elapsed, node, err := measure(grown, c.Seed, testswapWorkload(data))
	if err != nil {
		return nil, fmt.Errorf("%s/grow: %w", res.ID, err)
	}
	rebal1 := node.Ops[0].End.Sub(node.Ops[0].Start)
	rebal2 := node.Ops[1].End.Sub(node.Ops[1].Start)
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
	servers = orDefault(servers, 2)
	s := c.scale()
	cfg := cluster.Config{
		MemBytes:  paperMem / s,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / s,
		Servers:   servers,
	}
	data := int64(paperData) / (s * 4) // a short stream: the dump is the point
	grow := []cluster.MemberOp{{Kind: cluster.Grow, Area: cfg.SwapBytes / int64(servers)}}
	node, _, err := cluster.Run(cfg, func(n *cluster.Node) []cluster.Proc {
		w := workload.NewTestswap(n.VM, data)
		return []cluster.Proc{{Name: "workload", Run: func(p *sim.Proc) error {
			if err := w.Run(p); err != nil {
				return err
			}
			return n.Play(p, grow)
		}}}
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	node.HPBD.Directory().Dump(&b)
	fmt.Fprintf(&b, "migration: %d KB moved in %d moves, %d cutovers, %d requests requeued\n",
		node.Tel.Counter("migration.bytes").Value()/1024,
		node.Tel.Counter("migration.moves").Value(),
		node.Tel.Counter("migration.cutovers").Value(),
		node.Tel.Counter("migration.requeued").Value())
	return b.String(), nil
}
