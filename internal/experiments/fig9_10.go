package experiments

import (
	"fmt"
	"math/rand"

	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/vm"
	"hpbd/internal/workload"
)

// measureTwoOn runs two concurrent quick sort instances on one node (the
// paper's dual-processor contention scenario) and returns each instance's
// execution time plus the node for stats inspection.
func measureTwoOn(ccfg cluster.Config, seed int64, elems int) ([2]sim.Duration, *cluster.Node, error) {
	node, elapsed, err := cluster.Run(ccfg, func(n *cluster.Node) []cluster.Proc {
		var procs []cluster.Proc
		for k := 0; k < 2; k++ {
			q := workload.NewQuicksort(n.VM, fmt.Sprintf("qsort%d", k), elems,
				rand.New(rand.NewSource(seed+int64(k))))
			procs = append(procs, cluster.Proc{Name: fmt.Sprintf("inst%d", k), Run: q.Run})
		}
		return procs
	})
	if node == nil {
		return [2]sim.Duration{}, nil, err
	}
	return [2]sim.Duration{elapsed[0], elapsed[1]}, node, err
}

// Fig9 reproduces the two-concurrent-quick-sorts experiment: execution
// time with all of memory, with 50% and 25% of it under HPBD multi-server
// swap, and with disk swap.
func Fig9(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:    "fig9",
		Title: fmt.Sprintf("Two concurrent quick sorts (1/%d scale)", s),
		Unit:  "s",
		PaperNote: "paper: HPBD 1.7x slower than local memory at 50% memory, " +
			"2.5x at 25%; disk 36x",
	}
	elems := int(int64(paperQsortInt) / s)
	// Paper setup: each memory server exports a 512 MB area.
	serverArea := int64(512<<20) / s
	swap := 5 * serverArea
	cases := []struct {
		label string
		cfg   cluster.Config
	}{
		{"local-memory", cluster.Config{
			MemBytes: 2*paperData/s + 2*paperData/s/8, Swap: cluster.SwapNone}},
		{"hpbd-50%", cluster.Config{
			MemBytes: paperData / s, Swap: cluster.SwapHPBD, SwapBytes: swap, Servers: 5}},
		{"hpbd-25%", cluster.Config{
			MemBytes: paperData / s / 2, Swap: cluster.SwapHPBD, SwapBytes: swap, Servers: 5}},
		{"disk-25%", cluster.Config{
			MemBytes: paperData / s / 2, Swap: cluster.SwapDisk, SwapBytes: swap}},
	}
	for _, cs := range cases {
		times, _, err := measureTwoOn(cs.cfg, c.Seed, elems)
		if err != nil {
			return nil, fmt.Errorf("fig9/%s: %w", cs.label, err)
		}
		avg := (times[0] + times[1]) / 2
		res.Rows = append(res.Rows, Row{
			Label: cs.label,
			Value: avg.Seconds(),
			Stat:  fmt.Sprintf("inst0 %.2fs, inst1 %.2fs", times[0].Seconds(), times[1].Seconds()),
		})
	}
	return res, nil
}

// Fig10 reproduces the quick sort server sweep: execution time with the
// swap area distributed over 1-16 memory servers.
func Fig10(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:    "fig10",
		Title: fmt.Sprintf("Quick sort with multiple servers (1/%d scale)", s),
		Unit:  "s",
		PaperNote: "paper: flat up to 8 servers, some degradation at 16 " +
			"(HCA multi-QP processing)",
	}
	elems := int(int64(paperQsortInt) / s)
	for _, servers := range []int{1, 2, 4, 8, 16} {
		cfg := cluster.Config{
			MemBytes:  paperMem / s,
			Swap:      cluster.SwapHPBD,
			SwapBytes: paperSwap / s,
			Servers:   servers,
		}
		elapsed, _, err := measure(cfg, c.Seed, func(sys *vm.System, rnd *rand.Rand) runnable {
			return workload.NewQuicksort(sys, "qsort", elems, rnd)
		})
		if err != nil {
			return nil, fmt.Errorf("fig10/%d: %w", servers, err)
		}
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d-servers", servers),
			Value: elapsed.Seconds(),
		})
	}
	return res, nil
}
