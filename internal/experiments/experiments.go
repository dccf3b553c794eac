// Package experiments reproduces every figure of the paper's evaluation
// (Figures 1, 3, 5-10) plus ablation studies of the design choices argued
// in §4. Each runner returns a Result whose rows mirror the paper's
// series; cmd/hpbd-bench prints them and EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"math/rand"

	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/vm"
	"hpbd/internal/workload"
)

// PaperScale divides the paper's dataset and memory sizes. The default 32
// maps 1 GB / 512 MB onto 32 MB / 16 MB, keeping every ratio (dataset :
// memory : swap : request size) intact while the simulation stays fast.
const PaperScale = 32

// Paper-scale quantities (before division by the scale factor).
const (
	paperMem      = 512 << 20
	paperData     = 1 << 30
	paperSwap     = 1 << 30
	paperBigMem   = 2 << 30 // the "enough memory" runs use the full 2 GB
	paperQsortInt = 256 << 20
)

// Row is one reported measurement. P50ms/P99ms, when non-zero, are
// per-page swap latency quantiles in milliseconds pulled from the node's
// telemetry registry (vm.swapin.latency, falling back to
// vm.swapout.latency for write-only workloads).
type Row struct {
	Label string
	Value float64 // seconds unless the result says otherwise
	Stat  string  // optional annotation
	P50ms float64 // swap-in latency p50, ms (0 = not measured)
	P99ms float64 // swap-in latency p99, ms (0 = not measured)
	// SLO is the health engine's per-objective compliance summary
	// ("req-e2e-p99 99.2% req-errors 100.0%"); empty when the run did not
	// enable health. Renderers append it as an extra column only when
	// present, so health-off output is byte-identical.
	SLO string
}

// Result is one reproduced table/figure.
type Result struct {
	ID        string
	Title     string
	Unit      string
	Rows      []Row
	PaperNote string // what the paper reports, for EXPERIMENTS.md
}

// Config bundles the experiment parameters.
type Config struct {
	Scale int   // divide paper sizes by this; 0 means PaperScale
	Seed  int64 // workload RNG seed
}

func (c Config) scale() int64 {
	if c.Scale <= 0 {
		return PaperScale
	}
	return int64(c.Scale)
}

// orDefault is n, or def when n is not positive.
func orDefault(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

// runnable is a workload with a Run method.
type runnable interface {
	Run(p *sim.Proc) error
}

// measure builds a node, constructs the workload, and returns the virtual
// time the workload took (after the node became ready).
func measure(ccfg cluster.Config, seed int64, mk func(*vm.System, *rand.Rand) runnable) (sim.Duration, *cluster.Node, error) {
	node, elapsed, err := cluster.Run(ccfg, func(n *cluster.Node) []cluster.Proc {
		return []cluster.Proc{{Name: "workload", Run: mk(n.VM, rand.New(rand.NewSource(seed))).Run}}
	})
	if err != nil {
		return 0, node, err
	}
	return elapsed[0], node, nil
}

// swapLatency extracts the node's per-page swap latency quantiles (ms)
// from the telemetry registry: swap-in when the run faulted pages back,
// otherwise swap-out (write-only workloads like testswap never swap in).
// Zeros when the run never swapped at all.
func swapLatency(node *cluster.Node) (p50ms, p99ms float64) {
	h := node.Tel.Histogram("vm.swapin.latency")
	if h.Count() == 0 {
		h = node.Tel.Histogram("vm.swapout.latency")
	}
	if h.Count() == 0 {
		return 0, 0
	}
	const ms = float64(sim.Millisecond)
	return float64(h.Quantile(0.50)) / ms, float64(h.Quantile(0.99)) / ms
}

// stageBreakdown summarizes the node's critical-path attribution as its
// three largest stages ("rdma 40% send 25% queue 20%"): the swap device
// records every request's per-stage latency partition into the node
// registry's Lifecycle. Empty when the node never completed a request.
func stageBreakdown(node *cluster.Node) string {
	return node.Tel.Lifecycle().TopStages(3)
}

// swapConfigs returns the paper's five configurations for single-server
// application tests, at the given scale.
func swapConfigs(s int64) []struct {
	Label string
	Cfg   cluster.Config
} {
	mem := int64(paperMem) / s
	big := int64(paperBigMem) / s
	swap := int64(paperSwap) / s
	return []struct {
		Label string
		Cfg   cluster.Config
	}{
		{"local-memory", cluster.Config{MemBytes: big, Swap: cluster.SwapNone}},
		{"hpbd", cluster.Config{MemBytes: mem, Swap: cluster.SwapHPBD, SwapBytes: swap, Servers: 1}},
		{"nbd-ipoib", cluster.Config{MemBytes: mem, Swap: cluster.SwapNBDIPoIB, SwapBytes: swap}},
		{"nbd-gige", cluster.Config{MemBytes: mem, Swap: cluster.SwapNBDGigE, SwapBytes: swap}},
		{"disk", cluster.Config{MemBytes: mem, Swap: cluster.SwapDisk, SwapBytes: swap}},
	}
}

// Fig5 reproduces the testswap execution-time comparison.
func Fig5(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:    "fig5",
		Title: fmt.Sprintf("Testswap execution time (1/%d scale)", s),
		Unit:  "s",
		PaperNote: "paper: local 5.8s, HPBD 8.4s (1.45x slower than memory, " +
			"2.2x faster than disk, 1.45x faster than NBD-GigE, 1.29x faster than NBD-IPoIB)",
	}
	for _, cfg := range swapConfigs(s) {
		data := int64(paperData) / s
		elapsed, _, err := measure(cfg.Cfg, c.Seed, func(sys *vm.System, _ *rand.Rand) runnable {
			return workload.NewTestswap(sys, data)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, cfg.Label, err)
		}
		res.Rows = append(res.Rows, Row{Label: cfg.Label, Value: elapsed.Seconds()})
	}
	return res, nil
}

// Fig7 reproduces the quick sort execution-time comparison.
func Fig7(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:    "fig7",
		Title: fmt.Sprintf("Quick sort execution time (1/%d scale)", s),
		Unit:  "s",
		PaperNote: "paper: local 94s, HPBD 138s (1.47x slower than memory, " +
			"4.5x faster than disk, 1.36x faster than NBD-GigE, 1.13x faster than NBD-IPoIB)",
	}
	elems := int(int64(paperQsortInt) / s)
	for _, cfg := range swapConfigs(s) {
		elapsed, _, err := measure(cfg.Cfg, c.Seed, func(sys *vm.System, rnd *rand.Rand) runnable {
			return workload.NewQuicksort(sys, "qsort", elems, rnd)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, cfg.Label, err)
		}
		res.Rows = append(res.Rows, Row{Label: cfg.Label, Value: elapsed.Seconds()})
	}
	return res, nil
}

// Fig8 reproduces the Barnes execution-time comparison. The body count is
// chosen so the footprint slightly exceeds local memory, as in the paper
// (516 MB observed against 512 MB local).
func Fig8(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:    "fig8",
		Title: fmt.Sprintf("Barnes execution time (1/%d scale)", s),
		Unit:  "s",
		PaperNote: "paper: same ordering as quick sort with smaller gaps " +
			"(footprint 516MB vs 512MB memory: light swapping)",
	}
	// Bodies sized so the measured footprint (222 B/body: the body record
	// plus ~1.5 octree cells of 96 B) sits just inside local memory but
	// above the kswapd watermarks, the regime the paper describes (516 MB
	// peak against 512 MB): reclaim churns lightly at the margins and
	// swapping stays non-intensive, which is why Fig. 8's gaps are small.
	// Unlike the sort, Barnes's hot set is its whole footprint, so even a
	// 1% overshoot would thrash; the paper's 516 MB peak was clearly not
	// 516 MB of uniformly hot pages.
	mem := int64(paperMem) / s
	bodies := int(float64(mem) * 0.992 / 222)
	for _, cfg := range swapConfigs(s) {
		elapsed, _, err := measure(cfg.Cfg, c.Seed, func(sys *vm.System, rnd *rand.Rand) runnable {
			return workload.NewBarnes(sys, "barnes", bodies, 2, rnd)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, cfg.Label, err)
		}
		res.Rows = append(res.Rows, Row{Label: cfg.Label, Value: elapsed.Seconds()})
	}
	return res, nil
}
