package experiments

import (
	"math/rand"

	"hpbd/internal/cluster"
	"hpbd/internal/telemetry"
	"hpbd/internal/vm"
	"hpbd/internal/workload"
)

// traceMeasure is measure with event tracing enabled: it runs the
// workload on cfg completed to the paper's HPBD node with a tracing
// registry, and returns the registry for trace/metrics export.
func traceMeasure(c Config, cfg cluster.Config, mk func(*vm.System, *rand.Rand) runnable) (*telemetry.Registry, error) {
	s := c.scale()
	cfg.MemBytes, cfg.Swap, cfg.SwapBytes, cfg.Trace = paperMem/s, cluster.SwapHPBD, paperSwap/s, true
	_, node, err := measure(cfg, c.Seed, mk)
	if node == nil {
		return nil, err
	}
	return node.Tel, err
}

// TraceRun executes the stock testswap workload over a multi-server HPBD
// node with event tracing enabled and returns the node's telemetry
// registry. Callers render the registry's tracer as Chrome trace-event
// JSON (Tracer.WriteJSON) and its metrics as a table (Registry.Summary).
// Servers defaults to 4 when <= 0, matching the paper's striped setup.
func TraceRun(c Config, servers int) (*telemetry.Registry, error) {
	s := c.scale()
	data := int64(paperData) / s
	return traceMeasure(c, cluster.Config{Servers: orDefault(servers, 4)}, testswapWorkload(data))
}

// TraceRunQuicksort is TraceRun with the quick-sort workload, whose
// random access pattern exercises readahead and swap-cache behaviour the
// sequential testswap does not.
func TraceRunQuicksort(c Config, servers int) (*telemetry.Registry, error) {
	s := c.scale()
	elems := int(int64(paperQsortInt) / s)
	return traceMeasure(c, cluster.Config{Servers: orDefault(servers, 4)}, func(sys *vm.System, rnd *rand.Rand) runnable {
		return workload.NewQuicksort(sys, "qsort", elems, rnd)
	})
}
