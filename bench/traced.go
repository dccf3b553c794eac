package main

import (
	"fmt"
	"path/filepath"
)

// tracedRepeat runs one more repeat of the workload under the span
// recorder and the CPU profiler, and adds what it learns to rec's
// per-layer metrics. The traced repeat must reproduce the untraced
// repeats' virt and count metrics exactly; its own host figures are used
// only for bench.trace_overhead_frac.
func tracedRepeat(w *workload, run func(*tracer, int) (repeat, error), opt options, untraced repeat, rec *workloadRecord) error {
	tr := newTracer(rec.Ops + 8)
	root := tr.begin("workload", -1)
	r, err := run(tr, root)
	tr.end(root)
	if err != nil {
		return err
	}
	if tr.profErr != nil {
		return fmt.Errorf("CPU profile: %w", tr.profErr)
	}
	if err := sameExact(untraced.exact, r.exact); err != nil {
		return fmt.Errorf("tracing moved a simulated result: %w", err)
	}
	rec.Attempted += r.ops
	rec.Failed += r.failed

	shares, samples, err := cpuAttribution(tr.prof.Bytes())
	if err != nil {
		return err
	}
	for _, s := range cpuShares {
		rec.PerLayer.set("cpu."+s+"_share", shares[s])
	}
	rec.PerLayer.set("bench.trace_overhead_frac", r.wall.Seconds()/rec.PerLayer["host_wall_s"].Value-1)

	// run opened "setup" and "repeat" under root, in that order.
	const setupSpan, repeatSpan = 1, 2
	rec.Trace = &traced{
		File:        filepath.Join(opt.outDir, fmt.Sprintf("%s.seed%d.trace.json", w.name, opt.seed)),
		Spans:       len(tr.spans),
		CPUSamples:  samples,
		SetupS:      (tr.spans[setupSpan].h1 - tr.spans[setupSpan].h0).Seconds(),
		RepeatS:     (tr.spans[repeatSpan].h1 - tr.spans[repeatSpan].h0).Seconds(),
		RepeatSelfS: tr.self(repeatSpan).Seconds(),
	}
	return tr.write(rec.Trace.File)
}
