package hpbd

import (
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
)

// newAdaptiveBed is a hybrid-path client with the crossover controller
// armed at a small observation window so short tests tick it many times.
func newAdaptiveBed(t *testing.T, odp bool) *testbed {
	ccfg := DefaultClientConfig()
	ccfg.HybridDataPath = true
	ccfg.AdaptiveCrossover = true
	ccfg.CrossoverWindow = 8
	ccfg.ODP = odp
	return newBed(t, bedOpts{area: 64 << 20, client: ccfg})
}

// adaptiveWorkload drives two phases: small discontiguous writes that
// carry no MR-reuse signal (the controller must probe downward), then
// repeated 64K writes whose reuse the controller can measure.
func adaptiveWorkload(t *testing.T, cb *testbed, smalls, larges int) (thrAfterSmalls int) {
	t.Helper()
	cb.run(func(p *sim.Proc) {
		for i := 0; i < smalls; i++ {
			// Stride 64 sectors so the elevator cannot coalesce the phase
			// into a handful of large requests.
			if err := cb.do(p, true, int64(i*64), pattern(4096, byte(i))); err != nil {
				t.Fatalf("small write %d: %v", i, err)
			}
		}
		thrAfterSmalls = cb.dev.HybridThreshold()
		const size = 64 * 1024
		for i := 0; i < larges; i++ {
			if err := cb.do(p, true, 1<<20/blockdev.SectorSize, pattern(size, byte(i))); err != nil {
				t.Fatalf("large write %d: %v", i, err)
			}
		}
	})
	return thrAfterSmalls
}

// The controller must move: downward probing when the workload gives it
// no reuse signal, convergence into the request range once it does, and
// an always-sane published threshold.
func TestAdaptiveCrossoverAdapts(t *testing.T) {
	cb := newAdaptiveBed(t, false)
	static := cb.dev.HybridThreshold()
	if static != netmodel.Fig3CrossoverBytes {
		t.Fatalf("initial threshold = %d, want the static design point %d", static, netmodel.Fig3CrossoverBytes)
	}
	thrAfterSmalls := adaptiveWorkload(t, cb, 16, 80)
	if thrAfterSmalls >= static {
		t.Errorf("threshold after a no-signal phase = %d, want probed below %d", thrAfterSmalls, static)
	}
	thr := cb.dev.HybridThreshold()
	if cb.dev.Stats().HybridLarge == 0 {
		t.Fatal("64K writes never reached the MR path; the controller failed to adapt")
	}
	if thr > 64*1024 {
		t.Errorf("final threshold = %d, want <= 64K with deep reuse measured", thr)
	}
	if thr < netmodel.PageSize || thr%netmodel.PageSize != 0 {
		t.Errorf("final threshold = %d, want a page multiple >= one page", thr)
	}
	if ticks := cb.reg.Counter("hpbd.crossover.ticks").Value(); ticks < 10 {
		t.Errorf("controller ticked %d times over 96 completions at window 8, want >= 10", ticks)
	}
	if g := cb.reg.Gauge("hpbd.crossover.bytes").Value(); g != int64(thr) {
		t.Errorf("published threshold gauge = %d, live threshold = %d", g, thr)
	}
	assertExactPartition(t, cb.dev)
}

// With ODP registrations the measured crossover sits at or below the
// pinned one for the same workload — on-demand regions only make the
// register path cheaper.
func TestAdaptiveCrossoverODPNoHigher(t *testing.T) {
	pinned := newAdaptiveBed(t, false)
	adaptiveWorkload(t, pinned, 16, 80)
	odp := newAdaptiveBed(t, true)
	adaptiveWorkload(t, odp, 16, 80)
	if o, p := odp.dev.HybridThreshold(), pinned.dev.HybridThreshold(); o > p {
		t.Errorf("ODP threshold = %d > pinned threshold %d for the same workload", o, p)
	}
}

// Same seed, same workload, same controller trajectory: the adaptive
// threshold must not perturb the simulator's determinism contract.
func TestAdaptiveCrossoverDeterministic(t *testing.T) {
	type snap struct {
		thr          int
		ticks        int64
		hits, misses int64
	}
	take := func() snap {
		cb := newAdaptiveBed(t, false)
		adaptiveWorkload(t, cb, 16, 80)
		return snap{
			thr:    cb.dev.HybridThreshold(),
			ticks:  cb.reg.Counter("hpbd.crossover.ticks").Value(),
			hits:   cb.dev.mrc.hits.Value(),
			misses: cb.dev.mrc.misses.Value(),
		}
	}
	a, b := take(), take()
	if a != b {
		t.Errorf("two identical runs diverged: %+v vs %+v", a, b)
	}
}

// AdaptiveCrossover without the hybrid path has nothing to control and
// must stay inert.
func TestAdaptiveCrossoverRequiresHybrid(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.AdaptiveCrossover = true
	tb := newBed(t, bedOpts{client: ccfg})
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, 0, pattern(4096, 1)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if ticks := tb.reg.Counter("hpbd.crossover.ticks").Value(); ticks != 0 {
		t.Errorf("controller ticked %d times without a hybrid path", ticks)
	}
}
