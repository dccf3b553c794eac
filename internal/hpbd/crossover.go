package hpbd

import (
	"hpbd/internal/blockdev"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// defaultCrossoverWindow is the controller's observation window in
// completed requests when ClientConfig.CrossoverWindow is zero.
const defaultCrossoverWindow = 64

// crossoverCtrl adapts the hybrid copy/register threshold at run time.
// The static design point — netmodel.Fig3CrossoverBytes — assumes every
// large request pays a full pinned registration; with the MR reuse cache
// (and even more so with ODP) the amortized cost of the register path is
// far lower, so the optimal cutover sits well below Figure 3's. The
// controller measures where it actually is: every window of completed
// requests it reads the MR cache's hit/miss delta, re-derives the
// crossover for the observed reuse factor, and moves the threshold
// halfway toward it. Two refinements keep it honest:
//
//   - a window with MR-path traffic but heavy pool-wait time (per-stage
//     lifecycle data: pool wait above 1/8 of end-to-end) steps the
//     threshold down one page — routing more requests around the
//     congested pool is worth more than the model's crossover says;
//   - a window with no MR-path traffic at all carries no reuse signal,
//     so the controller probes downward instead of holding still —
//     otherwise a threshold above the workload's request sizes would
//     starve itself of measurements forever.
//
// The threshold is clamped to [PageSize, MaxRequestBytes+PageSize] (the
// top end meaning "hybrid off": no block-layer request qualifies) and
// kept page-aligned so the cutover never lands mid-page.
type crossoverCtrl struct {
	dev *Device
	win int // completions per control tick

	n          int // completions observed this window
	lastHits   int64
	lastMisses int64
	poolWait   sim.Duration // accumulated pool-wait time this window
	e2e        sim.Duration // accumulated end-to-end time this window

	thrGauge *telemetry.Gauge
	ticks    *telemetry.Counter
}

func newCrossoverCtrl(d *Device, window int, reg *telemetry.Registry) *crossoverCtrl {
	if window <= 0 {
		window = defaultCrossoverWindow
	}
	c := &crossoverCtrl{
		dev:      d,
		win:      window,
		thrGauge: reg.Gauge("hpbd.crossover.bytes"),
		ticks:    reg.Counter("hpbd.crossover.ticks"),
	}
	c.thrGauge.Set(int64(d.hybridThr))
	return c
}

// observe feeds one completed request's lifecycle record into the
// controller; every win-th completion runs a control tick. Called from
// recordReq, so it must not allocate.
//
//hpbd:hotpath
func (c *crossoverCtrl) observe(rec *telemetry.ReqRecord) {
	c.n++
	c.poolWait += rec.Stages[telemetry.StagePoolWait]
	c.e2e += rec.End.Sub(rec.Start)
	if c.n >= c.win {
		c.tick()
	}
}

// tick is one control step: derive a target threshold from the window's
// MR-cache reuse and pool-pressure observations, move halfway toward it,
// clamp, align, publish.
//
//hpbd:hotpath
func (c *crossoverCtrl) tick() {
	d := c.dev
	hits, misses := d.mrc.hits.Value(), d.mrc.misses.Value()
	dh, dm := hits-c.lastHits, misses-c.lastMisses
	c.lastHits, c.lastMisses = hits, misses

	thr := d.hybridThr
	if dh+dm == 0 {
		// No MR-path traffic this window: no reuse signal. Probe downward
		// so a threshold above the workload's request sizes cannot pin
		// itself there by starving the measurement.
		step := thr / 8
		if step < netmodel.PageSize {
			step = netmodel.PageSize
		}
		thr -= step
	} else {
		// Average registrations amortize over (hits+misses)/misses uses;
		// a window of pure hits reads as deep reuse.
		reuse := int(dh + dm)
		if dm > 0 {
			reuse = int((dh + dm) / dm)
		}
		var target int
		if d.mrc.odp {
			target = d.mem.ODPRegisterCrossover(reuse)
		} else {
			target = d.mem.CopyRegisterCrossover(reuse)
		}
		thr = (thr + target) / 2
		if c.e2e > 0 && c.poolWait > c.e2e/8 {
			// The pool is the bottleneck: push one more page class of
			// traffic onto the register path than the cost model asks.
			thr -= netmodel.PageSize
		}
	}
	if thr < netmodel.PageSize {
		thr = netmodel.PageSize
	}
	if max := blockdev.MaxRequestBytes + netmodel.PageSize; thr > max {
		thr = max
	}
	thr -= thr % netmodel.PageSize
	d.hybridThr = thr

	c.n = 0
	c.poolWait = 0
	c.e2e = 0
	c.ticks.Inc()
	c.thrGauge.Set(int64(thr))
}
