package hpbd

import (
	"math/bits"

	"hpbd/internal/blockdev"
	"hpbd/internal/ib"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// mrCache is the register-on-demand side of the data path, as one policy:
// which single requests take it (thr, and the controller that moves it),
// how a miss registers (pinned or on-demand paging) and where the
// copy/register crossover sits for that kind of region. It keeps recently
// used payload MRs registered so repeated large transfers amortize the
// registration cost (the MR-reuse idea RDMAbox applies to swap traffic).
// Idle MRs sit in least-recently-returned order; get hands out the first
// large-enough buffer, put evicts the coldest entry beyond the cap and
// pays deregistration for it. With the cache warm, a large request's
// registration cost drops to zero and the register path wins against
// copy-into-pool everywhere at or above the Fig. 3 crossover.
type mrCache struct {
	hca  *ib.HCA
	cap  int
	idle []*ib.MR // least recently returned first

	// thr is the copy/register cutover: single requests of at least thr
	// bytes ride a cached MR. Zero keeps every single request on the
	// paper's copy-into-pool path (the cache then serves merge carriers
	// only).
	thr int
	// register and crossover are the region kind, chosen once: a pinned
	// registration with the Fig. 3 crossover, or an ODP region — near-free
	// to register, the first WR through each page window pays a fault
	// (charged by the fabric) — with its lower one.
	register  func(*sim.Proc, []byte) *ib.MR
	crossover func(reuse int) int

	// The threshold controller (see tick). win is its observation window
	// in completed requests; zero is the static threshold — the controller
	// that never ticks.
	win        int
	n          int // completions observed this window
	lastHits   int64
	lastMisses int64
	poolWait   sim.Duration // accumulated pool-wait time this window
	e2e        sim.Duration // accumulated end-to-end time this window
	thrGauge   *telemetry.Gauge
	ticks      *telemetry.Counter

	hits   *telemetry.Counter
	misses *telemetry.Counter
	evicts *telemetry.Counter
	// idleG mirrors len(idle) so the trace shows cache occupancy over
	// time; keeping it exact through the eviction path is the accounting
	// contract TestMRCacheEvictWhileIdle pins down.
	idleG *telemetry.Gauge
}

// newMRCache builds the cache a device with HybridDataPath or MergeWindow
// needs, reading the policy out of cfg.
func newMRCache(hca *ib.HCA, mem netmodel.MemModel, cfg ClientConfig, reg *telemetry.Registry) *mrCache {
	c := &mrCache{
		hca:       hca,
		cap:       cfg.MRCacheEntries,
		register:  hca.RegisterMR,
		crossover: mem.CopyRegisterCrossover,
		hits:      reg.Counter("hpbd.hybrid.mr_hits"),
		misses:    reg.Counter("hpbd.hybrid.mr_misses"),
		evicts:    reg.Counter("hpbd.hybrid.mr_evicts"),
		idleG:     reg.Gauge("hpbd.hybrid.mr_idle"),
	}
	if c.cap <= 0 {
		c.cap = 8
	}
	if cfg.ODP {
		c.register, c.crossover = hca.RegisterODP, mem.ODPRegisterCrossover
	}
	if !cfg.HybridDataPath {
		return c
	}
	c.thr = cfg.HybridThresholdBytes
	if c.thr <= 0 {
		c.thr = netmodel.Fig3CrossoverBytes
	}
	// The controller feeds on the device's lifecycle records.
	if cfg.AdaptiveCrossover {
		c.win = cfg.CrossoverWindow
		if c.win <= 0 {
			c.win = 64
		}
		c.thrGauge = reg.Gauge("hpbd.crossover.bytes")
		c.ticks = reg.Counter("hpbd.crossover.ticks")
		c.thrGauge.Set(int64(c.thr))
	}
	return c
}

// takes reports whether a single n-byte request rides a cached MR instead
// of the pool. A device without the MR path has a nil cache.
func (c *mrCache) takes(n int) bool { return c != nil && c.thr > 0 && n >= c.thr }

// get returns an idle registered MR of at least n bytes, registering a
// fresh power-of-two-sized buffer (charging p the registration cost) on a
// miss. The size rounding keeps buffers interchangeable across the narrow
// large-request size range, which is what makes reuse hit.
func (c *mrCache) get(p *sim.Proc, n int) *ib.MR {
	for i, mr := range c.idle {
		if len(mr.Buf) >= n {
			c.idle = append(c.idle[:i], c.idle[i+1:]...)
			c.hits.Inc()
			c.idleG.Set(int64(len(c.idle)))
			return mr
		}
	}
	c.misses.Inc()
	size := 1 << bits.Len(uint(max(n, netmodel.PageSize)-1))
	return c.register(p, make([]byte, size))
}

// put returns an MR to the idle list, evicting (and deregistering) the
// least recently used entry beyond capacity. A nil p (failure teardown)
// skips the deregistration charge — there is no process to bill.
func (c *mrCache) put(p *sim.Proc, mr *ib.MR) {
	c.idle = append(c.idle, mr)
	if len(c.idle) <= c.cap {
		c.idleG.Set(int64(len(c.idle)))
		return
	}
	old := c.idle[0]
	c.idle = c.idle[1:]
	c.evicts.Inc()
	c.idleG.Set(int64(len(c.idle)))
	if p != nil {
		c.hca.DeregisterMR(p, old)
	} else {
		c.hca.DeregisterMRAtTeardown(old)
	}
}

// Idle returns how many registered MRs sit unused in the cache (tests).
func (c *mrCache) Idle() int { return len(c.idle) }

// observe feeds one completed request's lifecycle record into the
// threshold controller; every win-th completion runs a control tick.
// Called from recordReq, so it must not allocate.
//
//hpbd:hotpath
func (c *mrCache) observe(rec *telemetry.ReqRecord) {
	if c == nil || c.win == 0 {
		return
	}
	c.n++
	c.poolWait += rec.Stages[telemetry.StagePoolWait]
	c.e2e += rec.End.Sub(rec.Start)
	if c.n >= c.win {
		c.tick()
	}
}

// tick is one control step of the adaptive threshold. The static design
// point — netmodel.Fig3CrossoverBytes — assumes every large request pays
// a full pinned registration; with the MR reuse cache (and even more so
// with ODP) the amortized cost of the register path is far lower, so the
// optimal cutover sits well below Figure 3's. The controller measures
// where it actually is: every window of completed requests it reads the
// cache's hit/miss delta, re-derives the crossover for the observed reuse
// factor, and moves the threshold halfway toward it. Two refinements keep
// it honest:
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
//
//hpbd:hotpath
func (c *mrCache) tick() {
	hits, misses := c.hits.Value(), c.misses.Value()
	dh, dm := hits-c.lastHits, misses-c.lastMisses
	c.lastHits, c.lastMisses = hits, misses

	thr := c.thr
	if dh+dm == 0 {
		// No MR-path traffic this window: no reuse signal. Probe downward
		// so a threshold above the workload's request sizes cannot pin
		// itself there by starving the measurement.
		thr -= max(thr/8, netmodel.PageSize)
	} else {
		// Average registrations amortize over (hits+misses)/misses uses;
		// a window of pure hits reads as deep reuse.
		reuse := int(dh + dm)
		if dm > 0 {
			reuse = int((dh + dm) / dm)
		}
		thr = (thr + c.crossover(reuse)) / 2
		if c.e2e > 0 && c.poolWait > c.e2e/8 {
			// The pool is the bottleneck: push one more page class of
			// traffic onto the register path than the cost model asks.
			thr -= netmodel.PageSize
		}
	}
	thr = min(max(thr, netmodel.PageSize), blockdev.MaxRequestBytes+netmodel.PageSize)
	thr -= thr % netmodel.PageSize
	c.thr = thr

	c.n = 0
	c.poolWait = 0
	c.e2e = 0
	c.ticks.Inc()
	c.thrGauge.Set(int64(thr))
}
