package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hpbd/internal/blockdev"
	"hpbd/internal/cluster"
	"hpbd/internal/hpbd"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/traceio"
	apps "hpbd/internal/workload"
)

// repeat is what one fresh run of a workload measured.
type repeat struct {
	setup, wall time.Duration
	heap        heap
	ops, failed int
	bytes       int64 // payload moved by the timed ops
	// exact holds the virt and count metrics, end-to-end and per-layer:
	// every repeat of a workload must produce the same map.
	exact metrics
	// noisy holds host-clock readings particular to the workload (the
	// real-network latencies); the record carries their medians.
	noisy map[string]float64
}

// simCounts is the state of a node's public counters at one instant; the
// per-layer count metrics of a workload are differences of two of them,
// so pre-fill and warm-up traffic is left out.
type simCounts struct {
	reqs, e2e                       int64
	stages                          [telemetry.NumStages]int64
	physReqs, doorbells, wakeups    int64
	creditStalls, splits, poolWaits int64
	qpMiss, mrHits, mrMisses        int64
	mergeReqs, mergeWRs             int64
	ios, dispatched                 int64
	qwaitSum, qwaitN                int64
}

func readCounts(n *cluster.Node) simCounts {
	lc, tel := n.Tel.Lifecycle(), n.Tel
	c := simCounts{
		reqs:         lc.Count(),
		e2e:          int64(tel.Histogram("req.e2e").Sum()),
		physReqs:     tel.Counter("hpbd.phys_reqs").Value(),
		doorbells:    tel.Counter("hpbd.doorbells").Value(),
		wakeups:      tel.Counter("hpbd.recv.wakeups").Value(),
		creditStalls: tel.Counter("hpbd.credit_stalls").Value(),
		splits:       tel.Counter("hpbd.splits").Value(),
		poolWaits:    tel.Counter("pool.alloc.waits").Value(),
		qpMiss:       tel.Counter("ib.qp_cache_miss").Value(),
		mrHits:       tel.Counter("hpbd.hybrid.mr_hits").Value(),
		mrMisses:     tel.Counter("hpbd.hybrid.mr_misses").Value(),
		mergeReqs:    tel.Counter("hpbd.merge.reqs").Value(),
		mergeWRs:     tel.Counter("hpbd.merge.wrs").Value(),
		qwaitSum:     int64(tel.Histogram("blk.queue.wait").Sum()),
		qwaitN:       tel.Histogram("blk.queue.wait").Count(),
	}
	for s := range c.stages {
		c.stages[s] = int64(lc.StageSum(telemetry.Stage(s)))
	}
	st := n.Queue.Stats()
	c.ios, c.dispatched = int64(st.IOsSubmitted), int64(st.RequestsDispatched)
	return c
}

func us(ns int64, n int64) float64 { return float64(ns) / float64(n) / 1e3 }

// layerMetrics turns the counter movement from c0 to c into the
// per-workload layer metrics. The eight stage means must partition the
// mean end-to-end request latency exactly; anything else is a bug in the
// lifecycle accounting and fails the run.
func (c simCounts) layerMetrics(c0 simCounts, m metrics) error {
	reqs := c.reqs - c0.reqs
	if reqs <= 0 {
		return fmt.Errorf("no requests completed in the timed section")
	}
	var stageSum int64
	for s := range c.stages {
		d := c.stages[s] - c0.stages[s]
		stageSum += d
		m.set(stageMetric(telemetry.Stage(s)), us(d, reqs))
	}
	if e2e := c.e2e - c0.e2e; stageSum != e2e {
		return fmt.Errorf("stage partition broken: stages sum to %d ns, req.e2e to %d ns over %d requests", stageSum, e2e, reqs)
	}
	phys := float64(c.physReqs - c0.physReqs)
	m.set("hpbd.doorbells_per_req", float64(c.doorbells-c0.doorbells)/phys)
	m.set("hpbd.recv_wakeups_per_req", float64(c.wakeups-c0.wakeups)/phys)
	m.set("hpbd.credit_stalls", float64(c.creditStalls-c0.creditStalls))
	m.set("hpbd.splits", float64(c.splits-c0.splits))
	m.set("pool.alloc_waits", float64(c.poolWaits-c0.poolWaits))
	m.set("ib.qp_cache_miss", float64(c.qpMiss-c0.qpMiss))
	if wrs := c.mergeWRs - c0.mergeWRs; wrs > 0 {
		m.set("hpbd.merge_run", float64(c.mergeReqs-c0.mergeReqs)/float64(wrs))
	}
	if hits, misses := c.mrHits-c0.mrHits, c.mrMisses-c0.mrMisses; hits+misses > 0 {
		m.set("hpbd.mr_hit_frac", float64(hits)/float64(hits+misses))
	}
	m.set("blockdev.ios_per_req", float64(c.ios-c0.ios)/float64(c.dispatched-c0.dispatched))
	m.set("blockdev.queue_wait_us", us(c.qwaitSum-c0.qwaitSum, c.qwaitN-c0.qwaitN))
	return nil
}

// timedRun is the one way a simulated timed section is measured: collect
// garbage, read the allocation odometer and the host clock, run the
// simulation until it drains, read them again. A traced repeat also has
// the CPU profiler on for exactly that interval.
func timedRun(env *sim.Env, tr *tracer) (time.Duration, heap) {
	runtime.GC()
	h0 := readHeap()
	tr.startProfile()
	t0 := hostNow()
	env.Run()
	wall := hostSince(t0)
	tr.stopProfile()
	return wall, readHeap().since(h0)
}

// blkDriver issues a stream against a block queue from one sim proc and
// checks every read-back.
type blkDriver struct {
	issuer
	q     *blockdev.Queue
	async [asyncWindow]*blockdev.IO // ring of write-back in flight
	reads []sim.Duration            // submit to Wait return, per read
}

func newBlkDriver(q *blockdev.Queue, area int64) *blkDriver {
	return &blkDriver{issuer: newIssuer(area), q: q}
}

// reap waits for the write-back in ring slot i, if any.
func (d *blkDriver) reap(p *sim.Proc, i int) {
	if io := d.async[i]; io != nil {
		if err := io.Wait(p); err != nil {
			d.fail("write-back: %v", err)
		}
		d.async[i] = nil
	}
}

// run issues ops in order. Synchronous ops are waited for at once; the
// others ride the asyncWindow-deep ring and are all reaped before run
// returns. With a tracer, every op becomes a span under parent.
func (d *blkDriver) run(p *sim.Proc, ops []traceio.Op, tr *tracer, parent int) {
	for _, op := range ops {
		var h0 time.Duration
		if tr != nil {
			h0 = tr.now()
		}
		v0 := p.Now()
		off := d.count(op)
		name := "op.read"
		if op.Write {
			name = "op.write"
			slot, buf := d.nextWrite(op.Bytes)
			d.reap(p, slot)
			d.pg.fill(buf, off)
			io, err := d.q.Submit(true, op.Sector, buf)
			if err != nil {
				d.fail("submit write: %v", err)
				continue
			}
			d.q.Unplug()
			if op.Sync {
				if err := io.Wait(p); err != nil {
					d.fail("write: %v", err)
				}
			} else {
				d.async[slot] = io
			}
		} else {
			buf := d.rbuf[:op.Bytes]
			io, err := d.q.Submit(false, op.Sector, buf)
			if err != nil {
				d.fail("submit read: %v", err)
				continue
			}
			d.q.Unplug()
			if err := io.Wait(p); err != nil {
				d.fail("read: %v", err)
			} else if err := d.pg.verify(buf, off); err != nil {
				d.fail("read-back: %v", err)
			}
			d.reads = append(d.reads, p.Now().Sub(v0))
		}
		if tr != nil {
			tr.op(name, parent, h0, v0, p.Now(), true)
		}
	}
	for i := range d.async {
		d.reap(p, i)
	}
}

// prefill writes the whole area once, so every read of the timed section
// has a version to check against.
func prefill(area int64) []traceio.Op {
	ops := make([]traceio.Op, 0, area/writeBytes)
	for off := int64(0); off < area; off += writeBytes {
		ops = append(ops, traceio.Op{Write: true, Sector: off / blockdev.SectorSize, Bytes: writeBytes})
	}
	return ops
}

// blkRepeat runs one fresh repeat of a simulated block workload: build
// the node, pre-fill and warm up (set-up), then time the measured ops.
func blkRepeat(servers int, client *hpbd.ClientConfig, s *stream, tr *tracer, parent int) (repeat, error) {
	setupSpan := tr.begin("setup", parent)
	t0 := hostNow()
	env := sim.NewEnv()
	defer env.Close()
	node, err := cluster.Build(env, cluster.Config{
		MemBytes: 1 << 20, Swap: cluster.SwapHPBD, SwapBytes: s.area, Servers: servers, Client: client,
	})
	if err != nil {
		return repeat{}, err
	}
	d := newBlkDriver(node.Queue, s.area)
	env.Go("bench-setup", func(p *sim.Proc) {
		node.Ready.Wait(p)
		d.run(p, prefill(s.area), nil, -1)
		d.run(p, s.ops[:s.warm], nil, -1)
	})
	env.Run()
	if d.failed > 0 {
		return repeat{}, fmt.Errorf("%d ops failed during set-up", d.failed)
	}
	c0 := readCounts(node)
	d.ops, d.bytes, d.reads = 0, 0, make([]sim.Duration, 0, len(s.timed()))
	r := repeat{setup: hostSince(t0), exact: metrics{}}
	tr.end(setupSpan)

	repeatSpan := tr.begin("repeat", parent)
	var virtRun sim.Duration
	env.Go("bench-driver", func(p *sim.Proc) {
		v0 := p.Now()
		d.run(p, s.timed(), tr, repeatSpan)
		virtRun = p.Now().Sub(v0)
	})
	r.wall, r.heap = timedRun(env, tr)
	tr.end(repeatSpan)

	r.ops, r.failed, r.bytes = d.ops, d.failed, d.bytes
	if d.ops != len(s.timed()) {
		return r, fmt.Errorf("simulation drained after %d of %d ops", d.ops, len(s.timed()))
	}
	r.exact.set("virt_runtime_s", virtRun.Seconds())
	if len(d.reads) > 0 {
		sort.Slice(d.reads, func(i, j int) bool { return d.reads[i] < d.reads[j] })
		r.exact.set("virt_read_p50_us", rank(d.reads, 0.50).Micros())
		r.exact.set("virt_read_p99_us", rank(d.reads, 0.99).Micros())
	}
	return r, readCounts(node).layerMetrics(c0, r.exact)
}

// fig7 sizes, as internal/experiments derives them from the paper's.
const (
	paperMem      = 512 << 20
	paperSwap     = 1 << 30
	paperQsortInt = 256 << 20
)

// qsortRepeat runs the fig7 "hpbd" row: quicksort over a dataset twice
// local memory, swapping to one HPBD server. Nothing is warmed up or
// pre-filled, so the virtual runtime is the figure's.
func qsortRepeat(scale, seed int64, tr *tracer, parent int) (repeat, error) {
	setupSpan := tr.begin("setup", parent)
	t0 := hostNow()
	env := sim.NewEnv()
	defer env.Close()
	node, err := cluster.Build(env, cluster.Config{
		MemBytes: paperMem / scale, Swap: cluster.SwapHPBD, SwapBytes: paperSwap / scale, Servers: 1,
	})
	if err != nil {
		return repeat{}, err
	}
	w := apps.NewQuicksort(node.VM, "qsort", int(paperQsortInt/scale), rand.New(rand.NewSource(seed)))
	r := repeat{setup: hostSince(t0), exact: metrics{}}
	tr.end(setupSpan)

	repeatSpan := tr.begin("repeat", parent)
	var virtRun sim.Duration
	var runErr error
	env.Go("workload", func(p *sim.Proc) {
		node.Ready.Wait(p)
		v0 := p.Now()
		runErr = w.Run(p)
		virtRun = p.Now().Sub(v0)
	})
	r.wall, r.heap = timedRun(env, tr)
	tr.end(repeatSpan)

	if runErr != nil {
		return r, fmt.Errorf("quicksort: %w", runErr)
	}
	// The op of this workload is a request the block layer dispatched;
	// every one of them is failed if the sort's post-condition is.
	qs := node.Queue.Stats()
	r.ops, r.bytes = qs.RequestsDispatched, qs.BytesRead+qs.BytesWritten
	if !w.Sorted() {
		r.failed = r.ops
		warnf("quicksort left the array unsorted")
	}
	m := r.exact
	m.set("virt_runtime_s", virtRun.Seconds())
	in := node.Tel.Histogram("vm.swapin.latency")
	m.set("virt_swapin_mean_us", us(int64(in.Sum()), in.Count()))
	m.set("vm.swapin_p50_us", in.Quantile(0.50).Micros())
	m.set("vm.swapin_p99_us", in.Quantile(0.99).Micros())
	vs := node.VM.Stats()
	m.set("vm.swapins", float64(vs.SwapIns))
	m.set("vm.swapouts", float64(vs.SwapOuts))
	m.set("vm.alloc_stalls", float64(vs.AllocStalls))
	m.set("vm.readahead_useful_frac", float64(vs.ReadAheadUseful)/float64(vs.ReadAheadPages))
	return r, readCounts(node).layerMetrics(simCounts{}, m)
}

// dataPathV2 is every opt-in data-path feature of the client at once.
func dataPathV2() *hpbd.ClientConfig {
	c := hpbd.DefaultClientConfig()
	c.HybridDataPath = true
	c.ODP = true
	c.MergeWindow = 8
	c.AdaptiveCrossover = true
	c.DoorbellBatch = 8
	return &c
}
