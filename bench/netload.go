package main

import (
	"fmt"
	"io"
	"log"
	"runtime"
	"sort"
	"time"

	"hpbd/internal/netblock"
	"hpbd/internal/telemetry"
	"hpbd/internal/traceio"
)

// netCredits is the connection's flow-control window.
const netCredits = 16

// netDriver issues a stream against a real netblock client from the
// calling goroutine and checks every read-back. It mirrors blkDriver; the
// clock is the host's, and no simulator code runs.
type netDriver struct {
	issuer
	c             *netblock.Client
	async         [asyncWindow]func() error
	reads, writes []time.Duration // ReadAt latency; time spent issuing one write-back
}

func newNetDriver(c *netblock.Client, area int64) *netDriver {
	return &netDriver{issuer: newIssuer(area), c: c}
}

func (d *netDriver) reap(i int) {
	if wait := d.async[i]; wait != nil {
		if err := wait(); err != nil {
			d.fail("write-back: %v", err)
		}
		d.async[i] = nil
	}
}

func (d *netDriver) run(ops []traceio.Op, tr *tracer, parent int) {
	for _, op := range ops {
		t0 := hostNow()
		off := d.count(op)
		name := "op.read"
		if op.Write {
			name = "op.write"
			slot, buf := d.nextWrite(op.Bytes)
			d.reap(slot)
			d.pg.fill(buf, off)
			wait, err := d.c.WriteAsync(buf, off)
			if err != nil {
				d.fail("write: %v", err)
				continue
			}
			d.async[slot] = wait
			if op.Sync {
				d.reap(slot)
			}
			d.writes = append(d.writes, hostSince(t0))
		} else {
			buf := d.rbuf[:op.Bytes]
			if _, err := d.c.ReadAt(buf, off); err != nil {
				d.fail("read: %v", err)
			} else if err := d.pg.verify(buf, off); err != nil {
				d.fail("read-back: %v", err)
			}
			d.reads = append(d.reads, hostSince(t0))
		}
		if tr != nil {
			tr.op(name, parent, t0.Sub(tr.epoch), 0, 0, false)
		}
	}
	for i := range d.async {
		d.reap(i)
	}
}

func sortedMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

// netStages are the stages a socket client can observe.
var netStages = map[string]telemetry.Stage{
	"netblock.credit_us": telemetry.StageCreditStall,
	"netblock.send_us":   telemetry.StageSend,
	"netblock.reply_us":  telemetry.StageReply,
	"netblock.drain_us":  telemetry.StageDrain,
}

// netRepeat runs one fresh repeat against a new server and connection on
// the loopback interface. The traffic crosses 127.0.0.1, not a link: the
// figures are the cost of the protocol and the host's TCP stack.
func netRepeat(s *stream, tr *tracer, parent int) (repeat, error) {
	setupSpan := tr.begin("setup", parent)
	t0 := hostNow()
	srv, err := netblock.Serve("127.0.0.1:0", netblock.ServerConfig{
		CapacityBytes: s.area, Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		return repeat{}, err
	}
	defer srv.Close()
	c, err := netblock.Dial(srv.Addr(), s.area, netCredits)
	if err != nil {
		return repeat{}, err
	}
	defer c.Close()
	d := newNetDriver(c, s.area)
	d.run(prefill(s.area), nil, -1)
	d.run(s.ops[:s.warm], nil, -1)
	if d.failed > 0 {
		return repeat{}, fmt.Errorf("%d ops failed during set-up", d.failed)
	}
	timed := s.timed()
	d.ops, d.bytes = 0, 0
	d.reads, d.writes = make([]time.Duration, 0, len(timed)), make([]time.Duration, 0, len(timed))
	reqs0 := c.Requests()
	stage0 := map[string]time.Duration{}
	for name, st := range netStages {
		stage0[name] = c.StageSum(st)
	}
	r := repeat{setup: hostSince(t0), exact: metrics{}, noisy: map[string]float64{}}
	tr.end(setupSpan)

	repeatSpan := tr.begin("repeat", parent)
	runtime.GC()
	h0 := readHeap()
	tr.startProfile()
	t1 := hostNow()
	d.run(timed, tr, repeatSpan)
	r.wall = hostSince(t1)
	tr.stopProfile()
	r.heap = readHeap().since(h0)
	tr.end(repeatSpan)

	r.ops, r.failed, r.bytes = d.ops, d.failed, d.bytes
	reads, writes := sortedMicros(d.reads), sortedMicros(d.writes)
	r.noisy["net_read_p50_us"] = rank(reads, 0.50)
	r.noisy["netblock.read_p99_us"] = rank(reads, 0.99)
	r.noisy["netblock.write_p50_us"] = rank(writes, 0.50)
	r.noisy["netblock.MBps"] = float64(d.bytes) / 1e6 / r.wall.Seconds()
	reqs := float64(c.Requests() - reqs0)
	for name, st := range netStages {
		r.noisy[name] = float64(c.StageSum(st)-stage0[name]) / reqs / 1e3
	}
	return r, nil
}
