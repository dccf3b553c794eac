package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/cluster"
	"hpbd/internal/experiments"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/traceio"
	apps "hpbd/internal/workload"
)

// Small sizes throughout: the whole package must stay a few seconds, with
// and without -race, so tier-1 stays fast.
const (
	testArea  = 8 << 20
	testOps   = 400
	testWarm  = 40
	testScale = 1024
)

// slowUnderRace skips the two tests that run whole quicksorts. They are
// single-threaded deterministic simulation, ten times slower under the
// race detector, and it has nothing to find in them that the short
// simulated tests and TestNetRepeat do not already put before it.
func slowUnderRace(t *testing.T) {
	if raceDetector {
		t.Skip("whole-quicksort simulation: too slow under -race")
	}
}

func TestQsortEqualsFig7Row(t *testing.T) {
	slowUnderRace(t)
	const seed = 3
	res, err := experiments.Fig7(experiments.Config{Scale: testScale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, row := range res.Rows {
		if row.Label == "hpbd" {
			want = row.Value
		}
	}
	r, err := qsortRepeat(testScale, seed, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.exact["virt_runtime_s"].Value; got != want || want == 0 {
		t.Errorf("swap_qsort virt_runtime_s = %v, experiments.Fig7 hpbd row = %v", got, want)
	}
	if r.failed != 0 || r.ops == 0 {
		t.Errorf("ops %d, failed %d", r.ops, r.failed)
	}
}

// Two runs on the same inputs must agree on every virt and count metric,
// bit for bit, on each data path; and the eight stage means must add up
// to the mean end-to-end request latency.
func TestSimulatedRepeatsAreExact(t *testing.T) {
	for name, run := range map[string]func() (repeat, error){
		"rand4k": func() (repeat, error) {
			return blkRepeat(1, nil, genRand4K(7, testArea, testOps, testWarm), nil, -1)
		},
		"swapmix": func() (repeat, error) {
			return blkRepeat(2, nil, genSwapmix(7, testArea, testOps, testWarm), nil, -1)
		},
		"swapmix_v2": func() (repeat, error) {
			return blkRepeat(2, dataPathV2(), genSwapmix(7, testArea, testOps, testWarm), nil, -1)
		},
	} {
		a, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameExact(a.exact, b.exact); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		ja, _ := json.Marshal(a.exact)
		jb, _ := json.Marshal(b.exact)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: exact records differ:\n%s\n%s", name, ja, jb)
		}
		if a.failed != 0 || a.ops != testOps {
			t.Errorf("%s: %d ops, %d failed", name, a.ops, a.failed)
		}
		var stages float64
		for n, m := range a.exact {
			if strings.HasPrefix(n, "stage.") {
				stages += m.Value
			}
		}
		// layerMetrics compared the integer sums exactly; here the
		// printed means are cross-checked against the driver's view: a
		// request's end-to-end time is at least its RDMA time.
		if stages <= a.exact["stage.rdma_us"].Value || math.IsNaN(stages) {
			t.Errorf("%s: stage means sum to %v", name, stages)
		}
	}
}

func TestBrokenStagePartitionFails(t *testing.T) {
	var c0, c simCounts
	c.reqs, c.e2e, c.physReqs, c.dispatched, c.qwaitN = 10, 1000, 10, 10, 10
	c.stages[0], c.stages[4] = 400, 600
	if err := c.layerMetrics(c0, metrics{}); err != nil {
		t.Errorf("exact partition rejected: %v", err)
	}
	c.stages[4]--
	if err := c.layerMetrics(c0, metrics{}); err == nil {
		t.Error("a stage sum 1 ns short of req.e2e was accepted")
	}
}

// ramDriver is a correct block device, except that it flips one bit of
// its corruptAt-th read.
type ramDriver struct {
	data             []byte
	reads, corruptAt int
}

func (d *ramDriver) Name() string   { return "ram" }
func (d *ramDriver) Sectors() int64 { return int64(len(d.data)) / blockdev.SectorSize }
func (d *ramDriver) Submit(_ *sim.Proc, r *blockdev.Request) {
	off := r.Sector * blockdev.SectorSize
	if r.Write {
		copy(d.data[off:], r.Data())
	} else {
		buf := append([]byte(nil), d.data[off:off+int64(r.Bytes())]...)
		if d.reads++; d.reads == d.corruptAt {
			buf[len(buf)/2&^(blockdev.SectorSize-1)+9] ^= 0x10
		}
		r.Scatter(buf)
	}
	r.Complete(nil)
}

func TestCorruptedReadBackIsAFailedOp(t *testing.T) {
	for _, corruptAt := range []int{0, 17} {
		env := sim.NewEnv()
		dev := &ramDriver{data: make([]byte, testArea), corruptAt: corruptAt}
		d := newBlkDriver(blockdev.NewQueue(env, netmodel.DefaultHost(), dev), testArea)
		s := genSwapmix(1, testArea, testOps, 0)
		env.Go("driver", func(p *sim.Proc) {
			d.run(p, prefill(testArea), nil, -1)
			d.run(p, s.ops, nil, -1)
		})
		env.Run()
		env.Close()
		want := 0
		if corruptAt > 0 {
			want = 1
		}
		if d.failed != want || dev.reads < 100 {
			t.Errorf("corrupting read %d of %d: %d failed ops, want %d", corruptAt, dev.reads, d.failed, want)
		}
	}
}

func TestPagesVerify(t *testing.T) {
	pg := newPages(1 << 20)
	buf := make([]byte, readBytes)
	pg.fill(buf, 64<<10)
	if err := pg.verify(buf, 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := pg.verify(buf, 96<<10); err == nil {
		t.Error("data verified at the wrong offset")
	}
	stale := append([]byte(nil), buf...)
	pg.fill(buf, 64<<10)
	if err := pg.verify(stale, 64<<10); err == nil {
		t.Error("a stale version verified")
	}
	if err := pg.verify(make([]byte, readBytes), 64<<10); err == nil {
		t.Error("zeroes verified")
	}
}

func TestSwapmixGenerator(t *testing.T) {
	s := genSwapmix(5, testArea, 5000, 100)
	if len(s.ops) != 5100 || len(s.timed()) != 5000 {
		t.Fatalf("%d ops, %d timed", len(s.ops), len(s.timed()))
	}
	var recent []int64
	for i, op := range s.ops {
		off := op.Sector * blockdev.SectorSize
		if off+int64(op.Bytes) > testArea {
			t.Fatalf("op %d beyond the area", i)
		}
		if op.Write {
			if op.Sync || op.Bytes != writeBytes {
				t.Fatalf("op %d: %+v", i, op)
			}
			if recent = append(recent, off); len(recent) > asyncWindow {
				recent = recent[1:]
			}
			continue
		}
		if !op.Sync || op.Bytes != readBytes || off%readBytes != 0 {
			t.Fatalf("op %d: %+v", i, op)
		}
		for _, w := range recent {
			if off >= w && off < w+writeBytes {
				t.Fatalf("op %d reads %d, under a write that may be in flight at %d", i, off, w)
			}
		}
	}
	again := genSwapmix(5, testArea, 5000, 100)
	other := genSwapmix(6, testArea, 5000, 100)
	same, differ := true, false
	for i := range s.ops {
		same = same && s.ops[i] == again.ops[i]
		differ = differ || s.ops[i] != other.ops[i]
	}
	if !same || !differ {
		t.Errorf("same seed repeats: %v; another seed differs: %v", same, differ)
	}
}

// The swapmix generator claims to be the quicksort swap stream. Capture
// the real one and hold the generator to it: the size classes, the
// read:write op ratio and the byte split, each within a tenth.
func TestSwapmixMatchesCapturedSwapTraffic(t *testing.T) {
	slowUnderRace(t)
	const scale = 128
	env := sim.NewEnv()
	node, err := cluster.Build(env, cluster.Config{
		MemBytes: paperMem / scale, Swap: cluster.SwapHPBD, SwapBytes: paperSwap / scale, Servers: 1, LogRequests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := apps.NewQuicksort(node.VM, "qsort", paperQsortInt/scale, rand.New(rand.NewSource(1)))
	env.Go("workload", func(p *sim.Proc) {
		node.Ready.Wait(p)
		if err := w.Run(p); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	env.Close()
	real := traceio.FromLog(node.Queue.Stats().Log)
	synth := &traceio.Trace{Ops: genSwapmix(1, swapmixArea, 20000, 0).ops}

	type shape struct {
		reads, writes         float64
		readBytes, writeBytes int64
		readMode, writeMode   int
	}
	measure := func(tr *traceio.Trace) shape {
		var s shape
		sizes := map[bool]map[int]int{false: {}, true: {}}
		for _, op := range tr.Ops {
			sizes[op.Write][op.Bytes]++
			if op.Write {
				s.writes++
			} else {
				s.reads++
			}
			if op.Sync == op.Write {
				t.Fatalf("op %+v: reads are synchronous, writes are not", op)
			}
		}
		mode := func(m map[int]int) (best int) {
			for size, n := range m {
				if n > m[best] {
					best = size
				}
			}
			return best
		}
		s.readBytes, s.writeBytes = tr.Bytes()
		s.readMode, s.writeMode = mode(sizes[false]), mode(sizes[true])
		return s
	}
	r, s := measure(real), measure(synth)
	if len(real.Ops) < 500 {
		t.Fatalf("captured only %d requests", len(real.Ops))
	}
	if r.readMode != readBytes || r.writeMode != writeBytes || s.readMode != readBytes || s.writeMode != writeBytes {
		t.Errorf("size classes: captured %d/%d, generated %d/%d, want %d/%d", r.readMode, r.writeMode, s.readMode, s.writeMode, readBytes, writeBytes)
	}
	within := func(what string, got, want float64) {
		if math.Abs(got/want-1) > 0.10 {
			t.Errorf("%s: generated %.4g, captured %.4g", what, got, want)
		}
	}
	within("reads per write", s.reads/s.writes, r.reads/r.writes)
	within("read share of bytes", float64(s.readBytes)/float64(s.readBytes+s.writeBytes), float64(r.readBytes)/float64(r.readBytes+r.writeBytes))
}

func TestNetRepeat(t *testing.T) {
	r, err := netRepeat(genSwapmix(2, testArea, testOps, testWarm), nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ops != testOps || r.failed != 0 {
		t.Errorf("%d ops, %d failed", r.ops, r.failed)
	}
	for _, n := range []string{"net_read_p50_us", "netblock.MBps", "netblock.reply_us"} {
		if r.noisy[n] <= 0 {
			t.Errorf("%s = %v", n, r.noisy[n])
		}
	}
}

func TestDumpInputsRoundTrips(t *testing.T) {
	dir := t.TempDir()
	s := genRand4K(9, testArea, 100, 10)
	if err := dumpInputs(dir, "w", s); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "w.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := traceio.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ops) != len(s.ops) || back.Ops[57] != s.ops[57] {
		t.Errorf("loaded %d ops, saved %d", len(back.Ops), len(s.ops))
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"sim", []string{"runtime.chansend", "hpbd/internal/sim.(*Proc).park", "hpbd/internal/hpbd.(*Device).sender", "hpbd/internal/sim.(*Proc).run"}},
		{"hpbd", []string{"runtime.memmove", "hpbd/internal/ramdisk.(*RamDisk).WriteAt", "hpbd/internal/hpbd.(*Server).serveOne", "hpbd/internal/sim.(*Proc).run"}},
		{"sim", []string{"hpbd/internal/sim.(*Chan[go.shape.int]).Recv", "main.driveSim.func2"}},
		{"bench", []string{"main.(*pages).fill", "main.(*blkDriver).run", "hpbd/internal/sim.(*Proc).run"}},
		{"netblock", []string{"syscall.Syscall", "net.(*conn).Read", "hpbd/internal/netblock.(*Client).recvLoop"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestCPUAttributionReadsARealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip(err)
	}
	pg, buf := newPages(1<<20), make([]byte, writeBytes)
	for t0 := hostNow(); hostSince(t0).Milliseconds() < 120; {
		pg.fill(buf, 0)
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuAttribution(prof.Bytes())
	if err != nil {
		t.Skipf("no usable profile on this host: %v", err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if samples == 0 || math.Abs(sum-1) > 1e-9 || shares["bench"] == 0 {
		t.Errorf("%d samples, shares %v sum to %v", samples, shares, sum)
	}
}

func TestSpans(t *testing.T) {
	tr := newTracer(4)
	root := tr.begin("workload", -1)
	rep := tr.begin("repeat", root)
	tr.op("op.read", rep, tr.now(), 100, 220, true)
	tr.op("op.write", rep, tr.now(), 220, 300, true)
	tr.end(rep)
	tr.end(root)
	ops := tr.spans[2].h1 - tr.spans[2].h0 + tr.spans[3].h1 - tr.spans[3].h0
	if got, want := tr.self(rep), tr.spans[rep].h1-tr.spans[rep].h0-ops; got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
	path := filepath.Join(t.TempDir(), "out", "t.trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]int64
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[2].Args["parent"] != int64(rep) || doc.TraceEvents[2].Args["virt_end_ns"] != 220 {
		t.Errorf("events: %+v", doc.TraceEvents)
	}
	var none *tracer
	none.end(none.begin("x", -1)) // the untraced path: no-ops
}

func TestJudge(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	hostM := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: f(q1), Q3: f(q3), N: 5} }
	for _, c := range []struct {
		name     string
		old, new metric
		want     string
	}{
		{"virt_runtime_s", metric{Value: 4.5}, metric{Value: 4.5}, same},
		{"virt_runtime_s", metric{Value: 4.5}, metric{Value: 4.500000001}, regressed},
		{"virt_read_p99_us", metric{Value: 300}, metric{Value: 250}, improved},
		{"stage.queue_us", metric{Value: 6}, metric{Value: 7}, differs},
		{"host_bytes_per_op", hostM(2000, 1990, 2010), hostM(2050, 2040, 2060), unchanged},
		{"host_bytes_per_op", hostM(2000, 1990, 2010), hostM(2300, 2290, 2310), regressed},
		{"host_bytes_per_op", hostM(2000, 1990, 2010), hostM(1700, 1690, 1710), improved},
		{"host_bytes_per_op", hostM(2000, 1800, 2200), hostM(2300, 2290, 2310), unresolved},
		{"host_allocs_per_op", hostM(64, 64, 64), hostM(65, 65, 65), regressed},
		{"host_wall_s", hostM(2, 1.98, 2.02), hostM(3, 2.98, 3.02), info},
		{"setup_s", hostM(0.04, 0.04, 0.041), hostM(0.08, 0.08, 0.081), unchanged},
		{"setup_s", hostM(0.30, 0.29, 0.31), hostM(0.40, 0.39, 0.41), regressed},
		{"sim.sleep_ns", hostM(450, 440, 460), hostM(900, 890, 910), info},
	} {
		if got := judge(lookup(c.name), lookup(c.name).e2e, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %q, want %q", c.name, c.old.Value, c.new.Value, got, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	mk := func(virt float64, failed int) *record {
		wl := workloadRecord{Name: "blk_rand4k", Attempted: 100, Failed: failed, EndToEnd: metrics{}, PerLayer: metrics{}}
		wl.EndToEnd.set("virt_runtime_s", virt)
		wl.PerLayer.set("hpbd.splits", 0)
		return &record{Header: header{Schema: "hpbd-bench/1", Seed: 1}, Workloads: []workloadRecord{wl}}
	}
	var out bytes.Buffer
	if code := compareRecords(&out, mk(12, 0), mk(12, 0)); code != 0 {
		t.Errorf("identical records: exit %d\n%s", code, out.String())
	}
	if code := compareRecords(&out, mk(12, 0), mk(12.5, 0)); code != 1 {
		t.Errorf("slower virtual runtime: exit %d", code)
	}
	if code := compareRecords(&out, mk(12, 0), mk(12, 3)); code != 1 {
		t.Errorf("new failed ops: exit %d", code)
	}
	if code := compareRecords(&out, mk(12, 0), &record{Header: header{Schema: "hpbd-bench/1", Seed: 1}}); code != 1 {
		t.Errorf("missing workload: exit %d", code)
	}
}

// BENCHMARK.json, the metric catalog and the workload table are one
// statement made three times; hold them together.
func TestBenchmarkJSONMatchesTheCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []m `json:"end_to_end"`
		PerLayer   []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), table has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	listed := map[string]bool{}
	check := func(ms []m, endToEnd bool) {
		for _, x := range ms {
			i, ok := catalogIndex[x.Name]
			if !ok {
				t.Errorf("%s is not in the catalog", x.Name)
				continue
			}
			if d := catalog[i]; d.unit != x.Unit || contractEndToEnd(d) != endToEnd || listed[x.Name] {
				t.Errorf("%s: unit %q end-to-end %v, catalog has unit %q end-to-end %v", x.Name, x.Unit, endToEnd, d.unit, contractEndToEnd(d))
			}
			if x.Better != "lower" && x.Better != "higher" {
				t.Errorf("%s: better = %q", x.Name, x.Better)
			}
			listed[x.Name] = true
		}
	}
	check(b.EndToEnd, true)
	check(b.PerLayer, false)
	if len(listed) != len(catalog) || len(b.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json lists %d of the catalog's %d metrics (%d per-layer)", len(listed), len(catalog), len(b.PerLayer))
	}

	// The contract line carries exactly one of the two lists.
	rec := &record{Workloads: []workloadRecord{{EndToEnd: metrics{}, PerLayer: metrics{}}}}
	for trace, want := range map[bool]int{false: len(b.EndToEnd), true: len(b.PerLayer)} {
		line, err := contractLine(rec, trace)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal(line, &out); err != nil || len(out.Metrics) != want {
			t.Errorf("trace %v: %d metrics on the line, want %d (%v)", trace, len(out.Metrics), want, err)
		}
	}
}
