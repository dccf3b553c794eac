package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"hpbd/internal/telemetry"
)

// clock names which of the system's two clocks a metric is read from.
// The split is the point of this benchmark: virt and count metrics are
// products of the deterministic simulation and must repeat bit-exactly;
// host metrics are wall-clock or allocator readings of this process and
// are compared as medians against a bound.
type clock string

const (
	virt  clock = "virt"  // simulated time, exact
	count clock = "count" // event counts and ratios of them, exact
	host  clock = "host"  // wall-clock, allocations: noisy
)

// Units carry the clock too: sim_s and sim_us are simulated seconds and
// microseconds; s, us and ns are the host's.

// def is one entry of the metric catalog.
type def struct {
	name  string
	unit  string
	clock clock
	// bound, on an end-to-end metric, is the share of the baseline median
	// by which it may worsen before -compare calls a regression; exact
	// clocks ignore it. Zero on a host metric marks it per-layer.
	bound float64
	e2e   bool
}

func e2e(name, unit string, c clock, bound float64) def {
	return def{name, unit, c, bound, true}
}
func layer(name, unit string, c clock) def { return def{name: name, unit: unit, clock: c} }

// setupFloorS: setup_s regresses only when it worsens by more than its
// bound and by more than this many seconds.
const setupFloorS = 0.050

// stageMetric names the per-layer metric of one lifecycle stage.
func stageMetric(s telemetry.Stage) string {
	return "stage." + strings.ReplaceAll(s.String(), "-", "_") + "_us"
}

var cpuShares = [...]string{"sim", "ib", "hpbd", "blockdev", "vm", "workload", "telemetry", "wire",
	"netblock", "netmodel", "runtime_sched", "runtime_gc", "bench"}

// catalog lists every metric the benchmark can print, in print order.
// bench/README.md is its prose twin; BENCHMARK.json lists the same names
// (a test holds the three together).
var catalog = func() []def {
	c := []def{
		e2e("setup_s", "s", host, 0.25),
		e2e("host_allocs_per_op", "allocs", host, 0.01),
		e2e("host_bytes_per_op", "B", host, 0.05),
		e2e("virt_runtime_s", "sim_s", virt, 0),
		e2e("virt_read_p50_us", "sim_us", virt, 0),
		e2e("virt_read_p99_us", "sim_us", virt, 0),
		e2e("virt_swapin_mean_us", "sim_us", virt, 0),

		// Wall-clock of a whole workload is listed with the layers, not
		// above: on the 2-vCPU sandbox the same commit's medians moved
		// 5-27 % between sets of runs, so no bound of a tenth can hold.
		// It is printed and compared, never gated.
		layer("host_wall_s", "s", host),
		layer("net_read_p50_us", "us", host),

		layer("sim.sleep_ns", "ns", host),
		layer("sim.pingpong_ns", "ns", host),
		layer("sim.after_ns", "ns", host),
		layer("sim.allocs_per_event", "allocs", host),
		layer("ib.rdma4k_ns", "ns", host),
		layer("ib.rdma128k_ns", "ns", host),
		layer("ib.send_ns", "ns", host),
		layer("ib.allocs_per_wr", "allocs", host),
		layer("ib.virt_rdma4k_us", "sim_us", virt),
		layer("ib.virt_rdma128k_us", "sim_us", virt),
		layer("wire.marshal_ns", "ns", host),
		layer("hpbd.rt4k_ns", "ns", host),
		layer("hpbd.rt128k_ns", "ns", host),
		layer("hpbd.rt4k_allocs", "allocs", host),
		layer("hpbd.rt128k_bytes", "B", host),
		layer("hpbd.virt_read4k_us", "sim_us", virt),
		layer("hpbd.virt_write4k_us", "sim_us", virt),
		layer("hpbd.virt_read128k_us", "sim_us", virt),
		layer("hpbd.virt_write128k_us", "sim_us", virt),
		layer("pool.alloc_free_ns", "ns", host),
		layer("blockdev.submit_ns", "ns", host),
		layer("vm.touch_hit_ns", "ns", host),
		layer("vm.fault_ns", "ns", host),
		layer("workload.access_ns", "ns", host),
		layer("telemetry.observe_ns", "ns", host),
		layer("telemetry.lifecycle_record_ns", "ns", host),
		layer("health.tax_ns_per_req", "ns", host),
		layer("health.tax_allocs_per_req", "allocs", host),
		layer("netblock.rtt4k_p50_us", "us", host),
		layer("netblock.rtt4k_p99_us", "us", host),
		layer("experiments.fig5_hpbd_over_local", "ratio", virt),
		layer("experiments.fig5_disk_over_hpbd", "ratio", virt),

		layer("hpbd.doorbells_per_req", "ratio", count),
		layer("hpbd.recv_wakeups_per_req", "ratio", count),
		layer("hpbd.credit_stalls", "count", count),
		layer("hpbd.splits", "count", count),
		layer("pool.alloc_waits", "count", count),
		layer("ib.qp_cache_miss", "count", count),
		layer("hpbd.merge_run", "ratio", count),
		layer("hpbd.mr_hit_frac", "frac", count),
	}
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		c = append(c, layer(stageMetric(s), "sim_us", virt))
	}
	c = append(c,
		layer("blockdev.ios_per_req", "ratio", count),
		layer("blockdev.queue_wait_us", "sim_us", virt),
		layer("vm.swapins", "count", count),
		layer("vm.swapouts", "count", count),
		layer("vm.alloc_stalls", "count", count),
		layer("vm.readahead_useful_frac", "frac", count),
		layer("vm.swapin_p50_us", "sim_us", virt),
		layer("vm.swapin_p99_us", "sim_us", virt),
		layer("netblock.MBps", "MB/s", host),
		layer("netblock.read_p99_us", "us", host),
		layer("netblock.write_p50_us", "us", host),
		layer("netblock.credit_us", "us", host),
		layer("netblock.send_us", "us", host),
		layer("netblock.reply_us", "us", host),
		layer("netblock.drain_us", "us", host),
	)
	for _, s := range cpuShares {
		c = append(c, layer("cpu."+s+"_share", "frac", host))
	}
	return append(c, layer("bench.trace_overhead_frac", "frac", host))
}()

var catalogIndex = func() map[string]int {
	m := make(map[string]int, len(catalog))
	for i, d := range catalog {
		m[d.name] = i
	}
	return m
}()

// lookup returns the catalog entry for name; a metric that is not in the
// catalog is a bug in the harness.
func lookup(name string) def {
	i, ok := catalogIndex[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	return catalog[i]
}

// metric is one reported number. Host metrics taken over several repeats
// carry their quartiles and sample count beside the median.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Clock clock    `json:"clock"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
}

// metrics maps catalog names to values. A metric that does not exist for
// a workload is absent, never zero.
type metrics map[string]metric

// set stores an exact (virt or count) value or a single host reading.
func (m metrics) set(name string, v float64) {
	d := lookup(name)
	m[name] = metric{Value: v, Unit: d.unit, Clock: d.clock}
}

// setSamples stores the median of host samples with its quartiles.
func (m metrics) setSamples(name string, vs []float64) {
	d := lookup(name)
	q1, med, q3 := quartiles(vs)
	m[name] = metric{Value: med, Unit: d.unit, Clock: d.clock, Q1: &q1, Q3: &q3, N: len(vs)}
}

// names returns the metric names present, in catalog order.
func (m metrics) names() []string {
	ns := make([]string, 0, len(m))
	for n := range m {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return catalogIndex[ns[i]] < catalogIndex[ns[j]] })
	return ns
}

// iqr is a host metric's interquartile range over its repeats (0 when it
// has a single sample).
func (mt metric) iqr() float64 {
	if mt.Q1 == nil || mt.Q3 == nil {
		return 0
	}
	return *mt.Q3 - *mt.Q1
}

// header says what was run and on what.
type header struct {
	Schema     string `json:"schema"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Repeats    int    `json:"repeats,omitempty"`
	Seconds    int    `json:"seconds,omitempty"`
	Note       string `json:"note"`
}

// workloadRecord is one workload's section of the record.
type workloadRecord struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Size      string  `json:"size"`
	Ops       int     `json:"ops"`   // per repeat
	Bytes     int64   `json:"bytes"` // payload per repeat
	Repeats   int     `json:"repeats"`
	Attempted int     `json:"attempted"` // over all repeats
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer"`
	Trace     *traced `json:"trace,omitempty"`
}

// traced describes the traced repeat of a workload. Self time is a span
// less its children: the repeat's is the harness's own time between ops.
type traced struct {
	File        string  `json:"file"`
	Spans       int     `json:"spans"`
	CPUSamples  int64   `json:"cpu_samples"`
	SetupS      float64 `json:"setup_s"`
	RepeatS     float64 `json:"repeat_s"`
	RepeatSelfS float64 `json:"repeat_self_s"`
}

// record is everything one invocation measured.
type record struct {
	Header    header           `json:"header"`
	Workloads []workloadRecord `json:"workloads"`
	Layers    metrics          `json:"layers,omitempty"` // micro-drives: no workload involved
}

func (r *record) workload(name string) *workloadRecord {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (r *record) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// paperValues are printed beside the accuracy metrics so every simulated
// speed-up has the model's error next to it.
var paperValues = map[string]float64{
	"experiments.fig5_hpbd_over_local": 1.45,
	"experiments.fig5_disk_over_hpbd":  2.2,
}

func printMetrics(w io.Writer, m metrics) {
	for _, n := range m.names() {
		mt := m[n]
		fmt.Fprintf(w, "  %-34s %16.6g %-7s %-5s", n, mt.Value, mt.Unit, mt.Clock)
		if mt.Q1 != nil {
			fmt.Fprintf(w, "  q1 %.6g  q3 %.6g  n %d", *mt.Q1, *mt.Q3, mt.N)
		}
		if pv, ok := paperValues[n]; ok {
			fmt.Fprintf(w, "  paper %.4g (model error %+.1f%%)", pv, 100*(mt.Value/pv-1))
		}
		fmt.Fprintln(w)
	}
}

// writeText prints the record as the table a person reads.
func (r *record) writeText(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "hpbd bench  %s  commit %s  GOMAXPROCS %d  nproc %d  seed %d\n", h.Go, h.Commit, h.GOMAXPROCS, h.NumCPU, h.Seed)
	fmt.Fprintf(w, "%s\n", h.Note)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n== %s: %s\n", wl.Name, wl.Size)
		fmt.Fprintf(w, "   %d ops and %d payload bytes per repeat, %d repeats, %d attempted, %d failed\n",
			wl.Ops, wl.Bytes, wl.Repeats, wl.Attempted, wl.Failed)
		fmt.Fprintln(w, " end to end")
		printMetrics(w, wl.EndToEnd)
		fmt.Fprintln(w, " per layer")
		printMetrics(w, wl.PerLayer)
		if t := wl.Trace; t != nil {
			fmt.Fprintf(w, " traced repeat: %d spans in %s, %d CPU samples; set-up %.4g s, repeat %.4g s of which %.4g s self (outside its op spans)\n",
				t.Spans, t.File, t.CPUSamples, t.SetupS, t.RepeatS, t.RepeatSelfS)
		}
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "\n== per-layer micro-drives\n")
		printMetrics(w, r.Layers)
	}
}
