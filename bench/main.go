// Command bench is the repository's benchmark: five closed-loop workloads
// over the request path vm → blockdev → hpbd → ib → server (four on the
// simulator, one over real loopback TCP), a micro-drive per layer, and a
// traced run that says where host time goes. It keeps the system's two
// clocks apart by name — virt_* is simulated time and must repeat
// bit-exactly, host_* and net_* are wall-clock of this process — and
// checks every read-back. See README.md in this directory.
//
//	go run ./bench -seed 1 -json > record.json
//	go run ./bench -workload blk_rand4k -trace 1
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"hpbd/internal/experiments"
	"hpbd/internal/hpbd"
)

func warnf(format string, a ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...) }

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	size string
	// inputs generates the workload's inputs from the seed and returns
	// the function that runs one fresh repeat on them, plus the generated
	// request stream when there is one to dump.
	inputs func(seed int64) (run func(tr *tracer, parent int) (repeat, error), s *stream)
}

func blkWorkload(name, why, size string, servers int, client func() *hpbd.ClientConfig, gen func(seed int64) *stream) workload {
	return workload{name, why, size, func(seed int64) (func(*tracer, int) (repeat, error), *stream) {
		s := gen(seed)
		return func(tr *tracer, parent int) (repeat, error) {
			var c *hpbd.ClientConfig
			if client != nil {
				c = client()
			}
			return blkRepeat(servers, c, s, tr, parent)
		}, s
	}}
}

const (
	warmOps = 2000

	qsortScale  = experiments.PaperScale
	fig7Seed    = 1 // hpbd-bench's default, and every recorded figure's
	rand4kArea  = 32 << 20
	rand4kOps   = 100000
	swapmixArea = 64 << 20
	swapmixOps  = 40000
	netOps      = 60000
)

func swapmix(n int) func(int64) *stream {
	return func(seed int64) *stream { return genSwapmix(seed, swapmixArea, n, warmOps) }
}

var workloads = []workload{
	{
		name: "swap_qsort",
		why: "The paper's headline application (fig7 hpbd row): vm faults, read-ahead, kswapd, block merging, both HPBD directions. " +
			"Host time is workload+vm fast path, so a sim/hpbd/ib speed-up must show no change here.",
		size: fmt.Sprintf("quicksort of %d Mi int32 at paper scale 1/%d, the figure's own seed %d whatever -seed says, 1 server; op = block request dispatched",
			paperQsortInt/qsortScale>>20, qsortScale, fig7Seed),
		// The array's contents move the swap volume by ±20 % (633 K to
		// 957 K allocations over seeds 1-8) and no op count normalises
		// that away, so a seeded sort would put several per cent of input
		// variation into every per-op metric the other workloads hold to
		// a hundredth of that. The figure is one sort; this is that sort.
		inputs: func(int64) (func(*tracer, int) (repeat, error), *stream) {
			return func(tr *tracer, parent int) (repeat, error) { return qsortRepeat(qsortScale, fig7Seed, tr, parent) }, nil
		},
	},
	blkWorkload("blk_rand4k",
		"Message-rate-bound: one 4 K request in flight, so host time is events, proc switches and allocations per request "+
			"and virtual latency is the unloaded round trip. Where simulator-kernel and hot-path allocation work must show.",
		fmt.Sprintf("%d x 4 K alternating write/read, QD 1, random pages of %d MB, 1 server", rand4kOps, rand4kArea>>20),
		1, nil, func(seed int64) *stream { return genRand4K(seed, rand4kArea, rand4kOps, warmOps) }),
	blkWorkload("blk_swapmix",
		"Byte- and queue-bound: the measured quicksort swap mix on the default data path. Staging-pool copies, server copy overlap, "+
			"credits, and reads queueing behind 128 K write-back.",
		fmt.Sprintf("%d ops, 128 K async writes (window %d) : 32 K sync reads = %d:%d, %d MB, 2 servers", swapmixOps, asyncWindow, mixWrites, mixReads, swapmixArea>>20),
		2, nil, swapmix(swapmixOps)),
	blkWorkload("blk_swapmix_v2",
		"The identical op stream with HybridDataPath, ODP, MergeWindow=8, AdaptiveCrossover and DoorbellBatch=8 on: "+
			"the only guard on the opt-in send/merge/MR-cache paths.",
		"blk_swapmix's stream, every opt-in data-path feature on",
		2, dataPathV2, swapmix(swapmixOps)),
	{
		name: "net_swapmix",
		why: "The adoptable real-TCP artifact: the same mix against netblock.Serve/Dial. No simulator code runs, so simulator changes " +
			"must not move it and netblock changes move only it. Traffic crosses the loopback interface, not a link.",
		size: fmt.Sprintf("%d ops of blk_swapmix's mix over 127.0.0.1, 1 connection, %d credits, WriteAsync window %d", netOps, netCredits, asyncWindow),
		inputs: func(seed int64) (func(*tracer, int) (repeat, error), *stream) {
			s := swapmix(netOps)(seed)
			return func(tr *tracer, parent int) (repeat, error) { return netRepeat(s, tr, parent) }, s
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options are the knobs of one invocation.
type options struct {
	seed    int64
	repeats int // fixed number of untraced repeats; 0: until seconds
	seconds int // budget of timed wall-clock per workload
	trace   bool
	outDir  string
}

// Repeat limits when the budget is a time: never fewer than three repeats
// (a median needs them), and no more than a record can use.
const (
	minRepeats = 3
	maxRepeats = 25
)

// runWorkload generates the workload's inputs once and runs fresh repeats
// on them: opt.repeats of them, or as many as opt.seconds of timed
// wall-clock allow. Virt and count metrics must be identical in every
// repeat. With opt.trace one more repeat runs under the span recorder and
// the CPU profiler; it contributes to no end-to-end number.
func runWorkload(w *workload, opt options) (workloadRecord, error) {
	rec := workloadRecord{Name: w.name, Why: w.why, Size: w.size, EndToEnd: metrics{}, PerLayer: metrics{}}
	run, _ := w.inputs(opt.seed)
	budget := float64(opt.seconds)
	if opt.trace {
		budget /= 2 // the traced repeat and the micro-drives take the rest
	}
	var reps []repeat
	var spent float64
	enough := func() bool {
		if opt.repeats > 0 {
			return len(reps) >= opt.repeats
		}
		return len(reps) >= maxRepeats || len(reps) >= minRepeats && spent >= budget
	}
	for !enough() {
		r, err := run(nil, -1)
		if err != nil {
			return rec, fmt.Errorf("%s repeat %d: %w", w.name, len(reps)+1, err)
		}
		if len(reps) > 0 {
			if err := sameExact(reps[0].exact, r.exact); err != nil {
				return rec, fmt.Errorf("%s is nondeterministic: repeat %d: %w", w.name, len(reps)+1, err)
			}
			if r.ops != reps[0].ops || r.bytes != reps[0].bytes {
				return rec, fmt.Errorf("%s is nondeterministic: repeat %d ran %d ops / %d bytes, repeat 1 ran %d / %d",
					w.name, len(reps)+1, r.ops, r.bytes, reps[0].ops, reps[0].bytes)
			}
		}
		reps = append(reps, r)
		spent += r.wall.Seconds()
	}
	rec.fill(reps)
	if opt.trace {
		if err := tracedRepeat(w, run, opt, reps[0], &rec); err != nil {
			return rec, fmt.Errorf("%s traced repeat: %w", w.name, err)
		}
	}
	return rec, nil
}

// sameExact reports the first metric on which two repeats differ.
func sameExact(a, b metrics) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d exact metrics against %d", len(b), len(a))
	}
	for _, n := range a.names() {
		if got, ok := b[n]; !ok || got.Value != a[n].Value {
			return fmt.Errorf("%s = %v, repeat 1 had %v", n, got.Value, a[n].Value)
		}
	}
	return nil
}

// fill aggregates the repeats into the record: exact metrics as they are,
// host metrics as the median of the repeats with quartiles beside it.
func (rec *workloadRecord) fill(reps []repeat) {
	rec.Repeats, rec.Ops, rec.Bytes = len(reps), reps[0].ops, reps[0].bytes
	samples := map[string][]float64{}
	for _, r := range reps {
		rec.Attempted += r.ops
		rec.Failed += r.failed
		samples["setup_s"] = append(samples["setup_s"], r.setup.Seconds())
		samples["host_wall_s"] = append(samples["host_wall_s"], r.wall.Seconds())
		samples["host_allocs_per_op"] = append(samples["host_allocs_per_op"], float64(r.heap.mallocs)/float64(r.ops))
		samples["host_bytes_per_op"] = append(samples["host_bytes_per_op"], float64(r.heap.bytes)/float64(r.ops))
		for n, v := range r.noisy {
			samples[n] = append(samples[n], v)
		}
	}
	for n, vs := range samples {
		rec.section(n).setSamples(n, vs)
	}
	for n, mt := range reps[0].exact {
		rec.section(n)[n] = mt
	}
}

// section returns the map of the record a metric belongs in.
func (rec *workloadRecord) section(name string) metrics {
	if lookup(name).e2e {
		return rec.EndToEnd
	}
	return rec.PerLayer
}

func newHeader(opt options) header {
	h := header{
		Schema: "hpbd-bench/1", Go: runtime.Version(), Commit: "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: opt.seed, Repeats: opt.repeats, Seconds: opt.seconds,
		Note: "closed loop, one driver proc or goroutine, one connection, at most 8 writes in flight; " +
			"virt/count metrics are simulated and exact, host metrics are medians of fresh repeats; " +
			"net_swapmix traffic crossed the loopback interface, not a link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// contractLine is the last line of standard output when one workload is
// run: the object the repository's BENCHMARK.json contract asks for. It
// carries the end-to-end metrics that exist for every workload on an
// untraced run, and every other metric on a traced run. There the
// contract wants every name on every run, so a count or simulated time
// whose layer did not run in this workload reads 0 (the -json record
// leaves such metrics out), and the real-network figures come from the
// netblock micro-drive unless the workload is net_swapmix itself.
func contractLine(rec *record, trace bool) ([]byte, error) {
	wl := rec.Workloads[0]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wl.Failed == 0, wl.Attempted, wl.Failed, map[string]value{}}
	for _, d := range catalog {
		if contractEndToEnd(d) == trace {
			continue
		}
		v := value{Unit: d.unit}
		// The workload's own reading wins over a micro-drive's.
		for _, m := range []metrics{rec.Layers, wl.PerLayer, wl.EndToEnd} {
			if mt, ok := m[d.name]; ok {
				v.Value = mt.Value
			}
		}
		out.Metrics[d.name] = v
	}
	return json.Marshal(out)
}

// contractEndToEnd reports whether BENCHMARK.json lists d as end-to-end:
// the gated host metrics, which every workload has. The exact virt_*
// metrics exist on some workloads only, so the contract carries them
// with the per-layer metrics; -compare still holds them exact.
func contractEndToEnd(d def) bool { return d.e2e && d.clock == host }

func main() {
	var opt options
	var names, dumpDir string
	var trace int
	var asJSON, compare bool
	flag.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&opt.seconds, "seconds", 0, "timed wall-clock to spend per workload, at least 3 repeats (0: use -repeats)")
	flag.IntVar(&opt.repeats, "repeats", 0, "fresh repeats per workload (default 5 when -seconds is 0)")
	flag.IntVar(&trace, "trace", 0, "1: add the traced repeat, the CPU attribution and the per-layer micro-drives")
	flag.BoolVar(&asJSON, "json", false, "print the record as JSON instead of a table")
	flag.BoolVar(&compare, "compare", false, "compare two -json records: bench -compare OLD.json NEW.json")
	flag.StringVar(&dumpDir, "dump-inputs", "", "save the generated request streams here as traceio JSON and exit")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory the traced run writes its span files to")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			warnf("-compare takes two record files")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		warnf("unexpected argument %q", flag.Arg(0))
		os.Exit(2)
	}
	if opt.seconds == 0 && opt.repeats == 0 {
		opt.repeats = 5
	}
	opt.trace = trace != 0

	selected := workloads
	if names != "" {
		selected = nil
		for _, n := range strings.Split(names, ",") {
			w := findWorkload(n)
			if w == nil {
				warnf("unknown workload %q", n)
				os.Exit(2)
			}
			selected = append(selected, *w)
		}
	}

	if dumpDir != "" {
		for _, w := range selected {
			if _, s := w.inputs(opt.seed); s != nil {
				if err := dumpInputs(dumpDir, w.name, s); err != nil {
					warnf("%v", err)
					os.Exit(1)
				}
			}
		}
		return
	}

	rec := record{Header: newHeader(opt)}
	for i := range selected {
		wr, err := runWorkload(&selected[i], opt)
		if err != nil {
			warnf("%v", err)
			os.Exit(1)
		}
		rec.Workloads = append(rec.Workloads, wr)
	}
	// The micro-drives involve no workload; they ride with the traced run
	// and with any run of the whole benchmark.
	if opt.trace || names == "" {
		var tr *tracer
		if opt.trace {
			tr = newTracer(64)
		}
		layers, err := microDrives(tr)
		if err != nil {
			warnf("micro-drives: %v", err)
			os.Exit(1)
		}
		rec.Layers = layers
		if tr != nil {
			if err := tr.write(filepath.Join(opt.outDir, "micro.trace.json")); err != nil {
				warnf("%v", err)
				os.Exit(1)
			}
		}
	}

	if asJSON {
		if err := rec.writeJSON(os.Stdout); err != nil {
			warnf("%v", err)
			os.Exit(1)
		}
	} else {
		rec.writeText(os.Stdout)
		if len(rec.Workloads) == 1 {
			line, err := contractLine(&rec, opt.trace)
			if err != nil {
				warnf("%v", err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", line)
		}
	}
	// Failed ops are data, reported above; only a run that could not
	// finish exits non-zero.
	for _, wl := range rec.Workloads {
		if wl.Failed > 0 {
			warnf("%s: %d of %d ops failed", wl.Name, wl.Failed, wl.Attempted)
		}
	}
}
