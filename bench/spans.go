package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"hpbd/internal/sim"
)

// The traced run records spans from the harness's own files only: around
// set-up, around each repeat, around every op the harness issues and
// around every micro-drive. Spans stay in memory until the run ends.

// span is one interval on both clocks. Virtual times are set only where a
// simulation was running.
type span struct {
	name     string
	parent   int // index of the causing span, -1 at the root
	h0, h1   time.Duration
	v0, v1   sim.Time
	haveVirt bool
}

// tracer collects spans. A nil tracer records nothing, which is how every
// untraced repeat runs.
type tracer struct {
	epoch time.Time
	spans []span
	// prof receives the CPU profile of the timed section.
	prof    bytes.Buffer
	profErr error
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: hostNow(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, h0: hostSince(t.epoch)})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].h1 = hostSince(t.epoch)
	}
}

// op records one finished harness-issued request: host start as begin
// would have read it, the virtual interval (zero-valued off the
// simulator), and now as the host end.
func (t *tracer) op(name string, parent int, h0 time.Duration, v0, v1 sim.Time, haveVirt bool) {
	t.spans = append(t.spans, span{name, parent, h0, hostSince(t.epoch), v0, v1, haveVirt})
}

// startProfile and stopProfile bracket the timed section of a traced
// repeat with the CPU profiler.
func (t *tracer) startProfile() {
	if t != nil {
		t.profErr = pprof.StartCPUProfile(&t.prof)
	}
}

func (t *tracer) stopProfile() {
	if t != nil && t.profErr == nil {
		pprof.StopCPUProfile()
	}
}

// now is the host clock on the tracer's axis.
func (t *tracer) now() time.Duration { return hostSince(t.epoch) }

// self returns the span's own host time: its duration less the part its
// direct children cover (children of one parent never overlap here).
func (t *tracer) self(id int) time.Duration {
	d := t.spans[id].h1 - t.spans[id].h0
	for i := id + 1; i < len(t.spans); i++ {
		if t.spans[i].parent == id {
			d -= t.spans[i].h1 - t.spans[i].h0
		}
	}
	return d
}

// write saves the spans as Chrome trace_event JSON (chrome://tracing,
// Perfetto): one complete event per span on the host-time axis, with the
// span's id, its parent's id and its virtual interval as arguments.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		// tid 0 carries the harness's own spans, tid 1 the ops it issued.
		tid := 0
		if s.haveVirt || s.parent >= 0 && t.spans[s.parent].name == "repeat" {
			tid = 1
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d`,
			s.name, tid, float64(s.h0)/1e3, float64(s.h1-s.h0)/1e3, i, s.parent)
		if s.haveVirt {
			fmt.Fprintf(w, `,"virt_start_ns":%d,"virt_end_ns":%d`, int64(s.v0), int64(s.v1))
		}
		w.WriteString("}}")
	}
	fmt.Fprintln(w, "\n]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
