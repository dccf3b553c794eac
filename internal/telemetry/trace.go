package telemetry

import (
	"encoding/json"
	"io"
	"strconv"

	"hpbd/internal/sim"
)

// Tracer records structured events — spans with a component, a name and
// optional attributes, plus instant markers — timestamped in virtual time.
// Export is Chrome trace_event JSON (the format chrome://tracing and
// Perfetto load directly): each distinct component becomes one named
// track, so the client driver, the pool, every server worker and every
// HCA render as parallel timelines.
type Tracer struct {
	now      func() sim.Time
	events   []traceEvent
	nextSpan uint64
}

func newTracer(now func() sim.Time) *Tracer { return &Tracer{now: now} }

type phase byte

const (
	phaseComplete  phase = 'X'
	phaseInstant   phase = 'i'
	phaseFlowStart phase = 's'
	phaseFlowStep  phase = 't'
	phaseFlowEnd   phase = 'f'
)

// flowCat is the category flow events share; Chrome/Perfetto bind flow
// arrows by (category, name, id), so all phases of one flow use it.
const flowCat = "flow"

// traceEvent is the internal record; timestamps stay in sim time until
// export. id carries the flow id for flow phases and is 0 otherwise.
type traceEvent struct {
	comp  string
	name  string
	ph    phase
	start sim.Time
	dur   sim.Duration
	id    uint64
	args  map[string]any
}

// Span is an open interval started by Begin or BeginChild. The zero Span
// (and any Span from a nil Tracer) is inert: End is a no-op. Spans opened
// with BeginChild carry a span id and a parent link, exported as "span" /
// "parent" args so causal chains survive into the trace viewer.
type Span struct {
	t      *Tracer
	comp   string
	name   string
	start  sim.Time
	id     uint64
	parent uint64
}

// Begin opens a span on the component's track at the current virtual time.
func (t *Tracer) Begin(comp, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, comp: comp, name: name, start: t.now()}
}

// BeginChild opens a span with a fresh span id, causally linked to the
// given parent span id (0 for a root). The link is exported in the span's
// args; use Span.ID to chain further children.
func (t *Tracer) BeginChild(comp, name string, parent uint64) Span {
	if t == nil {
		return Span{}
	}
	t.nextSpan++
	return Span{t: t, comp: comp, name: name, start: t.now(), id: t.nextSpan, parent: parent}
}

// ID returns the span's causal id (0 for plain Begin spans and inert spans).
func (s Span) ID() uint64 { return s.id }

// End closes the span at the current virtual time.
func (s Span) End() { s.EndArgs(nil) }

// EndBytes closes the span with a "bytes" attribute. Unlike EndArgs it
// builds the attribute map only when a tracer is attached, so hot paths
// pay nothing for it with tracing off.
func (s Span) EndBytes(n int) {
	if s.t != nil {
		s.EndArgs(map[string]any{"bytes": n})
	}
}

// EndArgs closes the span, attaching attributes shown in the trace viewer.
// Spans from BeginChild also attach their "span" id and "parent" link.
func (s Span) EndArgs(args map[string]any) {
	if s.t == nil {
		return
	}
	if s.id != 0 {
		if args == nil {
			args = make(map[string]any, 2)
		}
		args["span"] = s.id
		if s.parent != 0 {
			args["parent"] = s.parent
		}
	}
	s.t.Complete(s.comp, s.name, s.start, s.t.now(), args)
}

// Complete records a span whose endpoints the caller measured itself —
// the shape the fabric model needs, where an operation is posted at one
// virtual instant and completes in an After callback at another.
func (t *Tracer) Complete(comp, name string, start, end sim.Time, args map[string]any) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.events = append(t.events, traceEvent{
		comp: comp, name: name, ph: phaseComplete,
		start: start, dur: end.Sub(start), args: args,
	})
}

// Instant records a point event on the component's track.
func (t *Tracer) Instant(comp, name string) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{comp: comp, name: name, ph: phaseInstant, start: t.now()})
}

// InstantArgs records a point event carrying key/value arguments (the
// fault injector and recovery path annotate their events this way).
func (t *Tracer) InstantArgs(comp, name string, args map[string]any) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{comp: comp, name: name, ph: phaseInstant, start: t.now(), args: args})
}

// FlowBegin starts a causal flow arrow on the component's track. All
// events of one flow share the name and id (the viewer binds arrows on
// category+name+id); the HPBD stack uses the block-layer request id.
func (t *Tracer) FlowBegin(comp, name string, id uint64) {
	t.flowEvent(comp, name, phaseFlowStart, id)
}

// FlowStep continues a flow through an intermediate component.
func (t *Tracer) FlowStep(comp, name string, id uint64) {
	t.flowEvent(comp, name, phaseFlowStep, id)
}

// FlowEnd terminates a flow on the component's track.
func (t *Tracer) FlowEnd(comp, name string, id uint64) {
	t.flowEvent(comp, name, phaseFlowEnd, id)
}

func (t *Tracer) flowEvent(comp, name string, ph phase, id uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{comp: comp, name: name, ph: ph, start: t.now(), id: id})
}

// Len returns the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded events in record order as (component, name,
// start, duration) tuples for tests; instants have zero duration.
func (t *Tracer) Events() []EventInfo {
	if t == nil {
		return nil
	}
	out := make([]EventInfo, len(t.events))
	for i, e := range t.events {
		out[i] = EventInfo{Comp: e.comp, Name: e.name, Start: e.start, Dur: e.dur, Instant: e.ph == phaseInstant, Flow: e.id, Phase: byte(e.ph)}
	}
	return out
}

// EventInfo is the test-visible view of one recorded event.
type EventInfo struct {
	Comp    string
	Name    string
	Start   sim.Time
	Dur     sim.Duration
	Instant bool
	Flow    uint64
	Phase   byte
}

// jsonEvent is one trace_event object on the wire. Chrome's ts/dur are
// microseconds; the simulation's nanosecond clock divides down losslessly
// into the float64 mantissa for any plausible run length.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type jsonTrace struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// WriteJSON exports the trace as Chrome trace_event JSON. Components are
// assigned thread IDs in first-appearance order and named with metadata
// events, so the export is deterministic for a deterministic simulation.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte(`{"traceEvents":[],"displayTimeUnit":"ms"}` + "\n"))
		return err
	}
	const pid = 1
	tids := make(map[string]int)
	var out jsonTrace
	out.DisplayTimeUnit = "ms"
	for _, e := range t.events {
		tid, ok := tids[e.comp]
		if !ok {
			tid = len(tids) + 1
			tids[e.comp] = tid
			out.TraceEvents = append(out.TraceEvents, jsonEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": e.comp},
			})
		}
		je := jsonEvent{
			Name: e.name,
			Cat:  e.comp,
			Ph:   string(e.ph),
			Ts:   float64(e.start) / 1e3,
			Pid:  pid,
			Tid:  tid,
			Args: e.args,
		}
		switch e.ph {
		case phaseComplete:
			dur := float64(e.dur) / 1e3
			je.Dur = &dur
		case phaseInstant:
			je.S = "t"
		case phaseFlowStart, phaseFlowStep, phaseFlowEnd:
			je.Cat = flowCat
			je.ID = strconv.FormatUint(e.id, 10)
			if e.ph == phaseFlowEnd {
				// Bind the arrow head to the enclosing slice at this
				// timestamp rather than the next one.
				je.BP = "e"
			}
		}
		out.TraceEvents = append(out.TraceEvents, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
