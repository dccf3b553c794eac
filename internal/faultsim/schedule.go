// Package faultsim is a deterministic, schedule-driven fault injector
// for the simulated HPBD stack. A Schedule is an ordered list of faults
// — server crash/hang, QP send errors, reply delay spikes,
// receive-credit starvation, registration-pool exhaustion — each
// pinned to a sim-time instant. The Injector replays the schedule on
// the sim clock and applies each fault through narrow interfaces on
// the fabric, servers, and clients, so a given schedule+seed replays
// byte-identically run-to-run.
//
// A schedule is written as a human-writable text spec, the form CLI
// flags take ("crash@5ms=mem0,delay@2ms+4ms~200us=mem1").
package faultsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"hpbd/internal/sim"
)

// Kind identifies a fault class.
type Kind uint8

const (
	// KindCrash permanently kills a server at At: its QPs close, posted
	// receives flush, and new attaches are refused.
	KindCrash Kind = iota
	// KindHang wedges a server for Dur: requests are accepted but no
	// reply is produced until the hang lifts (the watchdog-visible case).
	KindHang
	// KindSendErr makes the next Count send-side work requests posted by
	// the target HCA complete with an error CQE instead of reaching the
	// wire (a transient QP failure; the client may retry).
	KindSendErr
	// KindDelay adds Extra latency to every send-side work request the
	// target HCA posts during [At, At+Dur) — a reply/response delay spike.
	KindDelay
	// KindStarve makes the target server stop reposting receive buffers
	// for Dur, so client credits drain and senders stall on flow control.
	KindStarve
	// KindPoolExhaust grabs the target client's entire registration pool
	// for Dur, forcing allocation stalls (and hybrid-path fallbacks).
	KindPoolExhaust
	// KindODPInval invalidates every resident on-demand-paging window on
	// the target's HCA (an MMU-notifier storm under memory pressure), so
	// the next access to each ODP region re-faults. Targets that expose
	// no ODP surface skip the fault.
	KindODPInval
	numKinds
)

var kindTokens = [numKinds]string{"crash", "hang", "senderr", "delay", "starve", "poolx", "odpinval"}

func (k Kind) String() string {
	if int(k) < len(kindTokens) {
		return kindTokens[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fault is one scheduled fault event.
type Fault struct {
	// At is the sim-time offset from schedule start when the fault fires.
	At sim.Duration
	// Kind selects the fault class.
	Kind Kind
	// Target names the victim: a server or HCA name for server/fabric
	// faults, a device name for client faults.
	Target string
	// Dur bounds transient faults (hang, delay window, starvation,
	// pool exhaustion). Ignored by crash and senderr.
	Dur sim.Duration
	// Extra is the added per-operation latency for delay faults.
	Extra sim.Duration
	// Count is the number of affected operations for senderr (default 1).
	Count int
}

// Schedule is a fault schedule, sorted by At (ties keep input order).
type Schedule struct {
	Faults []Fault
}

// Empty reports whether the schedule contains no faults.
func (s *Schedule) Empty() bool { return s == nil || len(s.Faults) == 0 }

// sortFaults orders faults by At, keeping the input order of ties so
// the spec author controls same-instant application order.
func sortFaults(fs []Fault) {
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].At < fs[j].At })
}

// ParseSpec parses the comma-separated text form. Each fault is
//
//	kind@at[+dur][~extra][xN]=target
//
// where kind is crash|hang|senderr|delay|starve|poolx, at/dur/extra are
// sim durations ("5ms", "200us"), N is the senderr operation count, and
// target names the victim. Example:
//
//	crash@5ms=mem0,delay@2ms+4ms~200us=mem1,senderr@1msx3=hpbd0
func ParseSpec(spec string) (*Schedule, error) {
	var s Schedule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return nil, err
		}
		s.Faults = append(s.Faults, f)
	}
	sortFaults(s.Faults)
	return &s, nil
}

func parseFault(tok string) (Fault, error) {
	var f Fault
	kindStr, rest, ok := strings.Cut(tok, "@")
	if !ok {
		return f, fmt.Errorf("faultsim: fault %q missing '@at'", tok)
	}
	kind := -1
	for i, t := range kindTokens {
		if t == kindStr {
			kind = i
			break
		}
	}
	if kind < 0 {
		return f, fmt.Errorf("faultsim: unknown fault kind %q in %q", kindStr, tok)
	}
	f.Kind = Kind(kind)
	timing, target, ok := strings.Cut(rest, "=")
	if !ok || target == "" {
		return f, fmt.Errorf("faultsim: fault %q missing '=target'", tok)
	}
	f.Target = target
	// timing is at[+dur][~extra][xN]; split from the right.
	if at, n, ok := cutLast(timing, "x"); ok {
		c, err := strconv.Atoi(n)
		if err != nil || c <= 0 {
			return f, fmt.Errorf("faultsim: bad count %q in %q", n, tok)
		}
		f.Count = c
		timing = at
	}
	if at, ex, ok := cutLast(timing, "~"); ok {
		d, err := sim.ParseDuration(ex)
		if err != nil {
			return f, fmt.Errorf("faultsim: bad extra in %q: %v", tok, err)
		}
		f.Extra = d
		timing = at
	}
	if at, du, ok := cutLast(timing, "+"); ok {
		d, err := sim.ParseDuration(du)
		if err != nil {
			return f, fmt.Errorf("faultsim: bad duration in %q: %v", tok, err)
		}
		f.Dur = d
		timing = at
	}
	at, err := sim.ParseDuration(timing)
	if err != nil {
		return f, fmt.Errorf("faultsim: bad at-time in %q: %v", tok, err)
	}
	f.At = at
	return f, nil
}

// cutLast is strings.Cut on the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// Spec renders the schedule back into the text form ParseSpec accepts.
func (s *Schedule) Spec() string {
	if s.Empty() {
		return ""
	}
	parts := make([]string, 0, len(s.Faults))
	for _, f := range s.Faults {
		var b strings.Builder
		b.WriteString(f.Kind.String())
		b.WriteByte('@')
		b.WriteString(f.At.String())
		if f.Dur > 0 {
			b.WriteByte('+')
			b.WriteString(f.Dur.String())
		}
		if f.Extra > 0 {
			b.WriteByte('~')
			b.WriteString(f.Extra.String())
		}
		if f.Count > 0 {
			fmt.Fprintf(&b, "x%d", f.Count)
		}
		b.WriteByte('=')
		b.WriteString(f.Target)
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ",")
}

// Generate derives a random schedule of n faults over the window
// [0, horizon) from seed, spread across the named targets (servers for
// server/fabric faults, clients for pool faults). The same
// (seed, n, horizon, targets) always yields the same schedule.
func Generate(seed int64, n int, horizon sim.Duration, servers, clients []string) *Schedule {
	rnd := rand.New(rand.NewSource(seed))
	var s Schedule
	for i := 0; i < n; i++ {
		var f Fault
		// Crash is excluded from random generation: a crashed server
		// never recovers, which would end most scenarios early. Chaos
		// runs add crashes explicitly.
		kinds := []Kind{KindHang, KindSendErr, KindDelay, KindStarve}
		if len(clients) > 0 {
			kinds = append(kinds, KindPoolExhaust)
		}
		f.Kind = kinds[rnd.Intn(len(kinds))]
		f.At = sim.Duration(rnd.Int63n(int64(horizon)))
		switch f.Kind {
		case KindPoolExhaust:
			f.Target = clients[rnd.Intn(len(clients))]
			f.Dur = sim.Duration(rnd.Int63n(int64(horizon/8))) + 50*sim.Microsecond
		case KindSendErr:
			f.Target = servers[rnd.Intn(len(servers))]
			f.Count = 1 + rnd.Intn(3)
		case KindDelay:
			f.Target = servers[rnd.Intn(len(servers))]
			f.Dur = sim.Duration(rnd.Int63n(int64(horizon/8))) + 50*sim.Microsecond
			f.Extra = sim.Duration(rnd.Int63n(int64(500*sim.Microsecond))) + 10*sim.Microsecond
		default: // hang, starve
			f.Target = servers[rnd.Intn(len(servers))]
			f.Dur = sim.Duration(rnd.Int63n(int64(horizon/8))) + 50*sim.Microsecond
		}
		s.Faults = append(s.Faults, f)
	}
	sortFaults(s.Faults)
	return &s
}
