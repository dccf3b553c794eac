package health

import (
	"fmt"

	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// Window is the rule engine's view of one evaluation interval: the
// newest sample and the sample Rule.Window steps earlier. Rules read
// metric movement through its accessors and never touch the registry, so
// a rule is a pure function of the ring — replaying the same seed and
// fault schedule replays the same verdicts at the same sim times.
type Window struct {
	Cur, Prev *Sample
}

// CounterDelta returns how much a counter advanced across the window.
func (w Window) CounterDelta(name string) int64 {
	return w.Cur.Counters[name] - w.Prev.Counters[name]
}

// Gauge returns a gauge's level at the window's end.
func (w Window) Gauge(name string) int64 { return w.Cur.Gauges[name] }

// HistDelta returns a histogram's windowed snapshot (observations that
// landed inside the window).
func (w Window) HistDelta(name string) telemetry.HistSnapshot {
	return w.Cur.Hists[name].Sub(w.Prev.Hists[name])
}

// Interval returns the window's sim-time span.
func (w Window) Interval() sim.Duration { return sim.Duration(w.Cur.At - w.Prev.At) }

// Rule is one anomaly detector: a named pure predicate over a Window.
// Check returns a human-readable detail line and whether the rule fired.
type Rule struct {
	Name string
	Help string
	// Window is the evaluation span in samples (default 1: consecutive
	// samples).
	Window int
	// Cooldown suppresses re-arming for this many samples after a hit
	// (default 4), so a condition flapping around its threshold reads as
	// one incident per cooldown span instead of an alert per flap.
	Cooldown int
	Check    func(w Window) (detail string, fired bool)
}

// ruleState tracks one rule's edge trigger and hit count.
type ruleState struct {
	rule     Rule
	fired    int64
	lastFire uint64 // ring total at last fire (0: never)
	active   bool   // condition currently holding (suppresses refires)
	hasFired bool
}

// evalRules runs the catalogue against the newest window. Rules are
// edge-triggered: the alert fires when the condition appears, stays
// silent while it holds (a crashed replica degrades every subsequent
// write — that is one incident, not one per sample), and re-arms once a
// window passes with the condition clear, with Cooldown samples of
// hysteresis against flapping.
func (m *Monitor) evalRules(now sim.Time) {
	cur := m.ring.Last()
	for _, st := range m.rules {
		r := st.rule
		win := r.Window
		if win <= 0 {
			win = 1
		}
		cooldown := r.Cooldown
		if cooldown <= 0 {
			cooldown = 4
		}
		prev := m.ring.FromLast(win)
		if cur == nil || prev == nil || cur == prev {
			continue
		}
		detail, fired := r.Check(Window{Cur: cur, Prev: prev})
		if !fired {
			st.active = false
			continue
		}
		if st.active || (st.hasFired && m.ring.Total()-st.lastFire < uint64(cooldown)) {
			st.active = true
			continue
		}
		st.active = true
		st.hasFired = true
		st.fired++
		st.lastFire = m.ring.Total()
		m.fire(now, "rule", r.Name, detail)
	}
}

// RuleStat is one detector's hit count.
type RuleStat struct {
	Rule  Rule
	Fired int64
}

// RuleStats returns per-rule hit counts in catalogue order.
func (m *Monitor) RuleStats() []RuleStat {
	out := make([]RuleStat, 0, len(m.rules))
	for _, st := range m.rules {
		out = append(out, RuleStat{Rule: st.rule, Fired: st.fired})
	}
	return out
}

// DefaultRules returns the stock anomaly catalogue. Thresholds are tuned
// against the paper-scale workloads: quiet runs stay silent, the chaos
// suite's fault schedules trip their matching detectors at pinned sim
// times.
func DefaultRules() []Rule {
	return []Rule{
		{
			// The sender is serial, so accumulated stall time against the
			// window's wall-clock span measures how long it sat blocked on
			// flow control; quiet workloads never stall at all (the credit
			// window is sized to the server's receive depth), so any
			// sustained share is an incident.
			Name:   "credit-starvation",
			Help:   "the send path is spending most of its time blocked on flow-control credits",
			Window: 4,
			Check: func(w Window) (string, bool) {
				iv := w.Interval()
				if iv <= 0 {
					return "", false
				}
				stall := w.HistDelta("req.stage.credit_stall")
				if stall.N < 2 {
					return "", false
				}
				share := float64(stall.Sum) / float64(iv)
				if share < 0.75 {
					return "", false
				}
				return fmt.Sprintf("%d sends stalled %.1fx the window (%v blocked in %v)",
					stall.N, share, stall.Sum, iv), true
			},
		},
		{
			Name:   "rnr-retry-storm",
			Help:   "recovery path is re-sending requests faster than steady state allows",
			Window: 8,
			Check: func(w Window) (string, bool) {
				d := w.CounterDelta("hpbd.retries")
				if d < 4 {
					return "", false
				}
				return fmt.Sprintf("%d retries in %v (timeouts +%d)",
					d, w.Interval(), w.CounterDelta("hpbd.timeouts")), true
			},
		},
		{
			Name:   "migration-dirty-runaway",
			Help:   "live migration dirty-resend rate outpaces copy convergence",
			Window: 8,
			Check: func(w Window) (string, bool) {
				d := w.CounterDelta("migration.dirty_resent")
				if d < 128 {
					return "", false
				}
				return fmt.Sprintf("%d dirty sectors re-sent in %v", d, w.Interval()), true
			},
		},
		{
			// Warm ODP windows fault zero times; the threshold sits above
			// the burst of first-touch faults a freshly grown MR working
			// set pays, so only invalidation churn (or an unbounded working
			// set) trips it.
			Name:     "odp-fault-thrash",
			Help:     "on-demand-paging faults recur instead of amortizing to zero",
			Window:   4,
			Cooldown: 16,
			Check: func(w Window) (string, bool) {
				d := w.CounterDelta("odp.faults")
				if d < 8 {
					return "", false
				}
				return fmt.Sprintf("%d ODP faults in %v", d, w.Interval()), true
			},
		},
		{
			// A crashed replica degrades every later write, so the window
			// and cooldown are wide: the trickle holds the condition and
			// the incident reports once, not once per write.
			Name:     "mirror-divergence",
			Help:     "mirrored writes are being acknowledged by a single replica",
			Window:   16,
			Cooldown: 64,
			Check: func(w Window) (string, bool) {
				d := w.CounterDelta("mirror.degraded_writes")
				if d <= 0 {
					return "", false
				}
				return fmt.Sprintf("%d degraded writes (failovers +%d)",
					d, w.CounterDelta("mirror.read_failovers")), true
			},
		},
		{
			// One exhaustion episode produces a train of block-wake cycles
			// as frees trickle in; the long cooldown reports the episode
			// once.
			Name:     "pool-exhaustion",
			Help:     "staging-pool allocations are blocking on free extents",
			Window:   4,
			Cooldown: 16,
			Check: func(w Window) (string, bool) {
				d := w.CounterDelta("pool.alloc.waits")
				if d < 4 {
					return "", false
				}
				return fmt.Sprintf("%d blocked allocations (in use %dB, largest free %dB)",
					d, w.Gauge("pool.in_use"), w.Gauge("pool.largest_free")), true
			},
		},
	}
}
