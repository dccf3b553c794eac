// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel runs simulated processes (Proc) cooperatively: each is a
// runtime coroutine (iter.Pull), built and parked when it is spawned, and
// exactly one executes at any instant. There is no scheduler goroutine.
// Whoever gives up the CPU — a process that blocks (Sleep, Wait, channel
// operations) or exits, or the caller of Env.Run — runs the dispatch loop
// itself: it pops events, runs After callbacks inline, skips cancelled
// wakes and stops at the first live wake. A process whose own wake is next
// simply carries on. Otherwise it yields that successor to the Run caller,
// the only resumer, which switches into it: two coroutine switches through
// the Run caller, or none. Control stays with the Run caller when the
// queue drains, RunUntil's limit is reached or Close is unwinding.
//
// Callbacks therefore run on whichever process happens to be dispatching.
// They must not block and must not depend on goroutine identity.
//
// Events live by value in a 4-ary min-heap ordered by (at, seq), where seq
// is the global scheduling sequence number. The order is total, so what
// runs next is a function of the queue alone, never of which process
// pops it: the switch is invisible to virtual time, and a simulation is
// exactly reproducible run-to-run. Events scheduled for the same virtual
// time fire in scheduling order. In steady state an event, a wait and a
// channel operation allocate nothing.
//
// All other substrates in this repository — the InfiniBand fabric model, the
// TCP/IP stack model, the virtual memory system, block devices, and the HPBD
// client/server — are built as processes on this kernel.
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute virtual time in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d < 2*Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < 2*Millisecond:
		return fmt.Sprintf("%.2fus", d.Micros())
	case d < 10*Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

func (t Time) String() string { return Duration(t).String() }

// ParseDuration parses a decimal number with a unit suffix ("ns", "us",
// "ms", "s") into a Duration, e.g. "500us", "1.5ms", "2s". It is the
// inverse of the formats String produces and exists so fault schedules
// and CLI flags can express sim-time without importing package time.
func ParseDuration(s string) (Duration, error) {
	var unit Duration
	var num string
	switch {
	case len(s) > 2 && s[len(s)-2:] == "ns":
		unit, num = Nanosecond, s[:len(s)-2]
	case len(s) > 2 && s[len(s)-2:] == "us":
		unit, num = Microsecond, s[:len(s)-2]
	case len(s) > 2 && s[len(s)-2:] == "ms":
		unit, num = Millisecond, s[:len(s)-2]
	case len(s) > 1 && s[len(s)-1:] == "s":
		unit, num = Second, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("sim: duration %q needs a ns/us/ms/s suffix", s)
	}
	// Parse "<int>[.<frac>]" by hand: the integer part scales by the whole
	// unit, the fractional digits by successively smaller powers of ten.
	// Avoids float rounding so ParseDuration(d.String()) round-trips.
	intPart, fracPart := num, ""
	for i := 0; i < len(num); i++ {
		if num[i] == '.' {
			intPart, fracPart = num[:i], num[i+1:]
			break
		}
	}
	if intPart == "" && fracPart == "" {
		return 0, fmt.Errorf("sim: empty duration %q", s)
	}
	var d Duration
	for i := 0; i < len(intPart); i++ {
		c := intPart[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("sim: bad duration %q", s)
		}
		// Bound d before the step: a wrapped product can land positive.
		if d > (math.MaxInt64-Duration(c-'0')*unit)/10 {
			return 0, fmt.Errorf("sim: duration %q overflows", s)
		}
		d = d*10 + Duration(c-'0')*unit
	}
	scale := unit
	for i := 0; i < len(fracPart); i++ {
		c := fracPart[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("sim: bad duration %q", s)
		}
		scale /= 10
		if d > math.MaxInt64-Duration(c-'0')*scale {
			return 0, fmt.Errorf("sim: duration %q overflows", s)
		}
		d += Duration(c-'0') * scale
	}
	return d, nil
}
