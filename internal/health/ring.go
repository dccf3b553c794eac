package health

import (
	"fmt"
	"io"
	"strings"

	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// Sample is one scrape of the whole registry at a virtual instant:
// cumulative counter values, gauge levels and histogram bucket snapshots.
// Deltas and windowed quantiles are derived by subtracting earlier
// samples, so the ring never loses information to pre-aggregation.
type Sample struct {
	At    sim.Time
	Epoch int64 // placement directory epoch at sample time (0: static fleet)

	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]telemetry.HistSnapshot
}

// sameTotals reports whether no metric moved between prev and s — the
// sampler's idle signal. A metric appearing or disappearing counts as
// movement. The engine's own health.* counters are excluded: sampling
// increments health.samples, so counting it as movement would keep the
// sampler awake (and the event queue alive) forever.
func (s *Sample) sameTotals(prev *Sample) bool {
	if len(s.Counters) != len(prev.Counters) || len(s.Gauges) != len(prev.Gauges) ||
		len(s.Hists) != len(prev.Hists) {
		return false
	}
	for k, v := range s.Counters {
		if strings.HasPrefix(k, "health.") {
			continue
		}
		if pv, ok := prev.Counters[k]; !ok || pv != v {
			return false
		}
	}
	for k, v := range s.Gauges {
		if pv, ok := prev.Gauges[k]; !ok || pv != v {
			return false
		}
	}
	for k, v := range s.Hists {
		pv, ok := prev.Hists[k]
		if !ok || pv.N != v.N || pv.Sum != v.Sum {
			return false
		}
	}
	return true
}

// Ring is a fixed-size ring of samples, oldest overwritten first.
type Ring struct {
	buf   []Sample
	next  int
	total uint64
}

// NewRing returns an empty ring holding up to n samples.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1
	}
	return &Ring{buf: make([]Sample, n)}
}

// Push appends a sample, overwriting the oldest once full.
func (r *Ring) Push(s Sample) {
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
}

// Len returns how many samples the ring currently retains.
func (r *Ring) Len() int {
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Total returns how many samples were ever pushed.
func (r *Ring) Total() uint64 { return r.total }

// At returns the i-th retained sample, oldest first (nil out of range).
func (r *Ring) At(i int) *Sample {
	n := r.Len()
	if i < 0 || i >= n {
		return nil
	}
	start := 0
	if r.total > uint64(len(r.buf)) {
		start = r.next
	}
	return &r.buf[(start+i)%len(r.buf)]
}

// Last returns the most recent sample (nil when empty).
func (r *Ring) Last() *Sample { return r.At(r.Len() - 1) }

// FromLast returns the sample k steps before the most recent one,
// clamped to the oldest retained sample (nil on an empty ring). It is
// the window-start lookup for burn rates and rule windows.
func (r *Ring) FromLast(k int) *Sample {
	n := r.Len()
	if n == 0 {
		return nil
	}
	i := n - 1 - k
	if i < 0 {
		i = 0
	}
	return r.At(i)
}

// WriteCSV exports the retained samples as a deterministic time series:
// one row per metric per sample, oldest sample first, metrics in sorted
// name order within a sample. Counters and histogram counts carry the
// delta against the previous retained sample; histograms additionally
// carry the windowed (single-interval) p50/p99 in microseconds. The
// header names the columns; every run with the same seed and schedule
// produces identical bytes.
func (r *Ring) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_us,epoch,kind,name,value,delta,p50_us,p99_us"); err != nil {
		return err
	}
	for i := 0; i < r.Len(); i++ {
		s := r.At(i)
		prev := r.At(i - 1)
		t := float64(s.At) / 1e3
		for _, name := range sortedNames(s.Counters) {
			v := s.Counters[name]
			d := v
			if prev != nil {
				d = v - prev.Counters[name]
			}
			if _, err := fmt.Fprintf(w, "%.3f,%d,counter,%s,%d,%d,,\n", t, s.Epoch, name, v, d); err != nil {
				return err
			}
		}
		for _, name := range sortedNames(s.Gauges) {
			v := s.Gauges[name]
			d := v
			if prev != nil {
				d = v - prev.Gauges[name]
			}
			if _, err := fmt.Fprintf(w, "%.3f,%d,gauge,%s,%d,%d,,\n", t, s.Epoch, name, v, d); err != nil {
				return err
			}
		}
		for _, name := range sortedNames(s.Hists) {
			h := s.Hists[name]
			win := h
			if prev != nil {
				win = h.Sub(prev.Hists[name])
			}
			if _, err := fmt.Fprintf(w, "%.3f,%d,hist,%s,%d,%d,%.3f,%.3f\n",
				t, s.Epoch, name, h.N, win.N,
				float64(win.Quantile(0.50))/1e3, float64(win.Quantile(0.99))/1e3); err != nil {
				return err
			}
		}
	}
	return nil
}
