package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of one compared metric.
const (
	same       = "same"       // exact metric, identical
	unchanged  = "unchanged"  // host metric, within its bound and resolved
	improved   = "improved"   // better by more than the bound (host) or at all (exact)
	regressed  = "REGRESSED"  // worse by more than the bound (host) or at all (exact end-to-end)
	differs    = "differs"    // exact per-layer metric changed: not judged, but never noise
	unresolved = "unresolved" // a record's own quartile spread exceeds the bound: cannot tell
	info       = ""           // host per-layer metric: shown, not judged
)

func loadRecord(path string) (*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r record
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Header.Schema != "hpbd-bench/1" {
		return nil, fmt.Errorf("%s: schema %q, want hpbd-bench/1", path, r.Header.Schema)
	}
	return &r, nil
}

// judge compares one metric of the new record against the old one.
// gated says the metric is a workload's end-to-end metric, to be held to
// its bound; all of those are better when lower.
func judge(d def, gated bool, old, new metric) string {
	if d.clock != host { // exact: any difference is real
		switch {
		case old.Value == new.Value:
			return same
		case !gated:
			return differs
		case new.Value < old.Value:
			return improved
		}
		return regressed
	}
	if !gated {
		return info
	}
	// The change that counts: the bound's share of the old median, and
	// for set-up time no less than its floor.
	limit := d.bound * old.Value
	if d.name == "setup_s" && limit < setupFloorS {
		limit = setupFloorS
	}
	if old.iqr() > limit || new.iqr() > limit {
		return unresolved
	}
	switch delta := new.Value - old.Value; {
	case delta > limit:
		return regressed
	case delta < -limit:
		return improved
	}
	return unchanged
}

func compareMetrics(w io.Writer, gated bool, old, new metrics) (regressions int) {
	for _, n := range old.names() {
		nm, ok := new[n]
		if !ok {
			fmt.Fprintf(w, "  %-34s missing from the new record\n", n)
			if gated {
				regressions++
			}
			continue
		}
		om := old[n]
		v := judge(lookup(n), gated, om, nm)
		if v == regressed {
			regressions++
		}
		change := ""
		if om.Value != 0 && om.Value != nm.Value {
			change = fmt.Sprintf("%+.2f%%", 100*(nm.Value/om.Value-1))
		}
		fmt.Fprintf(w, "  %-34s %14.6g -> %-14.6g %-7s %9s  %s\n", n, om.Value, nm.Value, om.Unit, change, v)
	}
	for _, n := range new.names() {
		if _, ok := old[n]; !ok {
			fmt.Fprintf(w, "  %-34s new: %.6g %s\n", n, new[n].Value, new[n].Unit)
		}
	}
	return regressions
}

// compareFiles prints the two records side by side, one section per
// workload, and returns the exit code: 1 when an end-to-end metric
// regressed, an op failed that did not before, or a workload went
// missing; 2 when a record cannot be read.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	var recs [2]*record
	for i, path := range []string{oldPath, newPath} {
		r, err := loadRecord(path)
		if err != nil {
			warnf("%v", err)
			return 2
		}
		recs[i] = r
	}
	return compareRecords(w, recs[0], recs[1])
}

func compareRecords(w io.Writer, old, new *record) int {
	if old.Header.Seed != new.Header.Seed {
		fmt.Fprintf(w, "seeds differ (%d, %d): exact metrics are expected to\n", old.Header.Seed, new.Header.Seed)
	}
	regressions := 0
	for _, ow := range old.Workloads {
		fmt.Fprintf(w, "== %s\n", ow.Name)
		nw := new.workload(ow.Name)
		if nw == nil {
			fmt.Fprintln(w, "  missing from the new record")
			regressions++
			continue
		}
		if nw.Failed > ow.Failed {
			fmt.Fprintf(w, "  failed ops %d -> %d of %d  %s\n", ow.Failed, nw.Failed, nw.Attempted, regressed)
			regressions++
		}
		regressions += compareMetrics(w, true, ow.EndToEnd, nw.EndToEnd)
		regressions += compareMetrics(w, false, ow.PerLayer, nw.PerLayer)
	}
	if len(old.Layers) > 0 && len(new.Layers) > 0 {
		fmt.Fprintln(w, "== per-layer micro-drives")
		regressions += compareMetrics(w, false, old.Layers, new.Layers)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}
