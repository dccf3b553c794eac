package health_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/cluster"
	"hpbd/internal/faultsim"
	"hpbd/internal/health"
	"hpbd/internal/hpbd"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// chaosSchedule is the plain-device incident script: four disjoint
// incidents, each shaped to trip exactly one anomaly detector.
//
//	2ms   hang mem0 for 1ms        -> credit-starvation
//	9ms   4 short RNR bursts       -> rnr-retry-storm
//	12ms  pool exhausted for 1.5ms -> pool-exhaustion
//	15ms  ODP invalidation train   -> odp-fault-thrash
func chaosSchedule() *faultsim.Schedule {
	var faults []faultsim.Fault
	faults = append(faults,
		faultsim.Fault{At: 2 * sim.Millisecond, Kind: faultsim.KindHang, Dur: 1 * sim.Millisecond, Target: "mem0"},
	)
	for k := 0; k < 4; k++ {
		faults = append(faults, faultsim.Fault{
			At:   9*sim.Millisecond + sim.Duration(k)*100*sim.Microsecond,
			Kind: faultsim.KindSendErr, Count: 2, Target: "hpbd0",
		})
	}
	faults = append(faults,
		faultsim.Fault{At: 12 * sim.Millisecond, Kind: faultsim.KindPoolExhaust, Dur: 1500 * sim.Microsecond, Target: "hpbd0"},
	)
	for k := 0; k < 40; k++ {
		faults = append(faults, faultsim.Fault{
			At:   15*sim.Millisecond + sim.Duration(k)*25*sim.Microsecond,
			Kind: faultsim.KindODPInval, Target: "hpbd0"},
		)
	}
	return &faultsim.Schedule{Faults: faults}
}

// runChaos drives the chaos scenario: a two-server plain HPBD device
// under a steady background of small and large writes, with concurrent
// write bursts aimed at each incident window. Health samples every 100us.
// When withHealth is false the same run executes without a monitor (the
// passivity control). The returned buffer holds any flight-recorder
// dumps the SLO tracker triggered.
func runChaos(t *testing.T, withHealth bool) (*cluster.Node, *bytes.Buffer) {
	t.Helper()
	env := sim.NewEnv()
	ccfg := hpbd.DefaultClientConfig()
	ccfg.PoolBytes = 256 << 10
	ccfg.Credits = 8
	ccfg.HybridDataPath = true
	ccfg.HybridThresholdBytes = 32 << 10
	ccfg.ODP = true
	ccfg.MRCacheEntries = 6
	ccfg.MaxRetries = 4
	ccfg.RequestTimeout = 5 * sim.Millisecond
	cfg := cluster.Config{
		MemBytes:  8 << 20,
		Swap:      cluster.SwapHPBD,
		SwapBytes: 8 << 20,
		Servers:   2,
		Faults:    chaosSchedule(),
		Client:    &ccfg,
	}
	if withHealth {
		cfg.Health = &health.Config{SampleInterval: 100 * sim.Microsecond, RingSize: 1024}
	}
	node, err := cluster.Build(env, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dumped := &bytes.Buffer{}
	node.Tel.Lifecycle().Flight().SetDumpWriter(dumped)

	const runFor = 18 * sim.Millisecond
	sectors := node.Queue.Driver().Sectors()
	half := sectors / 2
	submit := func(p *sim.Proc, sector int64, buf []byte) *blockdev.IO {
		io, err := node.Queue.Submit(true, sector, buf)
		if err != nil {
			t.Errorf("submit sector %d: %v", sector, err)
			return nil
		}
		node.Queue.Unplug()
		return io
	}
	// Steady background: six 4KB writers (three per server half) stay
	// under the credit window and far under the pool, so the baseline
	// between incidents is quiet.
	for w := 0; w < 6; w++ {
		w := w
		env.Go(fmt.Sprintf("bg%d", w), func(p *sim.Proc) {
			node.Ready.Wait(p)
			buf := make([]byte, 4096)
			base := int64(0)
			if w >= 3 {
				base = half
			}
			sector := base + int64(w%3)*64
			t0 := p.Now()
			for p.Now().Sub(t0) < runFor {
				io := submit(p, sector, buf)
				if io == nil {
					return
				}
				io.Wait(p)
				sector = base + (sector-base+3*64)%(half/2)
			}
		})
	}
	// Two 128KB writers (one per half) ride the hybrid ODP MR path — the
	// surface the invalidation train attacks.
	for w := 0; w < 2; w++ {
		w := w
		env.Go(fmt.Sprintf("big%d", w), func(p *sim.Proc) {
			node.Ready.Wait(p)
			buf := make([]byte, 128<<10)
			base := int64(w)*half + half/2
			sector := base
			t0 := p.Now()
			for p.Now().Sub(t0) < runFor {
				io := submit(p, sector, buf)
				if io == nil {
					return
				}
				io.Wait(p)
				sector = base + (sector-base+256)%(half/4)
			}
		})
	}
	burst := func(name string, at sim.Duration, n, sz int, sector func(i int) int64) {
		env.Go(name, func(p *sim.Proc) {
			node.Ready.Wait(p)
			p.Sleep(at)
			buf := make([]byte, sz)
			var ios []*blockdev.IO
			for i := 0; i < n; i++ {
				io, err := node.Queue.Submit(true, sector(i), buf)
				if err != nil {
					t.Errorf("%s submit: %v", name, err)
					return
				}
				ios = append(ios, io)
			}
			node.Queue.Unplug()
			for _, io := range ios {
				io.Wait(p)
			}
		})
	}
	// Credit burst: 24 concurrent writes at the hung mem0 overrun its
	// 8-credit window; the stalls resolve when the hang lifts.
	burst("burst-credit", 2050*sim.Microsecond, 24, 4096, func(i int) int64 {
		return 1024 + int64(i)*64%(half/4)
	})
	// Pool burst: the fault holds the whole pool, and the queue's single
	// dispatch process can only ever have one allocation blocked on it. So
	// eight procs submit to the driver directly, the way a layered driver
	// does: each parks in its first 16KB staging while the pool is held,
	// and the 48 stagings turn into block-wake cycles once it is returned.
	drv := node.Queue.Driver()
	for w := 0; w < 8; w++ {
		w := w
		env.Go(fmt.Sprintf("burst-pool%d", w), func(p *sim.Proc) {
			node.Ready.Wait(p)
			p.Sleep(12050 * sim.Microsecond)
			buf := make([]byte, 16<<10)
			var reqs []*blockdev.Request
			for i := w * 6; i < w*6+6; i++ {
				r := blockdev.NewRequest(env, true, 2048+int64(i)*64%(half/4), buf)
				drv.Submit(p, r)
				reqs = append(reqs, r)
			}
			for _, r := range reqs {
				if err := r.Wait(p); err != nil {
					t.Errorf("burst-pool%d: %v", w, err)
				}
			}
		})
	}
	// ODP burst: 16 concurrent 128KB hybrid-path writes across both
	// halves while the inval train keeps dropping their windows.
	burst("burst-odp", 15050*sim.Microsecond, 16, 128<<10, func(i int) int64 {
		return int64(i%2)*half + half/4 + int64(i/2)*512
	})
	env.Run()
	env.Close()
	return node, dumped
}

// firstFire returns the sim time the named rule first fired, or -1.
func firstFire(alerts []health.Alert, kind, name string) sim.Time {
	for _, a := range alerts {
		if a.Kind == kind && a.Name == name {
			return a.At
		}
	}
	return -1
}

// TestChaosRulesFire asserts the acceptance scenario: four distinct
// anomaly rules fire, each pinned inside its incident's window, with a
// quiet baseline before the first fault and an SLO burn (plus flight
// dump) from the hang.
func TestChaosRulesFire(t *testing.T) {
	node, dumped := runChaos(t, true)
	alerts := node.Health.Alerts()

	windows := []struct {
		rule     string
		from, to sim.Duration
	}{
		{"credit-starvation", 2 * sim.Millisecond, 4 * sim.Millisecond},
		{"rnr-retry-storm", 9 * sim.Millisecond, 10 * sim.Millisecond},
		{"pool-exhaustion", 12 * sim.Millisecond, 14 * sim.Millisecond},
		{"odp-fault-thrash", 15 * sim.Millisecond, 16 * sim.Millisecond},
	}
	for _, w := range windows {
		at := firstFire(alerts, "rule", w.rule)
		if at < 0 {
			t.Errorf("rule %s never fired\n%s", w.rule, node.Health.Timeline())
			continue
		}
		if at < sim.Time(w.from) || at > sim.Time(w.to) {
			t.Errorf("rule %s first fired at %v, want within [%v, %v]", w.rule, at, w.from, w.to)
		}
	}
	// The baseline before the first fault must be alert-free.
	for _, a := range alerts {
		if a.At < sim.Time(2*sim.Millisecond) {
			t.Errorf("alert %s/%s fired at %v, before the first fault", a.Kind, a.Name, a.At)
		}
	}
	// The hang pushes req.e2e p99 far over the objective: the SLO burns
	// and the first breach dumps the flight recorder.
	if at := firstFire(alerts, "slo", "req-e2e-p99"); at < 0 || at > sim.Time(4*sim.Millisecond) {
		t.Errorf("req-e2e-p99 burn at %v, want within the hang incident", at)
	}
	if node.Tel.Counter("health.slo_burns").Value() == 0 {
		t.Error("health.slo_burns stayed zero")
	}
	if node.Tel.Lifecycle().Flight().Dumps() == 0 {
		t.Error("SLO breach did not dump the flight recorder")
	}
	if !strings.Contains(dumped.String(), "burn-rate breach") {
		t.Errorf("flight dump does not mention the breach:\n%.300s", dumped.String())
	}
	// Each incident left its signature counter behind.
	for _, c := range []string{"hpbd.credit_stalls", "hpbd.retries", "pool.alloc.waits", "odp.faults"} {
		if node.Tel.Counter(c).Value() == 0 {
			t.Errorf("counter %s stayed zero", c)
		}
	}
	if got := node.Tel.Counter("hpbd.link_failures").Value(); got != 0 {
		t.Errorf("chaos run lost %d links; incidents must all be recoverable", got)
	}
}

// runMirrorCrash is the crash-schedule scenario: a mirrored two-server
// node, steady write load, one side's first-half server crashed at 6ms.
func runMirrorCrash(t *testing.T) *cluster.Node {
	t.Helper()
	sched, err := faultsim.ParseSpec("crash@6ms=mem0")
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	env := sim.NewEnv()
	cfg := cluster.Config{
		MemBytes:  8 << 20,
		Swap:      cluster.SwapHPBD,
		SwapBytes: 8 << 20,
		Servers:   2,
		Mirror:    true,
		Faults:    sched,
		Health:    &health.Config{SampleInterval: 100 * sim.Microsecond, RingSize: 1024},
	}
	node, err := cluster.Build(env, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	half := node.Queue.Driver().Sectors() / 2
	for w := 0; w < 4; w++ {
		w := w
		env.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			node.Ready.Wait(p)
			buf := make([]byte, 4096)
			base := int64(w%2) * half
			sector := base + int64(w/2)*64
			t0 := p.Now()
			for p.Now().Sub(t0) < 12*sim.Millisecond {
				io, err := node.Queue.Submit(true, sector, buf)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				node.Queue.Unplug()
				io.Wait(p)
				sector = base + (sector-base+2*64)%(half/2)
			}
		})
	}
	env.Run()
	env.Close()
	return node
}

// TestChaosMirrorCrashDivergence asserts the crash schedule trips the
// mirror-divergence detector once (edge-triggered: a crashed replica
// degrades every later write, which is one incident, not hundreds).
func TestChaosMirrorCrashDivergence(t *testing.T) {
	node := runMirrorCrash(t)
	alerts := node.Health.Alerts()
	at := firstFire(alerts, "rule", "mirror-divergence")
	if at < 0 {
		t.Fatalf("mirror-divergence never fired\n%s", node.Health.Timeline())
	}
	if at < sim.Time(6*sim.Millisecond) || at > sim.Time(8*sim.Millisecond) {
		t.Errorf("mirror-divergence first fired at %v, want within [6ms, 8ms]", at)
	}
	fires := 0
	for _, a := range alerts {
		if a.Kind == "rule" && a.Name == "mirror-divergence" {
			fires++
		}
	}
	if fires != 1 {
		t.Errorf("mirror-divergence fired %d times, want exactly 1:\n%s", fires, node.Health.Timeline())
	}
	if node.Tel.Counter("mirror.degraded_writes").Value() == 0 {
		t.Error("mirror.degraded_writes stayed zero")
	}
}

// healthArtifacts renders every deterministic health surface of a node
// into one byte string: the sample-ring CSV, the alert timeline, and the
// operator report.
func healthArtifacts(t *testing.T, node *cluster.Node) string {
	t.Helper()
	var b strings.Builder
	if err := node.Health.Ring().WriteCSV(&b); err != nil {
		t.Fatalf("ring csv: %v", err)
	}
	b.WriteString(node.Health.Timeline())
	b.WriteString(node.Health.Report())
	return b.String()
}

// TestDeterministicReplayHealth is the acceptance-criteria replay proof:
// two seeded runs of the chaos scenario — and two of the faultsim crash
// schedule — produce byte-identical sample rings, alert timelines and
// reports.
func TestDeterministicReplayHealth(t *testing.T) {
	nodeA, _ := runChaos(t, true)
	nodeB, _ := runChaos(t, true)
	a, b := healthArtifacts(t, nodeA), healthArtifacts(t, nodeB)
	if a != b {
		t.Errorf("chaos replay diverged:\n%s", firstDiff(a, b))
	}
	crashA := runMirrorCrash(t)
	crashB := runMirrorCrash(t)
	a, b = healthArtifacts(t, crashA), healthArtifacts(t, crashB)
	if a != b {
		t.Errorf("crash-schedule replay diverged:\n%s", firstDiff(a, b))
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run A: %s\n  run B: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestHealthPassive proves the sampler only reads: the same chaos run
// with and without the monitor finishes with identical workload-side
// counters, gauges and histograms (only health.* series may differ).
func TestHealthPassive(t *testing.T) {
	on, _ := runChaos(t, true)
	off, _ := runChaos(t, false)
	if off.Health != nil {
		t.Fatal("control run unexpectedly has a monitor")
	}
	on.Tel.VisitCounters(func(name string, v int64) {
		if strings.HasPrefix(name, "health.") {
			return
		}
		if got := off.Tel.Counter(name).Value(); got != v {
			t.Errorf("counter %s: health-on %d, health-off %d", name, v, got)
		}
	})
	on.Tel.VisitGauges(func(name string, v, peak int64) {
		if got := off.Tel.Gauge(name).Value(); got != v {
			t.Errorf("gauge %s: health-on %d, health-off %d", name, v, got)
		}
	})
	on.Tel.VisitHistograms(func(name string, h *telemetry.Histogram) {
		want := h.Snapshot()
		got := off.Tel.Histogram(name).Snapshot()
		if got.N != want.N || got.Sum != want.Sum {
			t.Errorf("histogram %s: health-on N=%d Sum=%v, health-off N=%d Sum=%v",
				name, want.N, want.Sum, got.N, got.Sum)
		}
	})
}
