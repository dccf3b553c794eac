package health

import (
	"bytes"
	"strings"
	"testing"

	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(3)
	if r.Last() != nil || r.At(0) != nil || r.FromLast(1) != nil {
		t.Fatal("empty ring must return nil samples")
	}
	for i := 1; i <= 5; i++ {
		r.Push(Sample{At: sim.Time(i)})
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3/5", r.Len(), r.Total())
	}
	// Retained: samples at t=3,4,5 oldest first.
	for i, want := range []sim.Time{3, 4, 5} {
		if got := r.At(i).At; got != want {
			t.Fatalf("At(%d).At = %d, want %d", i, got, want)
		}
	}
	if r.Last().At != 5 {
		t.Fatalf("Last().At = %d", r.Last().At)
	}
	if r.FromLast(1).At != 4 || r.FromLast(10).At != 3 {
		t.Fatalf("FromLast wrong: %d %d", r.FromLast(1).At, r.FromLast(10).At)
	}
}

// TestSamplerParksAndDrains: the sampler wakes on Kick, samples while
// metrics move, parks after IdleTicks quiet samples — and therefore
// does not keep env.Run from returning.
func TestSamplerParksAndDrains(t *testing.T) {
	env := sim.NewEnv()
	reg := telemetry.New(env)
	m := NewMonitor(env, reg, Config{SampleInterval: 10 * sim.Microsecond})
	m.Start()

	reqs := reg.Counter("test.reqs")
	env.Go("workload", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			reqs.Inc()
			m.Kick()
			p.Sleep(10 * sim.Microsecond)
		}
	})
	env.Run() // must return: sampler parks once the workload stops
	if got := reg.Counter("health.samples").Value(); got < 3 {
		t.Fatalf("expected >= 3 samples, got %d", got)
	}
	if !m.parked {
		t.Fatal("sampler did not park after idle ticks")
	}
	if m.ring.Len() == 0 {
		t.Fatal("ring empty after run")
	}
	if last := m.ring.Last(); last.Counters["test.reqs"] != 5 {
		t.Fatalf("last sample test.reqs = %d, want 5", last.Counters["test.reqs"])
	}
}

// TestSLOBurnFires: sustained over-threshold latency trips the latency
// objective's burn-rate alert exactly once per incident, and the first
// breach dumps the flight recorder.
func TestSLOBurnFires(t *testing.T) {
	env := sim.NewEnv()
	reg := telemetry.New(env)
	var dumped bytes.Buffer
	reg.EnableLifecycle(8)
	reg.Lifecycle().Flight().SetDumpWriter(&dumped)
	m := NewMonitor(env, reg, Config{
		SampleInterval: 10 * sim.Microsecond,
		SLOs: []SLO{{
			Name: "lat", Metric: "req.e2e", Quantile: 0.99,
			Threshold: 100 * sim.Microsecond,
		}},
		Rules: []Rule{}, // rules off: isolate the SLO path
	})
	m.Start()
	h := reg.Histogram("req.e2e")
	env.Go("workload", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			h.Observe(500 * sim.Microsecond) // every request blows the budget
			m.Kick()
			p.Sleep(10 * sim.Microsecond)
		}
	})
	env.Run()

	var burns int
	for _, a := range m.Alerts() {
		if a.Kind != "slo" || a.Name != "lat" {
			t.Fatalf("unexpected alert %+v", a)
		}
		burns++
	}
	if burns != 1 {
		t.Fatalf("expected exactly 1 burn alert for one sustained incident, got %d: %v", burns, m.Alerts())
	}
	if reg.Counter("health.slo_burns").Value() != 1 {
		t.Fatalf("health.slo_burns = %d", reg.Counter("health.slo_burns").Value())
	}
	if reg.Lifecycle().Flight().Dumps() != 1 || !strings.Contains(dumped.String(), "slo lat burn-rate breach") {
		t.Fatalf("expected one flight-recorder dump on first breach, got %d: %q",
			reg.Lifecycle().Flight().Dumps(), dumped.String())
	}
	stats := m.SLOStats()
	if len(stats) != 1 || stats[0].Compliance >= 1 || stats[0].WorstBurn < 1 {
		t.Fatalf("compliance accounting wrong: %+v", stats)
	}
}

// TestSLOQuietWorkload: an in-budget workload fires nothing and reports
// full compliance.
func TestSLOQuietWorkload(t *testing.T) {
	env := sim.NewEnv()
	reg := telemetry.New(env)
	m := NewMonitor(env, reg, Config{SampleInterval: 10 * sim.Microsecond})
	m.Start()
	h := reg.Histogram("req.e2e")
	env.Go("workload", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			h.Observe(50 * sim.Microsecond)
			m.Kick()
			p.Sleep(10 * sim.Microsecond)
		}
	})
	env.Run()
	if len(m.Alerts()) != 0 {
		t.Fatalf("quiet workload fired alerts: %v", m.Alerts())
	}
	for _, st := range m.SLOStats() {
		if st.Compliance != 1 {
			t.Fatalf("quiet workload not fully compliant: %+v", st)
		}
	}
}

// TestRuleFiresWithCooldown: a sustained anomaly reads as one incident
// per cooldown span, not one alert per sample.
func TestRuleFiresWithCooldown(t *testing.T) {
	env := sim.NewEnv()
	reg := telemetry.New(env)
	m := NewMonitor(env, reg, Config{
		SampleInterval: 10 * sim.Microsecond,
		SLOs:           []SLO{},
		Rules: []Rule{{
			Name: "retry-storm", Cooldown: 100, // suppress refires for the whole run
			Check: func(w Window) (string, bool) {
				return "storm", w.CounterDelta("hpbd.retries") >= 3
			},
		}},
	})
	m.Start()
	retries := reg.Counter("hpbd.retries")
	env.Go("workload", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			retries.Add(5) // 5 per interval: over threshold every sample
			m.Kick()
			p.Sleep(10 * sim.Microsecond)
		}
	})
	env.Run()
	if len(m.Alerts()) != 1 {
		t.Fatalf("expected 1 alert under cooldown, got %d: %v", len(m.Alerts()), m.Alerts())
	}
	a := m.Alerts()[0]
	if a.Kind != "rule" || a.Name != "retry-storm" || a.Detail != "storm" {
		t.Fatalf("unexpected alert %+v", a)
	}
	if got := m.RuleStats()[0].Fired; got != 1 {
		t.Fatalf("RuleStats fired = %d", got)
	}
}

// TestDefaultRulesQuiet: the stock catalogue stays silent on a healthy
// steady-state workload.
func TestDefaultRulesQuiet(t *testing.T) {
	env := sim.NewEnv()
	reg := telemetry.New(env)
	m := NewMonitor(env, reg, Config{SampleInterval: 10 * sim.Microsecond})
	m.Start()
	h := reg.Histogram("req.e2e")
	stall := reg.Histogram("req.stage.credit_stall")
	env.Go("workload", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			h.Observe(200 * sim.Microsecond)
			stall.Observe(5 * sim.Microsecond) // small, healthy share
			reg.Counter("hpbd.retries").Add(0)
			m.Kick()
			p.Sleep(10 * sim.Microsecond)
		}
	})
	env.Run()
	for _, a := range m.Alerts() {
		if a.Kind == "rule" {
			t.Fatalf("healthy workload tripped rule %s: %s", a.Name, a.Detail)
		}
	}
}

// TestWriteCSVDeterministic: two identical seeded runs export
// byte-identical time series, and the CSV carries windowed histogram
// quantiles.
func TestWriteCSVDeterministic(t *testing.T) {
	run := func() (*Monitor, string, string) {
		env := sim.NewEnv()
		reg := telemetry.New(env)
		m := NewMonitor(env, reg, Config{SampleInterval: 10 * sim.Microsecond})
		m.Start()
		h := reg.Histogram("req.e2e")
		env.Go("workload", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				reg.Counter("mem0.requests").Inc()
				h.Observe(sim.Duration(100+10*i) * sim.Microsecond)
				m.Kick()
				p.Sleep(10 * sim.Microsecond)
			}
		})
		env.Run()
		var buf bytes.Buffer
		if err := m.Ring().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return m, buf.String(), m.Timeline()
	}
	m1, csv1, tl1 := run()
	_, csv2, tl2 := run()
	if csv1 != csv2 {
		t.Fatalf("sample CSV not deterministic:\n%s\nvs\n%s", csv1, csv2)
	}
	if tl1 != tl2 {
		t.Fatalf("timeline not deterministic:\n%s\nvs\n%s", tl1, tl2)
	}
	if !strings.HasPrefix(csv1, "t_us,epoch,kind,name,value,delta,p50_us,p99_us\n") {
		t.Fatalf("bad CSV header:\n%s", csv1)
	}
	if !strings.Contains(csv1, ",counter,mem0.requests,") || !strings.Contains(csv1, ",hist,req.e2e,") {
		t.Fatalf("CSV missing expected rows:\n%s", csv1)
	}
	if m1.Report() == "" || !strings.Contains(m1.Report(), "slo compliance") {
		t.Fatal("Report missing sections")
	}
}

// TestFleetRollupEpochs: per-server deltas split across placement
// epochs, and the top table orders by request volume.
func TestFleetRollupEpochs(t *testing.T) {
	env := sim.NewEnv()
	reg := telemetry.New(env)
	m := NewMonitor(env, reg, Config{SampleInterval: 10 * sim.Microsecond})
	m.Start()
	epoch := reg.Gauge("placement.epoch")
	m0 := reg.Counter("mem0.requests")
	m1 := reg.Counter("mem1.requests")
	reg.Counter("mem0.bytes_stored") // register so rollup sees the family
	env.Go("workload", func(p *sim.Proc) {
		epoch.Set(1)
		for i := 0; i < 6; i++ {
			m0.Add(10)
			m1.Add(2)
			m.Kick()
			p.Sleep(10 * sim.Microsecond)
		}
		epoch.Set(2)
		for i := 0; i < 6; i++ {
			m1.Add(10)
			m.Kick()
			p.Sleep(10 * sim.Microsecond)
		}
	})
	env.Run()
	rows := m.FleetRollup()
	byKey := map[string]int64{}
	for _, r := range rows {
		byKey[r.Name+"@"+string(rune('0'+r.Epoch))] = r.Requests
	}
	if byKey["mem0@1"] == 0 || byKey["mem1@2"] == 0 {
		t.Fatalf("rollup missing epoch rows: %+v", rows)
	}
	if byKey["mem0@2"] >= byKey["mem1@2"] {
		t.Fatalf("epoch 2 load should live on mem1: %+v", rows)
	}
	top := m.TopTable()
	if !strings.Contains(top, "mem0") || !strings.Contains(top, "mem1") {
		t.Fatalf("top table missing servers:\n%s", top)
	}
}

// TestNilMonitorKick: Kick on a nil monitor (health off) is a no-op.
func TestNilMonitorKick(t *testing.T) {
	var m *Monitor
	m.Kick() // must not panic
	if m.SLOSummary() != "" {
		t.Fatal("nil SLOSummary not empty")
	}
}
