package experiments

import (
	"strings"
	"testing"
)

// smallCfg runs experiments at 1/256 scale so the whole suite is fast in
// unit tests; ratio assertions are loose at this scale. Nothing checks the
// default-scale ratios against the paper's yet: EXPERIMENTS.md records
// them from `hpbd-bench` runs.
var smallCfg = Config{Scale: 256, Seed: 1}

func TestFig1OrderingAndShape(t *testing.T) {
	res := Fig1()
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	vals := map[string]float64{}
	for _, r := range res.Rows {
		vals[r.Label] = r.Value
	}
	for _, n := range []string{"4", "4096", "131072"} {
		mc, rd, ip, ge := vals["memcpy/"+n], vals["ib-rdma/"+n], vals["ipoib/"+n], vals["gige/"+n]
		if !(mc < rd && rd < ip && ip < ge) {
			t.Errorf("n=%s: ordering broken: %g %g %g %g", n, mc, rd, ip, ge)
		}
	}
}

func TestFig3RegistrationDominates(t *testing.T) {
	res := Fig3()
	vals := map[string]float64{}
	for _, r := range res.Rows {
		vals[r.Label] = r.Value
	}
	for _, n := range []string{"4096", "65536"} {
		if vals["register/"+n] <= vals["memcpy/"+n] {
			t.Errorf("n=%s: registration (%g) should exceed memcpy (%g)",
				n, vals["register/"+n], vals["memcpy/"+n])
		}
	}
}

func TestFig5ShapeAtSmallScale(t *testing.T) {
	res, err := Fig5(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := res.Ratio("local-memory", "local-memory")
	_ = local
	for _, pair := range [][2]string{
		{"hpbd", "local-memory"},
		{"nbd-ipoib", "hpbd"},
		{"nbd-gige", "nbd-ipoib"},
		{"disk", "nbd-gige"},
	} {
		r, err := res.Ratio(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if r < 1.0 {
			t.Errorf("%s should be slower than %s (ratio %.2f)", pair[0], pair[1], r)
		}
	}
	// The headline: HPBD within ~2x of local memory, disk far behind it.
	if r, _ := res.Ratio("hpbd", "local-memory"); r > 2.2 {
		t.Errorf("hpbd/local = %.2f, want < 2.2", r)
	}
	if r, _ := res.Ratio("disk", "hpbd"); r < 1.5 {
		t.Errorf("disk/hpbd = %.2f, want > 1.5", r)
	}
}

func TestFig6RequestSizes(t *testing.T) {
	res, err := Fig6(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	var avg float64
	for _, r := range res.Rows {
		if r.Label == "average" {
			avg = r.Value
		}
	}
	// Paper: testswap requests cluster near 120 KB. At any scale the
	// merged swap-out requests must average at least ~64 KB.
	if avg < 64 {
		t.Errorf("average request size = %.1f KB, want >= 64", avg)
	}
}

func TestFig7ShapeAtSmallScale(t *testing.T) {
	res, err := Fig7(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := res.Ratio("hpbd", "local-memory"); r < 1.0 || r > 2.5 {
		t.Errorf("hpbd/local = %.2f, want within (1, 2.5)", r)
	}
	if r, _ := res.Ratio("disk", "hpbd"); r < 1.5 {
		t.Errorf("disk/hpbd = %.2f, want > 1.5", r)
	}
}

func TestFig10ServersSweepRuns(t *testing.T) {
	res, err := Fig10(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// 16 servers must not be dramatically better than 1 (the paper shows
	// flat-to-slightly-worse).
	r, _ := res.Ratio("16-servers", "1-servers")
	if r < 0.8 {
		t.Errorf("16-servers/1-server = %.2f; expected no big speedup", r)
	}
}

func TestAblationRegistrationLoses(t *testing.T) {
	res, err := AblationRegistration(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.Ratio("register-fly", "pool-copy")
	if err != nil {
		t.Fatal(err)
	}
	if r <= 1.0 {
		t.Errorf("register-on-the-fly (%.2fx) should be slower than pool copy", r)
	}
}

func TestSweepCreditsShape(t *testing.T) {
	res, err := SweepCredits(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := res.Ratio("credits-1", "credits-16")
	if one < 1.0 {
		t.Errorf("credits-1/credits-16 = %.2f; one credit should not be faster", one)
	}
}

func TestAblationHybridWinsAtLargeSizes(t *testing.T) {
	res, err := AblationHybrid(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.Ratio("hybrid/128K", "copy/128K")
	if err != nil {
		t.Fatal(err)
	}
	if r >= 1.0 {
		t.Errorf("hybrid/copy at 128K = %.3f; hybrid should beat copy-into-pool above the crossover", r)
	}
	// Below the threshold the hybrid device takes the pool path, so the
	// small sizes must not regress.
	small, err := res.Ratio("hybrid/4K", "copy/4K")
	if err != nil {
		t.Fatal(err)
	}
	if small > 1.01 {
		t.Errorf("hybrid/copy at 4K = %.3f; small requests should be unaffected", small)
	}
}

func TestAblationDoorbellReducesHostOverhead(t *testing.T) {
	res, err := AblationDoorbell(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.Ratio("batch-8", "batch-1")
	if err != nil {
		t.Fatal(err)
	}
	if r >= 1.0 {
		t.Errorf("batched/unbatched host overhead = %.3f; chaining should cut doorbell cost", r)
	}
}

func TestAblationODPBeatsPinnedCycle(t *testing.T) {
	res, err := AblationODP(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []string{"32K", "128K"} {
		r, err := res.Ratio("odp/"+size, "pinned/"+size)
		if err != nil {
			t.Fatal(err)
		}
		if r >= 1.0 {
			t.Errorf("odp/pinned at %s = %.3f; on-demand paging should beat the pin-down on a cold cycle", size, r)
		}
	}
}

func TestAblationMergeCutsWireOps(t *testing.T) {
	res, err := AblationMerge(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.Ratio("merge-8", "merge-off")
	if err != nil {
		t.Fatal(err)
	}
	if r >= 1.0 {
		t.Errorf("merge-8/merge-off = %.3f; merging a paced backlog should cut per-write latency", r)
	}
}

func TestAblationCrossoverAdaptiveWins(t *testing.T) {
	res, err := AblationCrossover(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.Ratio("adaptive", "static")
	if err != nil {
		t.Fatal(err)
	}
	if r >= 1.0 {
		t.Errorf("adaptive/static = %.3f; the controller should beat the static threshold on a 64K stream", r)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1",
		"ablation-registration", "ablation-receiver", "ablation-striping", "ablation-poolsize",
		"ablation-hybrid", "ablation-doorbell",
		"ablation-odp", "ablation-merge", "ablation-crossover",
		"sweep-bandwidth", "sweep-credits", "sweep-readahead"}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
	names := Names()
	if names[0] != "fig1" {
		t.Errorf("Names()[0] = %s, want fig1", names[0])
	}
}

func TestFormat(t *testing.T) {
	res := &Result{ID: "x", Title: "T", Unit: "s",
		Rows: []Row{{Label: "a", Value: 1.5}, {Label: "bb", Value: 2, Stat: "note"}}}
	out := Format(res)
	for _, want := range []string{"== x: T", "a", "bb", "1.500 s", "[note]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}
