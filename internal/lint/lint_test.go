package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpbd/internal/lint"
	"hpbd/internal/lint/analysis"
	"hpbd/internal/lint/analysistest"
	"hpbd/internal/lint/load"
)

// TestFixtures exercises each analyzer against its testdata package: every
// fixture contains both violating lines (with `// want` expectations) and
// clean lines that must stay silent, plus //hpbd:allow suppressions.
func TestFixtures(t *testing.T) {
	cases := []struct {
		a       *analysis.Analyzer
		fixture string
	}{
		{lint.Walltime, "walltime"},
		{lint.Walltime, "faultsimtime"},
		{lint.Globalrand, "globalrand"},
		{lint.Mapiter, "mapiter"},
		{lint.Simblock, "simblock"},
		{lint.Telemetrynil, "telemetrynil"},
		{lint.Handleonce, "handleonce"},
		{lint.Lockorder, "lockorder"},
		{lint.Hotalloc, "hotalloc"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			analysistest.Run(t, tc.a, tc.fixture)
		})
	}
}

// TestTreeIsClean runs the full suite over the whole module exactly as CI
// does: the determinism contract must hold tree-wide, so the suite lands
// green and stays green.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the whole module")
	}
	root := moduleRoot(t)
	env, err := load.List(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := env.Targets()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	findings, err := lint.Run(pkgs, lint.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestMalformedDirectives verifies that a typo'd //hpbd:allow fails loudly
// instead of silently not suppressing.
func TestMalformedDirectives(t *testing.T) {
	root := moduleRoot(t)
	env, err := load.List(root, "./internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := env.CheckDir("hpbd/lintfixture/directive",
		filepath.Join(root, "internal", "lint", "testdata", "src", "directive"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run([]*load.Package{pkg}, lint.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, f := range findings {
		if f.Analyzer == "directive" {
			msgs = append(msgs, f.Message)
		}
	}
	want := []string{
		`unknown analyzer "waltime" in //hpbd:allow directive`,
		"missing reason: use //hpbd:allow <analyzer> -- <reason>",
		"directive names no analyzer",
	}
	for _, w := range want {
		found := false
		for _, m := range msgs {
			if m == w {
				found = true
			}
		}
		if !found {
			t.Errorf("expected a %q finding, got %v", w, msgs)
		}
	}
}

// checkScratch type-checks src as a throwaway fixture package and runs
// one analyzer over it.
func checkScratch(t *testing.T, a *analysis.Analyzer, src string) []lint.Finding {
	t.Helper()
	root := moduleRoot(t)
	env, err := load.List(root, "./internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := env.CheckDir("hpbd/lintfixture/scratch", dir)
	if err != nil {
		t.Fatalf("scratch fixture: %v\n%s", err, src)
	}
	findings, err := lint.RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// dropLine removes the (single) source line containing marker —
// the seeded-mutation knife.
func dropLine(t *testing.T, src, marker string) string {
	t.Helper()
	lines := strings.Split(src, "\n")
	var out []string
	dropped := 0
	for _, l := range lines {
		if strings.Contains(l, marker) {
			dropped++
			continue
		}
		out = append(out, l)
	}
	if dropped != 1 {
		t.Fatalf("dropLine(%q): dropped %d lines, want 1", marker, dropped)
	}
	return strings.Join(out, "\n")
}

const handleScratch = `package scratch

type req struct{ id uint64 }

func (r *req) Complete() {}

type dev struct{ pending map[uint64]*req }

func (d *dev) track(h uint64, r *req) {
	d.pending[h] = r
}

func (d *dev) requeue(h, nh uint64) {
	r, ok := d.pending[h]
	if !ok {
		return
	}
	delete(d.pending, h)
	_ = r
	d.pending[nh] = r // resettle
}
`

// TestSeededMutations pins that the protocol analyzers catch the bug
// class they exist for: hand-deleting the re-insertion after a
// tracked-map delete must produce a finding — and the unmutated code
// must not.
func TestSeededMutations(t *testing.T) {
	if fs := checkScratch(t, lint.Handleonce, handleScratch); len(fs) != 0 {
		t.Errorf("unmutated handle scratch: unexpected findings %v", fs)
	}
	mutated := dropLine(t, handleScratch, "// resettle")
	fs := checkScratch(t, lint.Handleonce, mutated)
	if len(fs) == 0 {
		t.Error("handleonce missed the deleted re-insertion")
	}
	for _, f := range fs {
		if !strings.Contains(f.Message, "may reach this return") {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// TestAllowOnRelatedLine pins the chosen suppression semantics for
// flow-sensitive findings: the leak diagnostic lands on the exit line,
// but it carries the delete site as a related position, and a
// //hpbd:allow directive covering EITHER line suppresses it. The
// directive belongs on the delete line — that is where the protocol
// knowledge ("this handle is settled elsewhere") lives.
func TestAllowOnRelatedLine(t *testing.T) {
	leaky := dropLine(t, handleScratch, "// resettle")
	if fs := checkScratch(t, lint.Handleonce, leaky); len(fs) != 1 {
		t.Fatalf("baseline leak: want 1 finding, got %v", fs)
	}
	annotated := strings.Replace(leaky,
		"\tdelete(d.pending, h)",
		"\t//hpbd:allow handleonce -- test: settled elsewhere\n\tdelete(d.pending, h)", 1)
	if annotated == leaky {
		t.Fatal("annotation not applied")
	}
	if fs := checkScratch(t, lint.Handleonce, annotated); len(fs) != 0 {
		t.Errorf("directive on the delete line should suppress the exit-line report, got %v", fs)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found")
		}
		dir = parent
	}
}
