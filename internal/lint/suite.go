// Package lint is hpbd-vet: a suite of static analyzers that mechanically
// enforce the simulator's determinism contract (DESIGN.md, "Determinism
// contract"). Every paper figure depends on internal/sim being a pure
// function of its seed; these checks make the properties that guarantee
// that — no wall clock, no global randomness, no map-ordered scheduling,
// no real blocking inside simulated processes, nil-safe telemetry handles
// — into build failures instead of silent noise in calibrated results.
//
// The analyzers are written against internal/lint/analysis, an
// API-compatible subset of golang.org/x/tools/go/analysis, and run over
// packages loaded by internal/lint/load. cmd/hpbd-vet is the multichecker
// front end.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"hpbd/internal/lint/analysis"
	"hpbd/internal/lint/load"
)

// Analyzers is the full hpbd-vet suite in reporting order. The first
// five enforce the determinism contract (DESIGN.md §8); the last three
// are the flow-sensitive protocol analyzers built on
// internal/lint/analysis/cfg + dataflow.
var Analyzers = []*analysis.Analyzer{
	Walltime,
	Globalrand,
	Mapiter,
	Simblock,
	Telemetrynil,
	Handleonce,
	Lockorder,
	Hotalloc,
}

var knownAnalyzers = map[string]bool{}

func init() {
	for _, a := range Analyzers {
		knownAnalyzers[a.Name] = true
	}
}

// skipPackages maps analyzer name -> import paths the check does not apply
// to. This is driver policy, not analyzer logic, mirroring how x/tools
// drivers own file filtering:
//
//   - walltime/globalrand: the real TCP stack (netblock, hpbd-server)
//     legitimately lives on the wall clock and OS entropy.
//   - mapiter: scoped to the deterministic core — packages whose map
//     iteration can reach a scheduling decision.
//   - telemetrynil: the telemetry package is the constructor.
var skipPackages = map[string]map[string]bool{
	Walltime.Name: {
		"hpbd/internal/netblock": true,
		"hpbd/cmd/hpbd-server":   true,
	},
	Globalrand.Name: {
		"hpbd/internal/netblock": true,
		"hpbd/cmd/hpbd-server":   true,
	},
	Telemetrynil.Name: {
		"hpbd/internal/telemetry": true,
	},
}

// mapiterPackages is the inverse: mapiter applies only inside the
// deterministic core — every package whose map iteration can reach a
// scheduling decision, including the PR 5-6 directory/mirror/injector
// layers.
var mapiterPackages = map[string]bool{
	"hpbd/internal/sim":         true,
	"hpbd/internal/hpbd":        true,
	"hpbd/internal/ib":          true,
	"hpbd/internal/vm":          true,
	"hpbd/internal/blockdev":    true,
	"hpbd/internal/cluster":     true,
	"hpbd/internal/experiments": true,
	"hpbd/internal/placement":   true,
	"hpbd/internal/mirror":      true,
	"hpbd/internal/faultsim":    true,
	"hpbd/internal/tenant":      true,
}

// onlyPackages restricts an analyzer to an inclusion list, like
// mapiterPackages: the protocol analyzers audit the layers that speak
// the handle protocols. lockorder additionally covers the real TCP
// device and the NBD baseline (ordinary sync.Mutex users); hotalloc is
// absent — it runs everywhere, gated by the //hpbd:hotpath marker.
var onlyPackages = map[string]map[string]bool{
	Handleonce.Name: {
		"hpbd/internal/hpbd":      true,
		"hpbd/internal/mirror":    true,
		"hpbd/internal/cluster":   true,
		"hpbd/internal/placement": true,
	},
	Lockorder.Name: {
		"hpbd/internal/hpbd":      true,
		"hpbd/internal/mirror":    true,
		"hpbd/internal/cluster":   true,
		"hpbd/internal/placement": true,
		"hpbd/internal/netblock":  true,
		"hpbd/internal/nbd":       true,
	},
}

// applies reports whether analyzer a runs on package path under the
// default suite policy.
func applies(a *analysis.Analyzer, pkgPath string) bool {
	if a.Name == Mapiter.Name {
		return mapiterPackages[pkgPath]
	}
	if only, ok := onlyPackages[a.Name]; ok {
		return only[pkgPath]
	}
	return !skipPackages[a.Name][pkgPath]
}

// Finding is one suite diagnostic with a resolved position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// RunAnalyzer applies a single analyzer to one package, honouring
// //hpbd:allow directives but not the package applicability policy (the
// analysistest fixtures rely on that). Malformed directives are reported
// as findings of the analyzer being run.
func RunAnalyzer(a *analysis.Analyzer, pkg *load.Package) ([]Finding, error) {
	var dirs []directive
	for _, f := range pkg.Syntax {
		dirs = append(dirs, parseDirectives(pkg.Fset, f)...)
	}
	var findings []Finding
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report: func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if suppressed(dirs, a.Name, pos.Line) {
				return
			}
			// A directive covering any related position (e.g. the acquire
			// site of a leak reported at a return) also suppresses.
			for _, rp := range d.Related {
				if rp.IsValid() && suppressed(dirs, a.Name, pkg.Fset.Position(rp).Line) {
					return
				}
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		},
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
	}
	return findings, nil
}

// Run applies the whole suite to the packages under the default policy and
// returns findings sorted by position. Malformed //hpbd:allow directives
// are reported once per package under the pseudo-analyzer "directive".
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range directiveDiagnostics(parseDirectives(pkg.Fset, f)) {
				findings = append(findings, Finding{
					Analyzer: "directive",
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
		}
		for _, a := range analyzers {
			if !applies(a, pkg.PkgPath) {
				continue
			}
			fs, err := RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			findings = append(findings, fs...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// Doc renders the analyzer list for -help output.
func Doc() string {
	var b strings.Builder
	for _, a := range Analyzers {
		fmt.Fprintf(&b, "  %-13s %s\n", a.Name, a.Doc)
	}
	return b.String()
}
