package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The on-disk fixtures can only import the standard library (the source
// importer resolves from GOROOT), so the obs-readback rule is exercised here
// against an in-memory stand-in for dosn/internal/obs, resolved through a
// map-backed importer. The stand-in mirrors the real API surface the rule
// cares about: write methods (Inc, Add, Phase), read methods (Value),
// package-level readers (ReadMem), and the stopwatch reads that are
// deliberately allowed (Elapsed).
const fakeObsSrc = `package obs

import "time"

type Counter struct{ v int64 }

func (c *Counter) Inc()             {}
func (c *Counter) Add(n int64)      {}
func (c *Counter) Value() int64     { return c.v }
func C(name string) *Counter        { return &Counter{} }

type Watch struct{ d time.Duration }

func StartWatch() Watch                 { return Watch{} }
func (w Watch) Elapsed() time.Duration  { return w.d }

type CellObs struct{}

func (o *CellObs) Phase(name string, d time.Duration) {}

type MemSnapshot struct{ HeapAllocMB float64 }

func ReadMem() MemSnapshot { return MemSnapshot{} }
`

// mapImporter serves in-memory packages by path and defers everything else
// (the standard library) to a fallback importer.
type mapImporter struct {
	pkgs     map[string]*types.Package
	fallback types.Importer
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

// checkSrc type-checks one in-memory file as package pkgPath.
func checkSrc(t *testing.T, fset *token.FileSet, pkgPath, src string, imp types.Importer) (*types.Package, *ast.File, *types.Info) {
	t.Helper()
	f, err := parser.ParseFile(fset, pkgPath+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: imp}
	pkg, err := cfg.Check(pkgPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", pkgPath, err)
	}
	return pkg, f, info
}

func runDetRandOn(t *testing.T, fset *token.FileSet, pkg *types.Package, file *ast.File, info *types.Info) []Finding {
	t.Helper()
	var got []Finding
	pass := &Pass{
		Analyzer:  DetRand,
		Fset:      fset,
		Files:     []*ast.File{file},
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d Diagnostic) {
			got = append(got, Finding{Analyzer: DetRand.Name, Position: fset.Position(d.Pos), Message: d.Message})
		},
	}
	if err := DetRand.Run(pass); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestObsReadback pins the execution-only boundary: deterministic packages
// may feed telemetry into obs but must not read it back.
func TestObsReadback(t *testing.T) {
	fset := token.NewFileSet()
	stdlib := importer.ForCompiler(fset, "source", nil)
	obsPkg, _, _ := checkSrc(t, fset, "dosn/internal/obs", fakeObsSrc, stdlib)
	imp := mapImporter{pkgs: map[string]*types.Package{"dosn/internal/obs": obsPkg}, fallback: stdlib}

	const coreSrc = `package core

import "dosn/internal/obs"

var counter = obs.C("core.things")

// Write-only instrumentation and stopwatch reads are the supported pattern.
func Instrument(o *obs.CellObs) {
	counter.Inc()
	counter.Add(2)
	w := obs.StartWatch()
	o.Phase("sweep", w.Elapsed())
}

// Reading telemetry back is a determinism leak.
func Leak() int64 {
	v := counter.Value()
	m := obs.ReadMem()
	return v + int64(m.HeapAllocMB)
}
`
	pkg, file, info := checkSrc(t, fset, "dosn/internal/core", coreSrc, imp)
	got := runDetRandOn(t, fset, pkg, file, info)
	if len(got) != 2 {
		t.Fatalf("want exactly the 2 readback findings, got %d: %v", len(got), got)
	}
	for _, f := range got {
		if !strings.Contains(f.Message, "reads execution telemetry") {
			t.Errorf("unexpected message: %s", f.Message)
		}
	}
	if !strings.Contains(got[0].Message, "obs.Value") || !strings.Contains(got[1].Message, "obs.ReadMem") {
		t.Errorf("findings should name Value then ReadMem: %v", got)
	}

	// The same reads from a package outside the deterministic set are fine:
	// that is where reports are meant to be assembled.
	const plotxSrc = `package plotx

import "dosn/internal/obs"

var counter = obs.C("plotx.things")

func Snapshot() int64 { _ = obs.ReadMem(); return counter.Value() }
`
	pkg2, file2, info2 := checkSrc(t, fset, "dosn/internal/plotx", plotxSrc, imp)
	if got := runDetRandOn(t, fset, pkg2, file2, info2); len(got) != 0 {
		t.Errorf("execution-side package must be free to read telemetry, got %v", got)
	}
}
