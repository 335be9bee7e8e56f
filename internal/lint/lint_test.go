package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest on the standard
// library alone: testdata packages are parsed and type-checked against
// the repository's real package graph (so fixtures import
// internal/sim, internal/core, ... with full type information), the
// analyzer under test runs over them, and findings are matched against
// `// want `+"`regexp`"+` comments on the flagged lines.

var (
	repoOnce sync.Once
	repoG    *graph
	repoErr  error
)

// repoGraph loads and type-checks the repository once per test binary.
func repoGraph(t *testing.T) *graph {
	t.Helper()
	repoOnce.Do(func() {
		repoG, repoErr = load("../..", "./...")
	})
	if repoErr != nil {
		t.Fatalf("loading repository package graph: %v", repoErr)
	}
	return repoG
}

// runFixture type-checks testdata/<dir> as a package with the given
// fictitious import path and runs the analyzer over it.
func runFixture(t *testing.T, a *Analyzer, dir, importPath string) ([]Diagnostic, []*ast.File) {
	t.Helper()
	g := repoGraph(t)

	names, err := filepath.Glob(filepath.Join("testdata", dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files under testdata/%s: %v", dir, err)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(g.fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", name, err)
		}
		files = append(files, f)
	}

	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := g.checked[path]; ok {
			return tp, nil
		}
		return nil, fmt.Errorf("fixture imports %q, which is not in the repository graph", path)
	})}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tp, err := conf.Check(importPath, g.fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture testdata/%s: %v", dir, err)
	}

	rel := strings.TrimPrefix(importPath, "github.com/hetmem/hetmem/")
	pkg := &Package{
		Path:    importPath,
		RelPath: rel,
		Name:    tp.Name(),
		Fset:    g.fset,
		Files:   files,
		Types:   tp,
		Info:    info,
	}
	return Run([]*Package{pkg}, []*Analyzer{a}), files
}

// wantExp is one expected finding, parsed from a // want `re` comment.
type wantExp struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantPattern = regexp.MustCompile("`([^`]*)`")

func collectWants(t *testing.T, g *graph, files []*ast.File) []*wantExp {
	t.Helper()
	var wants []*wantExp
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := g.fset.Position(c.Pos())
				matches := wantPattern.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: want comment without a backquoted pattern", pos.Filename, pos.Line)
				}
				for _, m := range matches {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &wantExp{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkFixture asserts that the analyzer's findings over testdata/<dir>
// are exactly the fixture's want comments.
func checkFixture(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	got, files := runFixture(t, a, dir, importPath)
	wants := collectWants(t, repoGraph(t), files)

	for _, d := range got {
		matched := false
		for _, w := range wants {
			if w.used || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, Determinism, "determinism", "github.com/hetmem/hetmem/internal/lintfixture/determinism")
}

func TestPackageStateFixture(t *testing.T) {
	// The import path matters: the package-state check is scoped to the
	// simulation packages.
	checkFixture(t, Determinism, "pkgstate", "github.com/hetmem/hetmem/internal/exp/lintfixture")
}

func TestLocksafeFixture(t *testing.T) {
	checkFixture(t, Locksafe, "locksafe", "github.com/hetmem/hetmem/internal/core/lintfixture")
}

func TestHandleAccessFixture(t *testing.T) {
	checkFixture(t, HandleAccess, "handleaccess", "github.com/hetmem/hetmem/internal/kernels/lintfixture")
}

func TestOptionsMutFixture(t *testing.T) {
	checkFixture(t, OptionsMut, "optionsmut", "github.com/hetmem/hetmem/internal/lintfixture/optionsmut")
}

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, LockOrder, "lockorder", "github.com/hetmem/hetmem/internal/lintfixture/lockorder")
}

func TestWaitLoopFixture(t *testing.T) {
	checkFixture(t, WaitLoop, "waitloop", "github.com/hetmem/hetmem/internal/lintfixture/waitloop")
}

func TestGoroLeakFixture(t *testing.T) {
	// The import path matters: goroleak scopes to the long-running
	// layers (cluster, serve, cmd).
	checkFixture(t, GoroLeak, "goroleak", "github.com/hetmem/hetmem/internal/cluster/lintfixture")
}

func TestTierChainFixture(t *testing.T) {
	checkFixture(t, TierChain, "tierchain", "github.com/hetmem/hetmem/internal/lintfixture/tierchain")
}

func TestEncodeParityFixture(t *testing.T) {
	// Scoped to internal/trace, where the fast encoder lives.
	checkFixture(t, EncodeParity, "encodeparity", "github.com/hetmem/hetmem/internal/trace/lintfixture")
}

func TestSnapshotAliasFixture(t *testing.T) {
	checkFixture(t, SnapshotAlias, "snapshotalias", "github.com/hetmem/hetmem/internal/lintfixture/snapshotalias")
}

// TestFactsLayer asserts the interprocedural summaries directly: the
// call graph, the held-lock annotations, and the Signals fixpoint that
// lockorder and goroleak consume.
func TestFactsLayer(t *testing.T) {
	var facts *Facts
	grab := &Analyzer{Name: "grab", NeedsFacts: true, Run: func(p *Pass) { facts = p.Facts }}
	runFixture(t, grab, "lockorder", "github.com/hetmem/hetmem/internal/lintfixture/lockorder")
	if facts == nil {
		t.Fatal("NeedsFacts analyzer ran without a facts layer")
	}

	byName := map[string]*FnFact{}
	for _, fn := range facts.Functions() {
		byName[fn.Fn.Name()] = fn
	}
	ab := byName["ab"]
	if ab == nil {
		t.Fatal("facts missing function ab")
	}
	if len(ab.Acquires) != 2 {
		t.Fatalf("ab acquires = %d locks, want 2 (%v)", len(ab.Acquires), ab.Acquires)
	}
	if got := ab.Acquires[1]; got.Class != "lockorder.B.mu" || len(got.Held) != 1 || got.Held[0].Class != "lockorder.A.mu" {
		t.Fatalf("ab second acquisition = %+v, want lockorder.B.mu held under lockorder.A.mu", got)
	}

	cThenD := byName["cThenD"]
	if cThenD == nil {
		t.Fatal("facts missing function cThenD")
	}
	var callsLockD *CallSite
	for i := range cThenD.Calls {
		if cThenD.Calls[i].Callee.Name() == "lockD" {
			callsLockD = &cThenD.Calls[i]
		}
	}
	if callsLockD == nil {
		t.Fatal("cThenD call graph does not include lockD")
	}
	if len(callsLockD.Held) != 1 || callsLockD.Held[0].Class != "lockorder.C.mu" {
		t.Fatalf("lockD call site held = %v, want [lockorder.C.mu] (deferred unlock keeps the lock held)", callsLockD.Held)
	}

	// A Drive step's stepped acquisitions hold their mutexes as Lock
	// does.
	efStep := byName["efStep"]
	if efStep == nil {
		t.Fatal("facts missing function efStep")
	}
	if got := efStep.Acquires; len(got) != 2 || got[1].Class != "lockorder.F.mu" || len(got[1].Held) != 1 || got[1].Held[0].Class != "lockorder.E.mu" {
		t.Fatalf("efStep acquires = %+v, want lockorder.F.mu held under lockorder.E.mu", got)
	}

	// A step that parks on a guard still holds the locks it took.
	ghParked := byName["ghParked"]
	if ghParked == nil {
		t.Fatal("facts missing function ghParked")
	}
	if got := ghParked.Acquires; len(got) != 2 || got[1].Class != "lockorder.H.mu" || len(got[1].Held) != 1 || got[1].Held[0].Class != "lockorder.G.mu" {
		t.Fatalf("ghParked acquires = %+v, want lockorder.H.mu held under lockorder.G.mu", got)
	}

	cycles := facts.LockCycles()
	if len(cycles) != 4 {
		t.Fatalf("LockCycles = %d cycles, want 4 (A<->B direct, C<->D via calls, E<->F stepped, G<->H across a park):\n%v", len(cycles), cycles)
	}
	if !strings.Contains(cycles[1].msg, "via lockD") {
		t.Errorf("interprocedural cycle message should name the via callee, got: %s", cycles[1].msg)
	}

	// Signals: ab signals nothing; a function is not its own evidence.
	if facts.Signals(ab.Fn) {
		t.Error("Signals(ab) = true, want false (no channel/WaitGroup/Cond operations)")
	}
}

// TestSuppressions checks the //hmlint:ignore protocol end to end: a
// justified directive silences its finding, a reason-less directive is
// itself reported and suppresses nothing.
func TestSuppressions(t *testing.T) {
	got, _ := runFixture(t, Determinism, "suppress", "github.com/hetmem/hetmem/internal/lintfixture/suppress")
	var kinds []string
	for _, d := range got {
		kinds = append(kinds, d.Analyzer+":"+filepath.Base(d.Pos.Filename))
	}
	want := []string{"hmlint:malformed.go", "determinism:malformed.go"}
	sort.Strings(kinds)
	sort.Strings(want)
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Fatalf("suppression fixture findings = %v, want the malformed directive and its unsuppressed finding\nfull: %v", kinds, got)
	}
	for _, d := range got {
		if d.Analyzer == "hmlint" && !strings.Contains(d.Message, "malformed") {
			t.Errorf("hmlint finding should flag the malformed directive, got: %s", d)
		}
	}
}

// TestRepoIsClean dogfoods the full suite over the repository itself:
// the tree must stay finding-free (modulo in-tree justified
// suppressions), which is also the make-lint acceptance gate.
func TestRepoIsClean(t *testing.T) {
	g := repoGraph(t)
	diags := Run(g.pkgs, All())
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}
}

// TestByName covers the driver's -checks selection.
func TestByName(t *testing.T) {
	all, ok := ByName(nil)
	if !ok || len(all) != 10 {
		t.Fatalf("ByName(nil) = %d analyzers, ok=%v; want all 10", len(all), ok)
	}
	sel, ok := ByName([]string{"determinism", "locksafe"})
	if !ok || len(sel) != 2 || sel[0].Name != "determinism" || sel[1].Name != "locksafe" {
		t.Fatalf("ByName(determinism,locksafe) = %v, ok=%v", sel, ok)
	}
	if _, ok := ByName([]string{"nope"}); ok {
		t.Fatal("ByName(nope) should fail")
	}
}
