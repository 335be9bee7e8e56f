package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Determinism bans the nondeterminism sources that would break the
// byte-identical experiment tables (Fig 8/9, X9, X10): wall-clock reads
// (time.Now / time.Since / time.Until), the process-seeded global
// math/rand source, and map iteration feeding output or ordering
// decisions. The simulation must derive every number from virtual time
// and every random draw from the engine's seeded source, and every
// table row from a deterministically ordered walk — the regression
// tests catch drift at run time, this analyzer catches it at review
// time. In the simulation packages it also bans writes to package-level
// variables outside their initialisers: a run's state lives in values,
// so two runs share nothing and can run in either order, or at once.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "ban wall-clock time, unseeded math/rand, map-order-dependent output, and package state in the simulation packages",
	Match: func(rel string) bool {
		return matchPrefix(rel, "internal") || matchPrefix(rel, "cmd")
	},
	Run: runDeterminism,
}

// matchPrefix reports whether rel is dir or below it.
func matchPrefix(rel, dir string) bool {
	return rel == dir || strings.HasPrefix(rel, dir+"/")
}

// wallClockFuncs are the time-package functions that read the host
// clock. time.Sleep blocks real time but returns no value, so it cannot
// leak into a table; it is still absent from simulation code paths.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRandAllowed lists the math/rand package-level names that do not
// touch the global source.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// statelessPkgs are the simulation packages whose non-test files may
// not write a package-level variable outside its initialiser.
var statelessPkgs = []string{
	"internal/sim", "internal/memsim", "internal/numa", "internal/core",
	"internal/charm", "internal/kernels", "internal/exp",
}

func runDeterminism(p *Pass) {
	stateless := slices.ContainsFunc(statelessPkgs, func(dir string) bool { return matchPrefix(p.RelPath, dir) })
	for _, f := range p.Files {
		sorted := collectSortCalls(p, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				p.checkClockAndRand(n)
			case *ast.RangeStmt:
				p.checkMapRange(n, sorted)
			case *ast.AssignStmt:
				if stateless && n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						p.checkPackageWrite(lhs)
					}
				}
			case *ast.IncDecStmt:
				if stateless {
					p.checkPackageWrite(n.X)
				}
			}
			return true
		})
	}
}

// checkPackageWrite flags a write whose target is a package-level
// variable, or an element or field of one: a map or slice element store
// writes the variable's shared storage as surely as an assignment does.
// Package-level declarations are initialisers, not statements, so they
// never reach here.
func (p *Pass) checkPackageWrite(lhs ast.Expr) {
	for e := lhs; ; {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
				e = x.Sel // a qualified variable of another package
			} else {
				e = x.X
			}
		case *ast.Ident:
			if v, ok := p.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				p.Reportf(lhs.Pos(),
					"write to package-level variable %s outside its initialiser; keep run state in values", v.Name())
			}
			return
		default:
			return
		}
	}
}

// pkgOf resolves a selector base identifier to the package it names, or
// nil when the base is not a package.
func (p *Pass) pkgOf(e ast.Expr) *types.Package {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

func (p *Pass) checkClockAndRand(sel *ast.SelectorExpr) {
	pkg := p.pkgOf(sel.X)
	if pkg == nil {
		return
	}
	name := sel.Sel.Name
	switch pkg.Path() {
	case "time":
		if wallClockFuncs[name] {
			p.Reportf(sel.Pos(),
				"time.%s reads the wall clock and breaks byte-identical tables; use the engine's virtual time", name)
		}
	case "math/rand", "math/rand/v2":
		if globalRandAllowed[name] {
			return
		}
		if obj, ok := p.Info.Uses[sel.Sel]; ok {
			if _, isFunc := obj.(*types.Func); !isFunc {
				return // a type or const like rand.Rand / rand.Source
			}
		}
		p.Reportf(sel.Pos(),
			"%s.%s uses the process-seeded global source; draw from the engine's seeded *rand.Rand instead", pkg.Name(), name)
	}
}

// checkMapRange flags `for k := range m` over a map when the loop body
// does anything whose result depends on iteration order: emitting
// output, appending to or assigning state declared outside the loop.
// Pure map-to-map transfers (`dst[k] = v`) and deletes are order-free
// and stay legal, as is the collect-keys idiom — appending to a slice
// that a later sort.*/slices.* call in the same file reorders.
func (p *Pass) checkMapRange(rs *ast.RangeStmt, sorted map[types.Object][]token.Pos) {
	t := p.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	inner := localObjs(p, rs)
	if reason := orderDependent(p, rs, inner, sorted); reason != "" {
		p.Reportf(rs.Pos(),
			"map iteration order feeds %s; iterate a sorted key slice instead", reason)
	}
}

// localObjs collects the objects declared by the range statement itself
// and inside its body; writes to those are order-free.
func localObjs(p *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if o := p.Info.Defs[id]; o != nil {
				objs[o] = true
			}
		}
	}
	add(rs.Key)
	add(rs.Value)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := p.Info.Defs[id]; o != nil {
				objs[o] = true
			}
		}
		return true
	})
	return objs
}

// orderDependent scans a map-range body for order-sensitive effects and
// returns a short description of the first one, or "".
func orderDependent(p *Pass, rs *ast.RangeStmt, local map[types.Object]bool, sorted map[types.Object][]token.Pos) string {
	var reason string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := outputCall(p, n); name != "" {
				reason = "output (" + name + ")"
				return false
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				// append builds an ordered slice; appending inside a
				// map range bakes the iteration order into it — unless
				// the slice is sorted again after the loop.
				if len(n.Args) > 0 && !isLocalTarget(p, n.Args[0], local) &&
					!sortedAfter(p, n.Args[0], rs.End(), sorted) {
					reason = "slice ordering (append)"
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if isOrderFreeTarget(p, lhs, local) {
					continue
				}
				if i < len(n.Rhs) && isSortedAppendGrow(p, lhs, n.Rhs[i], rs.End(), sorted) {
					continue
				}
				reason = "state outside the loop (" + exprString(lhs) + ")"
				return false
			}
		case *ast.IncDecStmt:
			if !isOrderFreeTarget(p, n.X, local) {
				reason = "state outside the loop (" + exprString(n.X) + ")"
				return false
			}
		case *ast.FuncLit:
			return false // separate execution context
		}
		return true
	})
	return reason
}

// isOrderFreeTarget reports whether assigning lhs inside a map range
// cannot observe iteration order: targets declared inside the loop, and
// map-index stores (each key written independently).
func isOrderFreeTarget(p *Pass, lhs ast.Expr, local map[types.Object]bool) bool {
	switch lhs := lhs.(type) {
	case *ast.IndexExpr:
		if t := p.TypeOf(lhs.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				return true
			}
		}
		return false
	case *ast.Ident:
		return lhs.Name == "_" || isLocalTarget(p, lhs, local)
	default:
		return isLocalTarget(p, lhs, local)
	}
}

// isLocalTarget reports whether e's root object was declared by or
// inside the range loop.
func isLocalTarget(p *Pass, e ast.Expr, local map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if o := p.Info.Defs[x]; o != nil && local[o] {
				return true
			}
			if o := p.Info.Uses[x]; o != nil && local[o] {
				return true
			}
			return false
		default:
			return false
		}
	}
}

// outputCall reports whether call writes program output (fmt printing,
// builder/writer writes, log, os.Std* writes) and names the callee.
func outputCall(p *Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if pkg := p.pkgOf(fun.X); pkg != nil {
			switch pkg.Path() {
			case "fmt":
				if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
					strings.HasPrefix(name, "Sprint") {
					return "fmt." + name
				}
			case "log":
				return "log." + name
			}
			return ""
		}
		// Method writes on builders/writers.
		if strings.HasPrefix(name, "Write") {
			if t := p.TypeOf(fun.X); t != nil {
				if isNamedType(t, "strings", "Builder") || isNamedType(t, "bytes", "Buffer") {
					return exprString(fun.X) + "." + name
				}
			}
		}
	case *ast.Ident:
		if fun.Name == "print" || fun.Name == "println" {
			return fun.Name
		}
	}
	return ""
}

// sortFuncs are the sort/slices package functions whose first argument
// ends up deterministically ordered.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"SortFunc": true, "SortStableFunc": true,
}

// collectSortCalls indexes every sort.*/slices.Sort* call in the file
// by the object its first argument names, so map-range appends into a
// slice that is sorted afterwards can be recognised as order-free.
func collectSortCalls(p *Pass, f *ast.File) map[types.Object][]token.Pos {
	var out map[types.Object][]token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortFuncs[sel.Sel.Name] {
			return true
		}
		pkg := p.pkgOf(sel.X)
		if pkg == nil || (pkg.Path() != "sort" && pkg.Path() != "slices") {
			return true
		}
		id, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return true
		}
		if obj := p.Info.Uses[id]; obj != nil {
			if out == nil {
				out = make(map[types.Object][]token.Pos)
			}
			out[obj] = append(out[obj], call.Pos())
		}
		return true
	})
	return out
}

// sortedAfter reports whether target (an identifier) is the argument of
// a sort call positioned after `after` — the collect-then-sort idiom.
func sortedAfter(p *Pass, target ast.Expr, after token.Pos, sorted map[types.Object][]token.Pos) bool {
	for _, pos := range sorted[objOf(p, target)] {
		if pos > after {
			return true
		}
	}
	return false
}

// isSortedAppendGrow recognises `s = append(s, ...)` where s is sorted
// after the loop: the canonical collect-keys idiom.
func isSortedAppendGrow(p *Pass, lhs, rhs ast.Expr, after token.Pos, sorted map[types.Object][]token.Pos) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	obj := objOf(p, lhs)
	if obj == nil || obj != objOf(p, call.Args[0]) {
		return false
	}
	return sortedAfter(p, lhs, after, sorted)
}

// objOf resolves an identifier expression to its object, or nil.
func objOf(p *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}
