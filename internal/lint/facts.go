package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The facts layer is hmlint's second-generation foundation: a bottom-up
// pass over every analysis-target package that summarises each declared
// function before any analyzer runs. PR 4's analyzers were strictly
// per-package and intraprocedural; the bug classes that bit the repo
// since (positional tier lookups, condvar discipline in the hetmemd
// service, goroutine lifecycles in the cluster's former parallel window
// executor) all span call chains, so the interprocedural analyzers —
// lockorder and goroleak — consume these summaries instead of
// re-walking bodies.
//
// Identity is types.Func: the loader type-checks each package exactly
// once and dependents import the same *types.Package, so a function
// object is canonical across the whole graph and the call graph can be
// keyed on it directly.

// Facts is the cross-package summary database handed to analyzers via
// Pass.Facts when any selected analyzer sets NeedsFacts.
type Facts struct {
	fset  *token.FileSet
	fns   map[*types.Func]*FnFact
	order []*FnFact // deterministic (package, then source) order

	cycles       []lockCycle
	cyclesCached bool
}

// FnFact is one function's summary: its static call sites annotated
// with the lock classes held at the call, its own lock acquisitions,
// and whether its body contains completion-signalling operations
// (channel send/close, WaitGroup.Done, Cond.Signal/Broadcast).
type FnFact struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	Calls    []CallSite
	Acquires []LockAcq

	// LocalSignal reports a completion signal lexically inside the
	// function (including its closures): a channel send or close, a
	// WaitGroup.Done, or a Cond.Signal/Broadcast.
	LocalSignal bool

	// transAcq is the fixpoint of lock classes acquired by this
	// function or any transitive callee; filled by transAcquires.
	transAcq map[string]token.Pos

	signal int8 // memo for Signals: 0 unknown, 1 yes, -1 visiting/no
}

// CallSite is one static call to another analysis-target function.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
	Held   []heldLock // lock classes held at the call, sorted by class
}

// LockAcq is one mutex acquisition, with the classes already held.
type LockAcq struct {
	Class string
	Pos   token.Pos
	Held  []heldLock
}

type heldLock struct {
	Class string
	Pos   token.Pos
}

// ComputeFacts builds the facts database over pkgs. Packages come from
// the loader in dependency order, so iteration order — and therefore
// every derived report — is deterministic.
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{fns: make(map[*types.Func]*FnFact)}
	for _, pkg := range pkgs {
		if f.fset == nil {
			f.fset = pkg.Fset
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fact := &FnFact{Fn: obj, Decl: fd, Pkg: pkg}
				w := &factsWalker{pkg: pkg, fact: fact}
				w.walkBody(fd.Body.List, newHeldState())
				f.fns[obj] = fact
				f.order = append(f.order, fact)
			}
		}
	}
	return f
}

// Fn returns the summary for a function object, or nil for functions
// outside the analysis target (standard library, interface methods).
func (f *Facts) Fn(obj *types.Func) *FnFact { return f.fns[obj] }

// Functions returns every summarised function in deterministic order.
// The slice is a copy; the database itself stays append-only.
func (f *Facts) Functions() []*FnFact { return append([]*FnFact(nil), f.order...) }

// Signals reports whether fn — or any function it statically calls,
// transitively — contains a completion signal (channel send/close,
// WaitGroup.Done, Cond.Signal/Broadcast). goroleak uses it to accept
// `go s.Loop()`-style spawns whose join evidence lives down the call
// chain. Recursion through cycles resolves to the local evidence only.
func (f *Facts) Signals(obj *types.Func) bool {
	fact := f.fns[obj]
	if fact == nil {
		return false
	}
	switch fact.signal {
	case 1:
		return true
	case -1:
		return false // resolved no, or currently on the DFS stack
	}
	fact.signal = -1 // visiting: cycles contribute nothing
	result := fact.LocalSignal
	if !result {
		for _, c := range fact.Calls {
			if f.Signals(c.Callee) {
				result = true
				break
			}
		}
	}
	if result {
		fact.signal = 1
	}
	return result
}

// --- held-lock state tracking ---

// heldState is the walker's lock bookkeeping at one program point,
// mirroring locksafe's lockState but keyed by global lock class.
type heldState struct {
	held map[string]token.Pos
}

func newHeldState() *heldState { return &heldState{held: map[string]token.Pos{}} }

func (st *heldState) clone() *heldState {
	c := newHeldState()
	for k, v := range st.held {
		c.held[k] = v
	}
	return c
}

func (st *heldState) snapshot() []heldLock {
	if len(st.held) == 0 {
		return nil
	}
	out := make([]heldLock, 0, len(st.held))
	for k, v := range st.held {
		out = append(out, heldLock{Class: k, Pos: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// factsWalker records acquisitions, call sites and signal evidence for
// one function, tracking held lock classes in source order with branch
// cloning (the same approximation locksafe uses: a class counts as held
// after a branch only when every falling-through path holds it).
type factsWalker struct {
	pkg  *Package
	fact *FnFact
}

// lockClass canonicalises a mutex expression into a global class name:
//
//	s.mu      (s *serve.Server)  -> "serve.Server.mu"
//	s.ioMu[i] (s *core.multiIO)  -> "core.multiIO.ioMu[]"
//	pkgVar                       -> "pkg.pkgVar"
//	local                        -> "pkg.Func.local"
//
// Indexed families collapse onto one class: acquiring two members of a
// per-PE mutex array without a rank order is itself a lock-order
// hazard, so the coarsening errs on the reporting side.
func (w *factsWalker) lockClass(e ast.Expr) string {
	suffix := ""
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			suffix = "[]"
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			if owner := namedFrom(w.pkg.Info.TypeOf(x.X)); owner != nil {
				return owner.Obj().Pkg().Name() + "." + owner.Obj().Name() + "." + x.Sel.Name + suffix
			}
			return w.pkg.Name + "." + x.Sel.Name + suffix
		case *ast.Ident:
			if obj := w.pkg.Info.ObjectOf(x); obj != nil && obj.Parent() == w.pkg.Types.Scope() {
				return w.pkg.Name + "." + x.Name + suffix
			}
			return w.pkg.Name + "." + w.fact.Fn.Name() + "." + x.Name + suffix
		default:
			return w.pkg.Name + "." + exprString(e) + suffix
		}
	}
}

func (w *factsWalker) isMutexExpr(e ast.Expr) bool {
	t := w.pkg.Info.TypeOf(e)
	return isNamedType(t, "internal/sim", "Mutex") || isNamedType(t, "sync", "Mutex") ||
		isNamedType(t, "sync", "RWMutex")
}

// calleeOf resolves a call expression to its static callee, or nil for
// dynamic calls (function values, interface methods outside the facts
// database still resolve to their *types.Func — the lookup in Facts.Fn
// filters those out).
func (w *factsWalker) calleeOf(call *ast.CallExpr) *types.Func {
	return staticCallee(w.pkg.Info, call)
}

// staticCallee resolves a call expression to the *types.Func it
// statically names, or nil for dynamic calls through function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func (w *factsWalker) walkBody(stmts []ast.Stmt, st *heldState) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *factsWalker) walkStmt(s ast.Stmt, st *heldState) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.walkExpr(s.X, st)
	case *ast.SendStmt:
		w.fact.LocalSignal = true
		w.walkExpr(s.Chan, st)
		w.walkExpr(s.Value, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e, st)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.walkExpr(s.X, st)
	case *ast.DeferStmt:
		if recv := selectorCall(s.Call, "Unlock"); recv != nil && w.isMutexExpr(recv) {
			// The unlock runs at exit; the mutex stays held for the
			// rest of the body, which is exactly what matters for
			// ordering edges — no state change.
			return false
		}
		w.walkCallParts(s.Call, newHeldState())
	case *ast.GoStmt:
		// The goroutine runs without the spawner's locks.
		w.walkCallParts(s.Call, newHeldState())
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, st)
		}
		return true
	case *ast.BlockStmt:
		return w.walkBody(s.List, st)
	case *ast.IfStmt:
		if call, recv := steppedAcquire(s); recv != nil && w.isMutexExpr(recv) {
			// A Drive step's stepped acquisition: m is held after it.
			w.acquire(call, recv, st)
			return false
		}
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.walkExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.walkBody(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseSt)
		}
		w.merge(st, thenSt, thenTerm, elseSt, elseTerm)
		return thenTerm && elseTerm && s.Else != nil
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, st)
		}
		w.walkBody(s.Body.List, st.clone())
	case *ast.RangeStmt:
		w.walkExpr(s.X, st)
		w.walkBody(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, st)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkBody(cc.Body, st.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkBody(cc.Body, st.clone())
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if snd, ok := cc.Comm.(*ast.SendStmt); ok {
					w.walkStmt(snd, st.clone())
				}
				w.walkBody(cc.Body, st.clone())
			}
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	}
	return false
}

// merge intersects the fall-through held sets of a branch.
func (w *factsWalker) merge(st, thenSt *heldState, thenTerm bool, elseSt *heldState, elseTerm bool) {
	exits := make([]*heldState, 0, 2)
	if !thenTerm {
		exits = append(exits, thenSt)
	}
	if !elseTerm {
		exits = append(exits, elseSt)
	}
	if len(exits) == 0 {
		return
	}
	held := map[string]token.Pos{}
	for k, v := range exits[0].held {
		inAll := true
		for _, e := range exits[1:] {
			if _, ok := e.held[k]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			held[k] = v
		}
	}
	st.held = held
}

func (w *factsWalker) walkExpr(e ast.Expr, st *heldState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures run in their own context; lock state does not
			// flow in, but their acquisitions, calls and signals are
			// attributed to the enclosing function.
			w.walkBody(n.Body.List, newHeldState())
			return false
		case *ast.CallExpr:
			w.handleCall(n, st)
		}
		return true
	})
}

// walkCallParts analyses the function-literal parts of a go/defer call
// with a fresh lock context.
func (w *factsWalker) walkCallParts(call *ast.CallExpr, st *heldState) {
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		w.walkBody(fl.Body.List, st)
	} else {
		w.handleCall(call, st)
	}
	for _, a := range call.Args {
		if fl, ok := a.(*ast.FuncLit); ok {
			w.walkBody(fl.Body.List, newHeldState())
		}
	}
}

// acquire records that call acquires the mutex recv.
func (w *factsWalker) acquire(call *ast.CallExpr, recv ast.Expr, st *heldState) {
	class := w.lockClass(recv)
	w.fact.Acquires = append(w.fact.Acquires, LockAcq{
		Class: class, Pos: call.Pos(), Held: st.snapshot(),
	})
	st.held[class] = call.Pos()
}

func (w *factsWalker) handleCall(call *ast.CallExpr, st *heldState) {
	if recv := selectorCall(call, "Lock"); recv != nil && w.isMutexExpr(recv) {
		w.acquire(call, recv, st)
		return
	}
	if recv := selectorCall(call, "RLock"); recv != nil && w.isMutexExpr(recv) {
		w.acquire(call, recv, st)
		return
	}
	if recv := selectorCall(call, "Unlock"); recv != nil && w.isMutexExpr(recv) {
		delete(st.held, w.lockClass(recv))
		return
	}
	if recv := selectorCall(call, "RUnlock"); recv != nil && w.isMutexExpr(recv) {
		delete(st.held, w.lockClass(recv))
		return
	}
	// Signal evidence: close(ch), WaitGroup.Done, Cond.Signal/Broadcast.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			w.fact.LocalSignal = true
		}
	}
	for _, name := range [...]string{"Done", "Signal", "Broadcast"} {
		if recv := selectorCall(call, name); recv != nil {
			t := w.pkg.Info.TypeOf(recv)
			if isNamedType(t, "sync", "WaitGroup") || isNamedType(t, "internal/sim", "WaitGroup") ||
				isNamedType(t, "sync", "Cond") || isNamedType(t, "internal/sim", "Cond") {
				w.fact.LocalSignal = true
			}
		}
	}
	if callee := w.calleeOf(call); callee != nil {
		w.fact.Calls = append(w.fact.Calls, CallSite{
			Callee: callee, Pos: call.Pos(), Held: st.snapshot(),
		})
	}
}

// --- lock-order graph ---

// lockEdge is one "from is held while to is acquired" observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
	rel      string // RelPath of the package owning pos
	via      string // callee name for interprocedural edges, "" for direct
}

// lockCycle is one reportable inconsistency in the global order graph.
type lockCycle struct {
	pos token.Pos
	rel string
	msg string
}

// transAcquires computes, for every function, the set of lock classes
// acquired by it or any transitive callee (the classic bottom-up
// summary fixpoint; the graph is small, so round-robin iteration to a
// fixed point is fine).
func (f *Facts) transAcquires() {
	for _, fn := range f.order {
		fn.transAcq = map[string]token.Pos{}
		for _, a := range fn.Acquires {
			fn.transAcq[a.Class] = a.Pos
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range f.order {
			for _, c := range fn.Calls {
				callee := f.fns[c.Callee]
				if callee == nil {
					continue
				}
				// Sorted iteration keeps the propagated witness positions
				// (and so the reports) independent of map order.
				classes := make([]string, 0, len(callee.transAcq))
				for class := range callee.transAcq {
					classes = append(classes, class)
				}
				sort.Strings(classes)
				for _, class := range classes {
					if _, ok := fn.transAcq[class]; !ok {
						fn.transAcq[class] = c.Pos
						changed = true
					}
				}
			}
		}
	}
}

// LockCycles detects cycles in the global lock-order graph. An edge
// A -> B exists when some function acquires B (directly, or anywhere
// down a call chain) while holding A. A cycle means two call paths
// acquire the same locks in conflicting order — the classic deadlock
// precondition. Each cycle is reported once, anchored at its
// smallest-position edge, in that edge's package (so suppressions at
// the site work).
func (f *Facts) LockCycles() []lockCycle {
	if !f.cyclesCached {
		f.cyclesCached = true
		f.computeLockCycles()
	}
	return append([]lockCycle(nil), f.cycles...)
}

func (f *Facts) computeLockCycles() {
	f.transAcquires()

	// Collect edges, keeping the smallest-position witness per pair.
	edges := map[string]map[string]lockEdge{}
	add := func(e lockEdge) {
		if e.from == e.to && e.via == "" {
			// Direct recursive locking is locksafe's report, and the
			// sim runtime panics on it at run time; the order graph
			// cares about distinct classes and call-chain recursion.
			return
		}
		m := edges[e.from]
		if m == nil {
			m = map[string]lockEdge{}
			edges[e.from] = m
		}
		if old, ok := m[e.to]; !ok || e.pos < old.pos {
			m[e.to] = e
		}
	}
	for _, fn := range f.order {
		for _, a := range fn.Acquires {
			for _, h := range a.Held {
				add(lockEdge{from: h.Class, to: a.Class, pos: a.Pos, rel: fn.Pkg.RelPath})
			}
		}
		for _, c := range fn.Calls {
			if len(c.Held) == 0 {
				continue
			}
			callee := f.fns[c.Callee]
			if callee == nil {
				continue
			}
			for class := range callee.transAcq {
				for _, h := range c.Held {
					add(lockEdge{from: h.Class, to: class, pos: c.Pos,
						rel: fn.Pkg.RelPath, via: c.Callee.Name()})
				}
			}
		}
	}

	// Tarjan SCC over the class graph, with sorted iteration for
	// deterministic output.
	nodes := make([]string, 0, len(edges))
	seen := map[string]bool{}
	for from, m := range edges {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range m {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)
	succ := func(n string) []string {
		m := edges[n]
		out := make([]string, 0, len(m))
		for to := range m {
			out = append(out, to)
		}
		sort.Strings(out)
		return out
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(n string)
	strongconnect = func(n string) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range succ(n) {
			if _, ok := index[m]; !ok {
				strongconnect(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []string
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if _, ok := index[n]; !ok {
			strongconnect(n)
		}
	}

	f.cycles = nil
	for _, scc := range sccs {
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		var member []lockEdge
		for _, from := range scc {
			for _, to := range succ(from) {
				if inSCC[to] {
					member = append(member, edges[from][to])
				}
			}
		}
		// Single nodes without a self-edge are not cycles.
		if len(scc) == 1 && len(member) == 0 {
			continue
		}
		sort.Slice(member, func(i, j int) bool { return member[i].pos < member[j].pos })
		var b strings.Builder
		fmt.Fprintf(&b, "lock-order cycle among %s:", strings.Join(scc, ", "))
		for i, e := range member {
			if i > 0 {
				b.WriteString(";")
			}
			p := f.fset.Position(e.pos)
			if e.via != "" {
				fmt.Fprintf(&b, " %s -> %s via %s (%s:%d)", e.from, e.to, e.via, p.Filename, p.Line)
			} else {
				fmt.Fprintf(&b, " %s -> %s (%s:%d)", e.from, e.to, p.Filename, p.Line)
			}
		}
		b.WriteString("; inconsistent acquisition order can deadlock")
		f.cycles = append(f.cycles, lockCycle{pos: member[0].pos, rel: member[0].rel, msg: b.String()})
	}
	sort.Slice(f.cycles, func(i, j int) bool { return f.cycles[i].pos < f.cycles[j].pos })
}
