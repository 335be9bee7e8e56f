package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Locksafe enforces the staging protocol's lock discipline in
// internal/core — the exact shapes behind the PR-1 singleIO/multiIO
// races:
//
//   - a mutex (sim.Mutex or sync.Mutex) held across a channel
//     send/receive or select, which in the cooperative simulation is a
//     lost-wakeup/deadlock shape;
//   - Cond.Wait without holding the condition's owning mutex, or while
//     additionally holding an unrelated mutex (Wait releases only its
//     own lock, so anything else stays held across the park); Cond.Join,
//     a Drive step's half of Wait, is held to the same rule and
//     releases the owning mutex;
//   - unlock-path divergence: a return with a mutex still held and no
//     deferred unlock, i.e. one exit path forgets the unlock that the
//     others perform.
//
// A Drive step's stepped-acquisition guard (steppedAcquire) counts as a
// Lock of its mutex: recursion is reported, and the mutex is held after
// the guard. The guard's own return parks the process, so it is not an
// exit path.
//
// The tracking is per-function and source-ordered with branch cloning —
// an approximation, but one tuned to the protocol code's shapes; the
// documented escape hatch for a deliberate pattern is
// //hmlint:ignore locksafe <reason>.
var Locksafe = &Analyzer{
	Name:  "locksafe",
	Doc:   "flag mutexes held across blocking operations, condvar misuse, and divergent unlock paths in internal/core",
	Match: func(rel string) bool { return matchPrefix(rel, "internal/core") },
	Run:   runLocksafe,
}

func runLocksafe(p *Pass) {
	condOwners := condOwnerMap(p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{p: p, condOwner: condOwners}
			w.walkBody(fd.Body.List, newLockState())
		}
	}
}

// condOwnerMap pairs condition variables with their owning mutexes from
// the package's sim.NewCond(&mu) assignments; it is the sim-only view
// of the shared newCondOwners helper (waitloop.go).
func condOwnerMap(p *Pass) map[string]string {
	return newCondOwners(p, "internal/sim")
}

// lockState is the walker's held-mutex bookkeeping at one program
// point. Keys are canonical receiver strings (s.ioMu[i]); deferred keys
// have an unlock scheduled at function exit.
type lockState struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newLockState() *lockState {
	return &lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	for k := range st.deferred {
		c.deferred[k] = true
	}
	return c
}

type lockWalker struct {
	p         *Pass
	condOwner map[string]string
}

// isMutex reports whether e has mutex type (sim.Mutex or sync.Mutex).
func (w *lockWalker) isMutex(e ast.Expr) bool {
	t := w.p.TypeOf(e)
	return isNamedType(t, "internal/sim", "Mutex") || isNamedType(t, "sync", "Mutex") ||
		isNamedType(t, "sync", "RWMutex")
}

// isCond reports whether e has condition-variable type.
func (w *lockWalker) isCond(e ast.Expr) bool {
	t := w.p.TypeOf(e)
	return isNamedType(t, "internal/sim", "Cond") || isNamedType(t, "sync", "Cond")
}

// walkBody processes statements in source order, mutating st; it
// returns true when the statement list always terminates (return,
// panic) before falling through.
func (w *lockWalker) walkBody(stmts []ast.Stmt, st *lockState) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(s ast.Stmt, st *lockState) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.walkExpr(s.X, st)
	case *ast.SendStmt:
		w.reportChanOp(s.Pos(), st)
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
		if recv := selectorCall(s.Call, "Unlock"); recv != nil && w.isMutex(recv) {
			st.deferred[exprString(recv)] = true
			return false
		}
		// Other deferred calls: scan for channel ops in a fresh context.
		w.walkFuncLitArgs(s.Call)
	case *ast.GoStmt:
		w.walkFuncLitArgs(s.Call)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, st)
		}
		for key, pos := range st.held {
			if !st.deferred[key] {
				w.p.Reportf(s.Pos(),
					"return with mutex %s still held (locked at %s); unlock on every path or defer the unlock",
					key, w.p.Fset.Position(pos))
			}
		}
		return true
	case *ast.BlockStmt:
		return w.walkBody(s.List, st)
	case *ast.IfStmt:
		if call, recv := steppedAcquire(s); recv != nil && w.isMutex(recv) {
			w.lock(call, recv, st)
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
		merge(st, thenSt, thenTerm, elseSt, elseTerm)
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
		w.reportChanOp(s.Pos(), st)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkBody(cc.Body, st.clone())
			}
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	}
	return false
}

// merge computes the fall-through state after a branch: a mutex counts
// as held only when every falling-through path holds it (intersection),
// which under-approximates but never manufactures a false "still held".
func merge(st, thenSt *lockState, thenTerm bool, elseSt *lockState, elseTerm bool) {
	exits := make([]*lockState, 0, 2)
	if !thenTerm {
		exits = append(exits, thenSt)
	}
	if !elseTerm {
		exits = append(exits, elseSt)
	}
	if len(exits) == 0 {
		return // unreachable continuation; keep entry state
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
	for _, e := range exits {
		for k := range e.deferred {
			st.deferred[k] = true
		}
	}
}

// walkExpr scans an expression for lock-protocol calls and channel
// receives.
func (w *lockWalker) walkExpr(e ast.Expr, st *lockState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A function literal runs in its own context (worker or IO
			// process body); analyse it with a fresh state.
			w.walkBody(n.Body.List, newLockState())
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportChanOp(n.Pos(), st)
			}
		case *ast.CallExpr:
			w.handleCall(n, st)
		}
		return true
	})
}

// walkFuncLitArgs analyses function-literal arguments of a go/defer
// call in a fresh context.
func (w *lockWalker) walkFuncLitArgs(call *ast.CallExpr) {
	for _, a := range call.Args {
		if fl, ok := a.(*ast.FuncLit); ok {
			w.walkBody(fl.Body.List, newLockState())
		}
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		w.walkBody(fl.Body.List, newLockState())
	}
}

func (w *lockWalker) handleCall(call *ast.CallExpr, st *lockState) {
	if recv := selectorCall(call, "Lock"); recv != nil && w.isMutex(recv) {
		w.lock(call, recv, st)
		return
	}
	if recv := selectorCall(call, "Unlock"); recv != nil && w.isMutex(recv) {
		delete(st.held, exprString(recv))
		return
	}
	if recv := selectorCall(call, "Wait"); recv != nil && w.isCond(recv) {
		w.checkCondWait(call, recv, st)
		return
	}
	if recv := selectorCall(call, "Join"); recv != nil && w.isCond(recv) {
		w.checkCondWait(call, recv, st)
		if owner, known := w.condOwner[baseName(recv)]; known {
			for key := range st.held {
				if keyBase(key) == owner {
					delete(st.held, key)
				}
			}
		}
		return
	}
}

// lock records that call acquires the mutex recv, reporting a recursive
// acquisition.
func (w *lockWalker) lock(call *ast.CallExpr, recv ast.Expr, st *lockState) {
	key := exprString(recv)
	if pos, ok := st.held[key]; ok {
		w.p.Reportf(call.Pos(),
			"recursive lock of %s (already locked at %s)", key, w.p.Fset.Position(pos))
	}
	st.held[key] = call.Pos()
}

// steppedAcquire matches the stepped-acquisition guard of a
// sim.Proc.Drive step,
//
//	if !m.Acquire(p, &s) {
//		return false
//	}
//
// and returns its Acquire call and m, or nils for any other statement.
// Falling through the guard leaves m held. Its return parks the process
// until the next step, so the locks held there stay held: it is not an
// exit path.
func steppedAcquire(s *ast.IfStmt) (*ast.CallExpr, ast.Expr) {
	if s.Init != nil || s.Else != nil || len(s.Body.List) != 1 {
		return nil, nil
	}
	if _, ok := s.Body.List[0].(*ast.ReturnStmt); !ok {
		return nil, nil
	}
	not, ok := ast.Unparen(s.Cond).(*ast.UnaryExpr)
	if !ok || not.Op != token.NOT {
		return nil, nil
	}
	call, ok := ast.Unparen(not.X).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	if recv := selectorCall(call, "Acquire"); recv != nil {
		return call, recv
	}
	return nil, nil
}

// checkCondWait verifies that the cond's owning mutex — resolved from
// the package's NewCond(&mu) pairings — is held, and that nothing else
// is.
func (w *lockWalker) checkCondWait(call *ast.CallExpr, recv ast.Expr, st *lockState) {
	owner, known := w.condOwner[baseName(recv)]
	keys := make([]string, 0, len(st.held))
	for key := range st.held {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ownerHeld := false
	for _, key := range keys {
		base := keyBase(key)
		if known && base == owner {
			ownerHeld = true
			continue
		}
		w.p.Reportf(call.Pos(),
			"mutex %s held across %s.Wait, which parks without releasing it", key, exprString(recv))
	}
	if known && !ownerHeld {
		w.p.Reportf(call.Pos(),
			"%s.Wait without holding its mutex %s", exprString(recv), owner)
	}
}

// keyBase extracts a held-key's base name: keys come from exprString,
// so the base is the last selector segment before any index
// ("s.ioMu[i]" -> "ioMu").
func keyBase(key string) string {
	if i := strings.IndexByte(key, '['); i >= 0 {
		key = key[:i]
	}
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		key = key[i+1:]
	}
	return key
}

// reportChanOp flags a channel operation while any mutex is held.
func (w *lockWalker) reportChanOp(pos token.Pos, st *lockState) {
	for key := range st.held {
		w.p.Reportf(pos, "channel operation while mutex %s is held; move the send/receive outside the critical section", key)
	}
}
