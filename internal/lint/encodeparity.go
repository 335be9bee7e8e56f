package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// EncodeParity guards the hand-rolled fast trace codec against the one
// way it rots: someone adds a field to an event struct in trace.go,
// encoding/json picks it up reflectively, and the fast path keeps the
// old shape. On the encoder side the appendEvent type switch keeps
// emitting the old bytes, and the byte-identity contract between the
// fast and reflective paths (and the TestEncodeFastParity table)
// breaks only for captures that exercise that event. On the decoder
// side decodeFast keeps reading the old key sequence, so every line
// that carries the field silently declines to the slow reflective
// path.
//
// The check is structural. Inside every `append*` function of the
// trace package, each type-switch case over a pointer-to-struct event
// must mention every encodable field of that struct (exported, not
// json:"-") on the case variable. Structs absent from the switch are
// fine — they take the reflective slow path by design (Meta, Retune,
// Stats carry maps and interface values). Inside every `decode*`
// function, each keyed composite literal of a struct declared in the
// package must key every such field.
var EncodeParity = &Analyzer{
	Name: "encodeparity",
	Doc:  "require fast-path trace encoder cases and decoder literals to cover every encodable field of their event struct",
	Match: func(rel string) bool {
		return matchPrefix(rel, "internal/trace")
	},
	Run: runEncodeParity,
}

func runEncodeParity(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch name := fd.Name.Name; {
			case strings.HasPrefix(name, "append"):
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if ts, ok := n.(*ast.TypeSwitchStmt); ok {
						checkEncodeSwitch(p, ts)
					}
					return true
				})
			case strings.HasPrefix(name, "decode"):
				checkDecodeLiterals(p, fd.Body)
			}
		}
	}
}

// checkDecodeLiterals reports each keyed composite literal of a
// package struct in body that leaves an encodable field unkeyed. The
// fast decoder builds each event in one keyed literal, so a field it
// does not key is a field it does not read. An unkeyed literal lists
// every field.
func checkDecodeLiterals(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		st := eventStruct(p, lit)
		if st == nil {
			return true
		}
		set := make(map[string]bool)
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				set[id.Name] = true
			}
		}
		tn := namedFrom(p.TypeOf(lit))
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if fld.Exported() && !jsonSkipped(st.Tag(i)) && !set[fld.Name()] {
				p.Reportf(lit.Pos(),
					"fast-path decoder literal for %s does not set field %s; lines carrying it fall back to the reflective decoder",
					tn.Obj().Name(), fld.Name())
			}
		}
		return true
	})
}

func checkEncodeSwitch(p *Pass, ts *ast.TypeSwitchStmt) {
	// The case variable from `switch ev := e.(type)`; the loader's Info
	// has no Implicits map, so case-body references are matched by
	// identifier name.
	varName := ""
	if as, ok := ts.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			varName = id.Name
		}
	}
	if varName == "" {
		return
	}
	for _, c := range ts.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok || len(cc.List) != 1 {
			// Multi-type cases can only touch the common interface, not
			// struct fields; they are not per-field encoders.
			continue
		}
		st := eventStruct(p, cc.List[0])
		if st == nil {
			continue
		}
		used := make(map[string]bool)
		for _, s := range cc.Body {
			ast.Inspect(s, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == varName {
					used[sel.Sel.Name] = true
				}
				return true
			})
		}
		tn := namedFrom(p.TypeOf(cc.List[0]))
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if !fld.Exported() || jsonSkipped(st.Tag(i)) {
				continue
			}
			if !used[fld.Name()] {
				p.Reportf(cc.Pos(),
					"fast-path encoder case for %s does not reference field %s; the fast and reflective encodings diverge",
					tn.Obj().Name(), fld.Name())
			}
		}
	}
}

// eventStruct returns the struct type behind a `case *T:` expression
// when T is declared in the package under analysis, else nil.
func eventStruct(p *Pass, e ast.Expr) *types.Struct {
	n := namedFrom(p.TypeOf(e))
	if n == nil || n.Obj().Pkg() != p.Pkg {
		return nil
	}
	st, _ := n.Underlying().(*types.Struct)
	return st
}

// jsonSkipped reports whether a struct tag opts the field out of JSON.
func jsonSkipped(tag string) bool {
	v, ok := lookupTag(tag, "json")
	return ok && (v == "-" || strings.HasPrefix(v, "-,"))
}

// lookupTag is reflect.StructTag.Lookup without importing reflect's
// value machinery into the analyzer.
func lookupTag(tag, key string) (string, bool) {
	for tag != "" {
		i := 0
		for i < len(tag) && tag[i] == ' ' {
			i++
		}
		tag = tag[i:]
		if tag == "" {
			break
		}
		i = 0
		for i < len(tag) && tag[i] > ' ' && tag[i] != ':' && tag[i] != '"' {
			i++
		}
		if i == 0 || i+1 >= len(tag) || tag[i] != ':' || tag[i+1] != '"' {
			break
		}
		name := tag[:i]
		tag = tag[i+1:]
		i = 1
		for i < len(tag) && tag[i] != '"' {
			if tag[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(tag) {
			break
		}
		val := tag[1:i]
		tag = tag[i+1:]
		if name == key {
			return val, true
		}
	}
	return "", false
}
