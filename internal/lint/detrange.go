package lint

// detrange: map iteration order and multi-ready selects must never
// reach simulated state (DESIGN.md, "Determinism and arbitration
// order"). Go randomizes map iteration per run and select picks a
// ready case pseudo-randomly, so either one on a simulation path makes
// naive/event/dist runs diverge bit-for-bit.
//
// One idiom is recognized as deterministic without annotation: a range
// whose body only collects the keys into a slice that is then passed to
// a sort.* / slices.Sort* call later in the same function. Anything
// else needs `//mlint:allow detrange <reason>`.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetRange reports map ranges and multi-ready selects in
// simulation-critical packages.
var DetRange = &Analyzer{
	Name:      "detrange",
	Doc:       "no map-iteration order or select arbitration on simulation-critical paths",
	Invariant: "map iteration order and select arbitration must not reach simulated state",
	Section:   "Determinism and arbitration order",
	Run:       runDetRange,
}

func runDetRange(m *Module, report Reporter) {
	for _, pkg := range m.Pkgs {
		if !pkgIn(pkg.Path, simCritical) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkDetRangeFunc(pkg, fd, report)
			}
		}
	}
}

func checkDetRangeFunc(pkg *Package, fd *ast.FuncDecl, report Reporter) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			tv, ok := pkg.Info.Types[s.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedKeyCollection(pkg, fd, s) {
				return true
			}
			report(s.For, "range over map %s iterates in randomized order", types.ExprString(s.X))
		case *ast.SelectStmt:
			ready := 0
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					ready++
				}
			}
			if ready >= 2 {
				report(s.Select, "select with %d communication cases arbitrates pseudo-randomly when several are ready", ready)
			}
		}
		return true
	})
}

// sortedKeyCollection recognizes
//
//	for k := range m { keys = append(keys, k) }
//	...
//	sort.X(keys...) / slices.SortX(keys...)
//
// — the key-collection half of the canonical sorted-iteration idiom —
// and accepts it when the collected slice reaches a sort call after the
// loop in the same function.
func sortedKeyCollection(pkg *Package, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || objOf(pkg, arg0) == nil || objOf(pkg, arg0) != objOf(pkg, dst) {
		return false
	}
	// The appended value must involve the key (possibly via conversion).
	usesKey := false
	for _, a := range call.Args[1:] {
		ast.Inspect(a, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && objOf(pkg, id) == objOf(pkg, key) && objOf(pkg, key) != nil {
				usesKey = true
			}
			return true
		})
	}
	if !usesKey {
		return false
	}
	return sortedAfter(pkg, fd, objOf(pkg, dst), rs.End())
}

// sortedAfter reports whether the slice object is passed to a
// sort./slices. call positioned after pos within the function.
func sortedAfter(pkg *Package, fd *ast.FuncDecl, slice types.Object, pos token.Pos) bool {
	if slice == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn, ok := pkg.Info.Uses[selIdent(sel.X)].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && objOf(pkg, arg) == slice {
			found = true
		}
		return true
	})
	return found
}

// objOf resolves an identifier to its object via uses or defs.
func objOf(pkg *Package, id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if o := pkg.Info.Uses[id]; o != nil {
		return o
	}
	return pkg.Info.Defs[id]
}

func selIdent(x ast.Expr) *ast.Ident {
	id, _ := x.(*ast.Ident)
	return id
}
