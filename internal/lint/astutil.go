package lint

// Shared AST/type resolution helpers for the analyzers.

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the function or method object a call invokes, or nil
// for calls through function-typed variables, conversions and built-ins.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (e.g. time.Now).
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package declaring f ("" for
// builtins and error.Error).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isMethodOn reports whether f is a method whose receiver's named type is
// typeName declared in a package whose import path ends with pkgSuffix.
func isMethodOn(f *types.Func, pkgSuffix, typeName string) bool {
	if f == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// blockTerminates reports whether the block's final statement leaves the
// enclosing statement list: return, break/continue/goto, or panic.
func blockTerminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := ast.Unparen(last.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// enclosingFuncNames returns the names of all declared functions and methods
// in the package's files, keyed by the half-open position interval of their
// bodies. Used to exempt approved helpers by name.
type funcSpan struct {
	name   string
	lo, hi int
}

func declaredFuncSpans(pass *Pass) []funcSpan {
	var spans []funcSpan
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			spans = append(spans, funcSpan{
				name: fd.Name.Name,
				lo:   int(fd.Body.Pos()),
				hi:   int(fd.Body.End()),
			})
		}
	}
	return spans
}
