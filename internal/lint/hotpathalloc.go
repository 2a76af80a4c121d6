package lint

// hotpathalloc proves the zero-alloc property of the training and serving
// hot paths at review time, complementing the AllocsPerRun==0 runtime pins
// from the perf harness. Entry points carry a `//kgelint:hotpath` doc
// directive (the trainer's per-triple body and row seam, the exchangers,
// gradient quantize/decode, the serve batcher dispatch); the analyzer walks
// every function in the same package reachable from them through static
// calls and flags allocating constructs:
//
//   - make (slice/map/chan)
//   - append (may grow beyond cap)
//   - new
//   - slice or map composite literals
//   - calls into package fmt (formatting boxes arguments and builds strings)
//   - go statements (each spawn allocates a stack)
//
// Amortized warm-up allocation is the whole point of the pool/scratch
// design, so three exemptions keep the signal honest:
//
//   - a make/append under an if whose condition inspects cap/len or
//     compares against nil is a lazy-grow guard (allocates until warm, then
//     never again);
//   - an append whose base shows package-wide reuse evidence — the same
//     expression is truncated (`x = x[:...]`), rebuilt from zero length
//     (`append(x[:0], ...)`), or cap-guarded anywhere in the package — is
//     an amortized freelist/builder idiom;
//   - fmt calls inside panic arguments only run when the process is about
//     to die.
//
// A callee that is genuinely cold (error paths, constructors reached only
// through lazy-init guards) opts out of the walk with `//kgelint:coldpath`
// plus a rationale.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc flags allocating constructs reachable from
// //kgelint:hotpath entry points.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "walk functions reachable from //kgelint:hotpath entry points and flag " +
		"allocating constructs (make, append beyond cap, new, slice/map literals, fmt, " +
		"go) outside lazy-grow guards and reuse-evidenced append idioms",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	var entries []*types.Func
	cold := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			switch funcDirective(fd) {
			case "hotpath":
				entries = append(entries, fn)
			case "coldpath":
				cold[fn] = true
			}
		}
	}
	if len(entries) == 0 {
		return nil
	}

	// Reachability over static intra-package calls, stopping at coldpath.
	reach := map[*types.Func]bool{}
	queue := append([]*types.Func(nil), entries...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if reach[fn] {
			continue
		}
		reach[fn] = true
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || cold[callee] || reach[callee] {
				return true
			}
			if _, local := decls[callee]; local {
				queue = append(queue, callee)
			}
			return true
		})
	}

	evidence := reuseEvidence(pass)
	for fn := range reach {
		w := &hpFunc{pass: pass, evidence: evidence, fn: fn}
		w.scan(decls[fn].Body)
	}
	return nil
}

// funcDirective returns "hotpath", "coldpath" or "" from fd's doc comment.
func funcDirective(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		switch {
		case text == "kgelint:hotpath" || strings.HasPrefix(text, "kgelint:hotpath "):
			return "hotpath"
		case text == "kgelint:coldpath" || strings.HasPrefix(text, "kgelint:coldpath "):
			return "coldpath"
		}
	}
	return ""
}

// reuseEvidence collects the printed expressions the package demonstrably
// reuses: truncated in place, rebuilt from zero length, or cap-inspected.
func reuseEvidence(pass *Pass) map[string]bool {
	ev := map[string]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					se, ok := ast.Unparen(n.Rhs[i]).(*ast.SliceExpr)
					if !ok {
						continue
					}
					l, b := types.ExprString(lhs), types.ExprString(se.X)
					if l == b {
						ev[l] = true // x = x[:n] truncation
					}
				}
			case *ast.CallExpr:
				switch builtinName(pass, n) {
				case "append":
					if len(n.Args) > 0 {
						if se, ok := ast.Unparen(n.Args[0]).(*ast.SliceExpr); ok && isZeroLow(se) {
							ev[types.ExprString(se.X)] = true // append(x[:0], ...)
						}
					}
				case "cap":
					if len(n.Args) == 1 {
						ev[types.ExprString(n.Args[0])] = true // cap(x) inspected
					}
				}
			}
			return true
		})
	}
	return ev
}

// builtinName returns the builtin a call invokes ("make", "append", ...) or
// "".
func builtinName(pass *Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

func isZeroLow(se *ast.SliceExpr) bool {
	if se.Max != nil || se.Slice3 || se.High == nil {
		return false
	}
	lit, ok := ast.Unparen(se.High).(*ast.BasicLit)
	return ok && lit.Value == "0" && se.Low == nil
}

type posRange struct{ lo, hi token.Pos }

func inRanges(rs []posRange, p token.Pos) bool {
	for _, r := range rs {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

type hpFunc struct {
	pass     *Pass
	evidence map[string]bool
	fn       *types.Func

	guarded []posRange // bodies of lazy-grow guards
	inPanic []posRange // argument spans of panic calls
}

// scan walks one reachable function body and reports allocations.
func (w *hpFunc) scan(body *ast.BlockStmt) {
	// Pass 1: exemption regions.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if isGrowGuard(n) {
				// Both arms are exempt: whether the guard allocates when
				// capacity is short or when the freelist is empty, the
				// other path reuses, so the allocation amortizes away.
				w.guarded = append(w.guarded, posRange{n.Body.Pos(), n.Body.End()})
				if n.Else != nil {
					w.guarded = append(w.guarded, posRange{n.Else.Pos(), n.Else.End()})
				}
			}
		case *ast.CallExpr:
			if isPanicCall(n) {
				w.inPanic = append(w.inPanic, posRange{n.Lparen, n.Rparen + 1})
			}
		}
		return true
	})
	// Pass 2: allocating constructs.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n)
		case *ast.CompositeLit:
			switch w.pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				w.reportf(n, "slice literal allocates")
			case *types.Map:
				w.reportf(n, "map literal allocates")
			}
		case *ast.GoStmt:
			w.reportf(n, "go statement allocates a goroutine stack per call")
		}
		return true
	})
}

// isGrowGuard reports whether an if statement is a lazy-grow guard: its
// init or condition inspects cap or len, or compares something against
// nil (`if cap(x) < n`, `if n := len(x); n > 0`, `if x == nil`).
func isGrowGuard(stmt *ast.IfStmt) bool {
	guard := false
	inspect := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				guard = true
			}
		case *ast.BinaryExpr:
			if op := n.Op.String(); op == "==" || op == "!=" {
				for _, side := range []ast.Expr{n.X, n.Y} {
					if id, ok := ast.Unparen(side).(*ast.Ident); ok && id.Name == "nil" {
						guard = true
					}
				}
			}
		}
		return true
	}
	if stmt.Init != nil {
		ast.Inspect(stmt.Init, inspect)
	}
	ast.Inspect(stmt.Cond, inspect)
	return guard
}

func (w *hpFunc) reportf(n ast.Node, what string) {
	w.pass.Reportf(n.Pos(), "hot path (reachable from //kgelint:hotpath) %s; hoist to setup, reuse a pooled/scratch buffer, or mark the function //kgelint:coldpath with a rationale", what)
}

func (w *hpFunc) call(call *ast.CallExpr) {
	switch builtinName(w.pass, call) {
	case "make":
		if !inRanges(w.guarded, call.Pos()) {
			w.reportf(call, "calls make")
		}
		return
	case "new":
		if !inRanges(w.guarded, call.Pos()) {
			w.reportf(call, "calls new")
		}
		return
	case "append":
		if inRanges(w.guarded, call.Pos()) || len(call.Args) == 0 {
			return
		}
		base := ast.Unparen(call.Args[0])
		if se, ok := base.(*ast.SliceExpr); ok {
			if isZeroLow(se) || w.evidence[types.ExprString(se.X)] {
				return
			}
		}
		if w.evidence[types.ExprString(base)] {
			return
		}
		w.reportf(call, "append may grow beyond cap")
		return
	}
	if f := calleeFunc(w.pass, call); f != nil && funcPkgPath(f) == "fmt" {
		if !inRanges(w.inPanic, call.Pos()) {
			w.reportf(call, "calls fmt."+f.Name()+" which formats and allocates")
		}
	}
}
