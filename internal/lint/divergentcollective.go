package lint

// divergentcollective catches the classic MPI deadlock: a collective call
// (AllReduceSum, AllGatherRows, ReduceScatterEncoded, ...) that only some
// ranks reach because control flow branched on rank-local data. internal/mpi's
// collectives all end in a full-world rendezvous, so a single diverging rank
// hangs every other rank forever — in CI that used to mean a 10-minute
// timeout with no diagnostic. The analyzer flags collective calls that are
// (a) lexically inside a conditional whose condition depends on the rank, or
// (b) downstream of a rank-dependent early exit in the same block.
//
// The mpi package itself is exempt: the collective *implementations*
// legitimately branch on rank (tree and ring algorithms) under the cover of
// their own rendezvous discipline.

import (
	"go/ast"
	"go/types"
	"strings"
)

// DivergentCollective flags mpi collectives guarded by rank-dependent
// control flow.
var DivergentCollective = &Analyzer{
	Name: "divergentcollective",
	Doc: "flag mpi collective calls inside conditionals or after early exits " +
		"that depend on rank-local data (divergent-collective deadlock)",
	Run: runDivergentCollective,
}

func runDivergentCollective(pass *Pass) error {
	if pass.Pkg.Name() == "mpi" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &dcWalker{pass: pass, rankVars: map[types.Object]bool{}}
			w.collectRankVars(fd.Body)
			w.walkStmts(fd.Body.List, false)
		}
	}
	return nil
}

type dcWalker struct {
	pass *Pass
	// rankVars are local variables assigned (directly) from Comm.Rank().
	rankVars map[types.Object]bool
}

// collectRankVars records `r := c.Rank()`-style bindings in the function.
func (w *dcWalker) collectRankVars(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			if !w.exprUsesRank(rhs, false) {
				continue
			}
			if id, ok := asg.Lhs[i].(*ast.Ident); ok {
				if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
					w.rankVars[obj] = true
				} else if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
					w.rankVars[obj] = true
				}
			}
		}
		return true
	})
}

// exprUsesRank reports whether expr depends on rank-local identity: a call
// to Comm.Rank, a variable assigned from it, or (heuristically) an
// identifier named "rank". followVars additionally matches the recorded
// rank-derived variables.
func (w *dcWalker) exprUsesRank(expr ast.Expr, followVars bool) bool {
	if expr == nil {
		return false
	}
	dep := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := calleeFunc(w.pass, n); f != nil && f.Name() == "Rank" &&
				isMethodOn(f, "internal/mpi", "Comm") {
				dep = true
				return false
			}
		case *ast.Ident:
			if strings.EqualFold(n.Name, "rank") {
				dep = true
				return false
			}
			if followVars {
				if obj := w.pass.TypesInfo.Uses[n]; obj != nil && w.rankVars[obj] {
					dep = true
					return false
				}
			}
		}
		return true
	})
	return dep
}

func (w *dcWalker) condIsRankDependent(expr ast.Expr) bool {
	return w.exprUsesRank(expr, true)
}

// walkStmts traverses a statement list. divergent means control flow
// reaching these statements already depends on rank-local data.
func (w *dcWalker) walkStmts(stmts []ast.Stmt, divergent bool) {
	diverged := divergent
	for _, s := range stmts {
		w.walkStmt(s, diverged)
		// A rank-dependent guard that exits early makes everything after it
		// in this block conditionally reachable.
		if ifs, ok := s.(*ast.IfStmt); ok && !diverged {
			if w.condIsRankDependent(ifs.Cond) && blockTerminates(ifs.Body) {
				diverged = true
			}
		}
	}
}

func (w *dcWalker) walkStmt(s ast.Stmt, divergent bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(s.List, divergent)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, divergent)
		}
		w.reportCollectives(s.Cond, divergent)
		branchDiv := divergent || w.condIsRankDependent(s.Cond)
		w.walkStmts(s.Body.List, branchDiv)
		if s.Else != nil {
			w.walkStmt(s.Else, branchDiv)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, divergent)
		}
		bodyDiv := divergent || w.condIsRankDependent(s.Cond)
		w.walkStmts(s.Body.List, bodyDiv)
	case *ast.RangeStmt:
		w.walkStmts(s.Body.List, divergent)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, divergent)
		}
		tagDiv := divergent || (s.Tag != nil && w.condIsRankDependent(s.Tag))
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseDiv := tagDiv
			for _, e := range cc.List {
				if w.condIsRankDependent(e) {
					caseDiv = true
				}
			}
			w.walkStmts(cc.Body, caseDiv)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CaseClause).Body, divergent)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CommClause).Body, divergent)
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, divergent)
	default:
		// Leaf statements: scan their expressions for collective calls and
		// enter function literals with a fresh context (their bodies run
		// under their caller's control flow, not this statement's).
		w.scanLeaf(s, divergent)
	}
}

func (w *dcWalker) scanLeaf(s ast.Stmt, divergent bool) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(n.Body.List, false)
			return false
		case *ast.CallExpr:
			w.reportIfCollective(n, divergent)
		}
		return true
	})
}

// reportCollectives flags collective calls buried inside an expression
// (e.g. an if-condition) when already divergent.
func (w *dcWalker) reportCollectives(expr ast.Expr, divergent bool) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			w.walkStmts(fl.Body.List, false)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.reportIfCollective(call, divergent)
		}
		return true
	})
}

func (w *dcWalker) reportIfCollective(call *ast.CallExpr, divergent bool) {
	if !divergent {
		return
	}
	// A collective is any Comm method with an error result: every one of
	// them ends in a rendezvous (collectiveerr applies the same rule).
	f := calleeFunc(w.pass, call)
	if f == nil || !isMethodOn(f, "internal/mpi", "Comm") || collectiveErrIndex(w.pass, call) < 0 {
		return
	}
	w.pass.Reportf(call.Pos(),
		"mpi collective %s reached under rank-dependent control flow: every rank must make the same collective calls in the same order or the rendezvous deadlocks", f.Name())
}
