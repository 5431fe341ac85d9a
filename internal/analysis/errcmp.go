package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ErrCmp enforces the typed-error protocol established in PR 1: the
// engine's sentinel errors (core.ErrModel*, core.ErrNotTrained,
// genetic.ErrEvalPanic/ErrCancelled, regress.ErrBadInput/ErrSingular,
// serve.ErrClosed, ...) travel through fmt.Errorf("...: %w", err) wrapping,
// so they MUST be matched with errors.Is — a == against the sentinel goes
// silently false the moment any layer wraps. Flagged:
//
//   - ==/!= where either operand is a package-level Err* sentinel (or
//     context.Canceled / context.DeadlineExceeded, which the search wraps);
//   - switch statements whose tag is an error compared against sentinels;
//   - fmt.Errorf calls that format an error argument with a verb other
//     than %w, which severs the errors.Is chain.
var ErrCmp = &Analyzer{
	Name: "errcmp",
	Doc:  "sentinel errors must be matched with errors.Is and wrapped with %w",
	Run:  runErrCmp,
}

// isSentinelErr reports whether e denotes a package-level sentinel error
// variable: an error-typed var named Err* (any package), or the context
// package's cancellation sentinels.
func isSentinelErr(pass *Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	v, ok := pass.Info.ObjectOf(id).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() || !isErrorType(v.Type()) {
		return false
	}
	if strings.HasPrefix(v.Name(), "Err") {
		return true
	}
	return v.Pkg().Path() == "context" &&
		(v.Name() == "Canceled" || v.Name() == "DeadlineExceeded")
}

func runErrCmp(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, op := range []ast.Expr{n.X, n.Y} {
					if isSentinelErr(pass, op) {
						pass.Reportf(n.Pos(),
							"%s compared with %s; wrapped errors make == silently false — use errors.Is",
							n.Op, exprText(op))
						break
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil || !isErrorType(pass.TypeOf(n.Tag)) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, v := range cc.List {
						if isSentinelErr(pass, v) {
							pass.Reportf(v.Pos(),
								"switch on error compares %s with ==; use if errors.Is chains instead",
								exprText(v))
						}
					}
				}
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			}
			return true
		})
	}
}

// checkErrorfWrap flags fmt.Errorf calls that format an error value with a
// verb other than %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.Info.ObjectOf(sel.Sel)
	if !isFromPkg(obj, "fmt") || obj.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs, ok := formatVerbs(constant.StringVal(tv.Value))
	if !ok {
		return
	}
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) || verb == 'w' {
			continue
		}
		arg := call.Args[argIdx]
		if t := pass.TypeOf(arg); t != nil && isErrorType(t) {
			pass.Reportf(arg.Pos(),
				"error %s wrapped with %%%c; use %%w so errors.Is still matches the sentinel through the wrap",
				exprText(arg), verb)
		}
	}
}

// formatVerbs returns, in order, the verb consuming each variadic argument
// of a Printf-style format string. '*' width/precision arguments are
// represented as '*'. ok is false for formats the parser does not model
// (explicit argument indexes).
func formatVerbs(format string) (verbs []rune, ok bool) {
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		// flags
		for i < len(rs) && strings.ContainsRune("+-# 0", rs[i]) {
			i++
		}
		// width
		for i < len(rs) && (rs[i] == '*' || (rs[i] >= '0' && rs[i] <= '9')) {
			if rs[i] == '*' {
				verbs = append(verbs, '*')
			}
			i++
		}
		// precision
		if i < len(rs) && rs[i] == '.' {
			i++
			for i < len(rs) && (rs[i] == '*' || (rs[i] >= '0' && rs[i] <= '9')) {
				if rs[i] == '*' {
					verbs = append(verbs, '*')
				}
				i++
			}
		}
		if i >= len(rs) {
			break
		}
		switch rs[i] {
		case '%':
			// literal percent, consumes nothing
		case '[':
			return nil, false // explicit argument index: out of scope
		default:
			verbs = append(verbs, rs[i])
		}
	}
	return verbs, true
}
