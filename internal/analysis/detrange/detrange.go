// Package detrange flags map iteration in the engine's deterministic
// paths whose order can leak into results: Go randomizes map iteration
// order per run, so a `range` over a map that appends to a slice,
// accumulates floating point, writes output, or otherwise leaves an
// order-dependent trace breaks the bit-identical-results guarantee the
// differential suites pin (and the parallelism-invariant transcript
// rides on).
//
// Order-insensitive map loops are fine and not reported: building
// another map, integer counting (x++, integer +=), and the sorted-keys
// idiom (collect the keys, sort them, range the sorted slice). A loop
// that only collects keys into a slice is accepted exactly when the
// enclosing function visibly sorts that slice afterwards.
package detrange

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fast/internal/analysis"
)

// inScope is analysis.InDeterministicScope; a test points it at its
// testdata package.
var inScope = analysis.InDeterministicScope

// Analyzer is the detrange pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc:  "flag map iteration whose order can reach results in deterministic paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path) {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Pkg.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, fd, rs)
				return true
			})
		}
	}
	return nil
}

// checkMapRange reports the first order-sensitive sink found in a
// map-range body.
func checkMapRange(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	c := &checker{
		pass: pass,
		info: info,
		body: rs.Body,
		key:  declObj(info, rs.Key),
		val:  declObj(info, rs.Value),
	}
	// Sorted-keys idiom first: a loop that only collects keys is fine
	// exactly when the function visibly sorts the collected slice.
	if dest := c.keyCollection(); dest != nil {
		if !sortedLater(info, fd, rs, dest) {
			pass.Report(analysis.Diagnostic{Pos: rs.Pos(), Message: fmt.Sprintf(
				"map keys collected into %s but never sorted in this function", dest.Name())})
		}
		return
	}
	if sink := c.firstSink(); sink != "" {
		pass.Report(analysis.Diagnostic{Pos: rs.Pos(), Message: fmt.Sprintf(
			"map iteration order reaches results: %s — iterate sorted keys instead", sink)})
	}
}

type checker struct {
	pass     *analysis.Pass
	info     *types.Info
	body     *ast.BlockStmt
	key, val types.Object
}

// declObj resolves the object a range key/value identifier declares or
// assigns.
func declObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// outer reports whether the identifier's object is declared outside
// the range body — mutations of such state are ordered across
// iterations.
func (c *checker) outer(id *ast.Ident) bool {
	obj := c.info.Uses[id]
	if obj == nil {
		obj = c.info.Defs[id]
	}
	if obj == nil || obj.Pos() == token.NoPos {
		return false
	}
	return obj.Pos() < c.body.Pos() || obj.Pos() > c.body.End()
}

// baseIdent walks an lvalue to its base identifier (x, x.f, x[i], *x).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// usesLoopVars reports whether the expression reads the range key or
// value variables (directly; derived locals are not tracked).
func (c *checker) usesLoopVars(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := c.info.Uses[id]
			if obj != nil && (obj == c.key || obj == c.val) {
				found = true
			}
		}
		return !found
	})
	return found
}

// firstSink scans the loop body for the first order-sensitive effect.
// Function literals are scanned too (they run per-iteration when
// called in the loop), except that return statements inside them
// belong to the literal, not the loop.
func (c *checker) firstSink() string {
	var sink string
	var stack []ast.Node
	ast.Inspect(c.body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			sink = c.assignSink(n)
		case *ast.SendStmt:
			sink = "sends on a channel"
		case *ast.ReturnStmt:
			if !insideFuncLit(stack) {
				sink = "returns from inside the iteration (selects an arbitrary element)"
			}
		case *ast.CallExpr:
			sink = c.callSink(n)
		}
		return sink == ""
	})
	return sink
}

func insideFuncLit(stack []ast.Node) bool {
	for _, n := range stack[:len(stack)-1] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// assignSink classifies one assignment inside the loop body.
func (c *checker) assignSink(as *ast.AssignStmt) string {
	for i, lhs := range as.Lhs {
		base := baseIdent(lhs)
		if base == nil || !c.outer(base) {
			continue
		}
		var rhs ast.Expr
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}

		// append into state that outlives the loop.
		if call, ok := unparenCall(rhs); ok && isAppend(c.info, call) {
			return fmt.Sprintf("appends to %s (slice order follows map order)", base.Name)
		}

		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if isFloat(c.info, lhs) {
				return fmt.Sprintf("accumulates floating point into %s (rounding depends on order)", base.Name)
			}
		case token.ASSIGN:
			switch lhs := lhs.(type) {
			case *ast.IndexExpr:
				if tv, ok := c.info.Types[lhs.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						continue // building a map is order-insensitive per distinct key
					}
				}
				return fmt.Sprintf("writes through %s by index (write order follows map order)", base.Name)
			case *ast.StarExpr:
				return fmt.Sprintf("writes through pointer %s", base.Name)
			default:
				if c.usesLoopVars(rhs) {
					return fmt.Sprintf("assigns a loop-dependent value to %s (last write wins nondeterministically)", base.Name)
				}
			}
		}
	}
	return ""
}

// callSink classifies calls with ordered external effects: writing
// output, or handing a pointer into outer state to a callee.
func (c *checker) callSink(call *ast.CallExpr) string {
	if name, ok := outputCall(c.info, call); ok {
		return fmt.Sprintf("writes output via %s in map order", name)
	}
	for _, arg := range call.Args {
		if un, ok := arg.(*ast.UnaryExpr); ok && un.Op == token.AND {
			if base := baseIdent(un.X); base != nil && c.outer(base) {
				return fmt.Sprintf("passes &%s to a callee (order-dependent mutation)", base.Name)
			}
		}
	}
	return ""
}

// keyCollection reports the destination slice when the loop body is
// exactly `dest = append(dest, key)`.
func (c *checker) keyCollection() types.Object {
	if len(c.body.List) != 1 || c.key == nil {
		return nil
	}
	as, ok := c.body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := unparenCall(as.Rhs[0])
	if !ok || !isAppend(c.info, call) || len(call.Args) != 2 {
		return nil
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || c.info.Uses[arg] != c.key {
		return nil
	}
	dest, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	if o := c.info.Uses[dest]; o != nil {
		return o
	}
	return c.info.Defs[dest]
}

// sortedLater reports whether dest is passed to a sort.* or slices.*
// call after the range statement in the same function.
func sortedLater(info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt, dest types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == dest {
				found = true
			}
		}
		return !found
	})
	return found
}

func unparenCall(e ast.Expr) (*ast.CallExpr, bool) {
	if e == nil {
		return nil, false
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return call, ok
}

func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// outputCall matches fmt print functions and Write-family methods on
// writers/builders/buffers.
func outputCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if s := info.Selections[sel]; s != nil {
		fn, ok := s.Obj().(*types.Func)
		if !ok {
			return "", false
		}
		if strings.HasPrefix(fn.Name(), "Write") {
			if named := recvNamed(s.Recv()); named != "" {
				switch named {
				case "strings.Builder", "bytes.Buffer", "bufio.Writer", "io.Writer", "os.File":
					return named + "." + fn.Name(), true
				}
			}
		}
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", false
	}
	if strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") {
		return "fmt." + fn.Name(), true
	}
	return "", false
}

func recvNamed(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Named:
			if u.Obj().Pkg() == nil {
				return u.Obj().Name()
			}
			return u.Obj().Pkg().Path() + "." + u.Obj().Name()
		case *types.Interface:
			return "io.Writer" // any interface Write method counts
		default:
			return ""
		}
	}
}
