package adaptivetc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// The walker packages: every engine's worker and the serial engine.
var walkerPkgs = []string{"internal/sched", "internal/wsrt", "internal/tascell", "internal/core", "internal/slaw"}

// TestGuards holds rules about where a call may appear in the source. They
// are checked on the syntax tree, so a comment or a string that mentions a
// call is not one, and a call that a grep for one spelling misses is.
func TestGuards(t *testing.T) {
	t.Run("wall_clock_Advance_Yield_and_YieldIdle_only_behind_the_wall_gate", func(t *testing.T) {
		// The wall clock's Advance and Yield are empty; a call costs an
		// interface dispatch per node on Real for nothing (DESIGN §28.2).
		gates := map[string]int{"Walker.Advance": 0, "Walker.Yield": 0, "Worker.yieldIdle": 0}
		for _, fd := range funcDecls(t, walkerPkgs, false) {
			walkCalls(fd.decl.Body, func(call *ast.CallExpr, stack []ast.Node) {
				if !isClockCall(call) {
					return
				}
				pos := fd.fset.Position(call.Pos())
				if _, ok := gates[fd.name]; !ok {
					t.Errorf("%s: %s calls the clock outside Walker.Advance, Walker.Yield and Worker.yieldIdle", pos, fd.name)
					return
				}
				gates[fd.name]++
				if !underWallGate(append(stack[:len(stack):len(stack)], call)) {
					t.Errorf("%s: %s calls the clock outside an `if !…wall` block", pos, fd.name)
				}
			})
		}
		for name, n := range gates {
			if n != 1 {
				t.Errorf("%s makes %d clock calls, want 1", name, n)
			}
		}
	})

	t.Run("moves_charged_per_accepted_child_never_per_candidate", func(t *testing.T) {
		// ChargeMove (one Advance per candidate) stays deleted, anywhere in
		// the module.
		for _, fd := range funcDecls(t, []string{"."}, true) {
			if fd.decl.Name.Name == "ChargeMove" {
				t.Errorf("%s: ChargeMove is declared again", fd.fset.Position(fd.decl.Pos()))
			}
		}
		// Costs.Move is read only by the two chargers, outside any loop; and
		// every charge is of the candidates since from, the first attempt
		// not yet charged, so a loop cannot charge one move at a time.
		readers := map[string]bool{"Walker.ChargeMoves": true, "tworker.levelLoop": true}
		for _, fd := range funcDecls(t, walkerPkgs, false) {
			walk(fd.decl.Body, func(n ast.Node, stack []ast.Node) {
				pos := fd.fset.Position(n.Pos())
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Move" {
					if !readers[fd.name] {
						t.Errorf("%s: %s reads Costs.Move; charge moves through Walker.ChargeMoves", pos, fd.name)
					}
					if inLoop(stack) {
						t.Errorf("%s: %s reads Costs.Move inside a loop", pos, fd.name)
					}
				}
				if call, ok := n.(*ast.CallExpr); ok && isMoveCharge(call) && !sinceFrom(call) {
					t.Errorf("%s: %s charges moves by an amount other than `… - from`", pos, fd.name)
				}
			})
		}
	})
}

type funcDecl struct {
	fset *token.FileSet
	name string // "Recv.Name" for a method, "Name" for a function
	decl *ast.FuncDecl
}

// funcDecls parses the Go files under dirs (recursively), test files only
// when tests is set, and returns every function declaration with a body.
func funcDecls(t *testing.T, dirs []string, tests bool) []funcDecl {
	t.Helper()
	fset := token.NewFileSet()
	var out []funcDecl
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); path != dir && (name == "testdata" || strings.HasPrefix(name, ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					out = append(out, funcDecl{fset, declName(fd), fd})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no function declarations under %v", dirs)
	}
	return out
}

func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// walk calls visit for every node under root with the stack of its
// ancestors, root first.
func walk(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

func walkCalls(root ast.Node, visit func(call *ast.CallExpr, stack []ast.Node)) {
	walk(root, func(n ast.Node, stack []ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call, stack)
		}
	})
}

// isClockCall reports a call of Advance or Yield on a Proc (an operand named
// Proc or proc) or of vtime.YieldIdle.
func isClockCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Advance", "Yield":
		name := ""
		switch x := sel.X.(type) {
		case *ast.Ident:
			name = x.Name
		case *ast.SelectorExpr:
			name = x.Sel.Name
		}
		return name == "Proc" || name == "proc"
	case "YieldIdle":
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "vtime"
	}
	return false
}

// underWallGate reports whether the innermost if statement on path (a node's
// ancestors, root first, then the node) holds the node in its body under a
// condition !x.wall or !x.Wall().
func underWallGate(path []ast.Node) bool {
	for i := len(path) - 1; i > 0; i-- {
		ifs, ok := path[i-1].(*ast.IfStmt)
		if !ok {
			continue
		}
		if path[i] != ifs.Body {
			return false
		}
		not, ok := ifs.Cond.(*ast.UnaryExpr)
		if !ok || not.Op != token.NOT {
			return false
		}
		x := not.X
		if call, ok := x.(*ast.CallExpr); ok && len(call.Args) == 0 {
			x = call.Fun
		}
		sel, ok := x.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "wall" || sel.Sel.Name == "Wall")
	}
	return false
}

func inLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// isMoveCharge reports a call of Walker.ChargeMoves or of Tascell's
// per-level charge.
func isMoveCharge(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name == "ChargeMoves"
	case *ast.Ident:
		return fn.Name == "charge"
	}
	return false
}

func sinceFrom(call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	sub, ok := call.Args[0].(*ast.BinaryExpr)
	if !ok || sub.Op != token.SUB {
		return false
	}
	from, ok := sub.Y.(*ast.Ident)
	return ok && from.Name == "from"
}
