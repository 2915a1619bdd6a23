package adaptivetc_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
		// interface dispatch per node on Real for nothing (DESIGN §6.4).
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

	t.Run("one_node_site_every_engine_enters_a_node_through_Walker.Visit_which_alone_draws_node_faults", func(t *testing.T) {
		// A second node entry lets a route skip the fault plane or the stop
		// poll without a word (TestNodeFaultsOncePerNode).
		for _, fd := range funcDecls(t, []string{"."}, true) {
			if name := fd.decl.Name.Name; name == "BeginNode" || name == "injectNode" {
				t.Errorf("%s: %s is declared again", fd.fset.Position(fd.decl.Pos()), name)
			}
		}
		for _, fd := range funcDecls(t, []string{"."}, false) {
			pos := fd.fset.Position(fd.decl.Pos())
			inWalker := filepath.Dir(pos.Filename) == filepath.Join("internal", "sched") && strings.HasPrefix(fd.name, "Walker.")
			walkCalls(fd.decl.Body, func(call *ast.CallExpr, _ []ast.Node) {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "StallNS" || sel.Sel.Name == "PanicNow") && !inWalker {
					t.Errorf("%s: %s draws a node fault outside sched.Walker", fd.fset.Position(call.Pos()), fd.name)
				}
			})
		}
	})

	t.Run("one_spawn_loop_the_engines_configure_wsrt.Fast_and_do_not_copy_it", func(t *testing.T) {
		// Cilk, SYNCHED and the cut-offs are rows of internal/wsrt/strategy.go;
		// internal/slaw keeps its help-first loop on purpose (its package
		// comment).
		copies := map[string]bool{"loop": true, "node": true, "fastLoop": true, "fastNode": true, "fast2Loop": true, "fast2Node": true}
		for _, fd := range funcDecls(t, []string{"internal/core", "internal/wsrt/strategy.go"}, false) {
			if recv, name, ok := strings.Cut(fd.name, "."); ok && recv == "exec" && copies[name] {
				t.Errorf("%s: %s copies wsrt.Fast's spawn loop", fd.fset.Position(fd.decl.Pos()), fd.name)
			}
		}
	})

	t.Run("one_engine_table_the_second_registries_stay_deleted_and_Run_is_written_once", func(t *testing.T) {
		forbidIdents(t, []string{"."}, "RegisterEngine", "engineMakers", "poolEngines")
		// The pool engines share wsrt.Run; Tascell brings its own runtime.
		var runs []string
		for _, fd := range funcDecls(t, []string{"internal/wsrt", "internal/core", "internal/slaw"}, false) {
			if fd.decl.Recv != nil && fd.decl.Name.Name == "Run" && isEngineRun(fd.decl.Type) {
				runs = append(runs, fd.fset.Position(fd.decl.Pos()).String())
			}
		}
		if len(runs) != 1 {
			t.Errorf("Run(p sched.Program, opt sched.Options) is declared %d times, want 1: %v", len(runs), runs)
		}
		for _, path := range []string{"internal/cilk", "internal/cutoff", "internal/serve/engines.go", "internal/experiments/programs.go"} {
			if _, err := os.Stat(path); err == nil {
				t.Errorf("%s is back", path)
			}
		}
	})

	t.Run("one_clone_body_Worker.Clone's_pool_miss_arm_is_the_only_workspace_Clone_in_the_runtime", func(t *testing.T) {
		// Tascell's per-request clone is the one exception: it leaves with
		// the thief, so there is no not-stolen path to recycle it on.
		sites := map[string]string{
			"internal/wsrt internal/core internal/slaw": "Worker.Clone",
			"internal/tascell":                          "tworker.respond",
		}
		for dirs, want := range sites {
			n := 0
			for _, fd := range funcDecls(t, strings.Fields(dirs), false) {
				walkCalls(fd.decl.Body, func(call *ast.CallExpr, _ []ast.Node) {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clone" && len(call.Args) == 0 {
						n++
						if fd.name != want {
							t.Errorf("%s: %s clones a workspace; only %s may", fd.fset.Position(call.Pos()), fd.name, want)
						}
					}
				})
			}
			if n != 1 {
				t.Errorf("%s: %d workspace Clone calls, want 1 (in %s)", dirs, n, want)
			}
		}
	})

	t.Run("serve_pump_waits_on_events_its_timed-retry_machinery_stays_deleted", func(t *testing.T) {
		forbidIdents(t, []string{"internal/serve", "cmd"}, "AdmissionBackoff", "wakePump", "sleepOrWake")
		// The service has no pump: feed starts a watcher per job the pool
		// takes, followRemote a waiter per forwarded job, and nothing else in
		// internal/serve starts a goroutine.
		var gos []string
		for _, f := range goFiles(t, []string{"internal/serve"}, false) {
			for _, decl := range f.file.Decls {
				where := "package scope"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					where = declName(fd)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						started := "a func literal"
						if name := lastName(g.Call.Fun); name != "" {
							started = name
						}
						gos = append(gos, where+" starts "+started)
					}
					return true
				})
			}
		}
		slices.Sort(gos)
		if want := []string{"Service.feed starts watch", "Service.followRemote starts a func literal"}; !slices.Equal(gos, want) {
			t.Errorf("internal/serve starts goroutines %q, want only %q", gos, want)
		}
		gone := []string{"pump", "stagingRetryPause", "RejectAdmission", "AdmissionRetries"}
		for _, f := range goFiles(t, []string{"."}, true) {
			ast.Inspect(f.file, func(n ast.Node) bool {
				var names []*ast.Ident
				switch n := n.(type) {
				case *ast.FuncDecl:
					names = []*ast.Ident{n.Name}
				case *ast.TypeSpec:
					names = []*ast.Ident{n.Name}
				case *ast.ValueSpec:
					names = n.Names
				case *ast.Field:
					names = n.Names
				}
				for _, id := range names {
					if slices.Contains(gone, id.Name) {
						t.Errorf("%s: %s is declared again", f.fset.Position(id.Pos()), id.Name)
					}
				}
				return true
			})
		}
		for _, f := range goFiles(t, []string{"internal/wsrt"}, false) {
			ast.Inspect(f.file, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok || spec.Name.Name != "PoolConfig" {
					return true
				}
				for _, field := range spec.Type.(*ast.StructType).Fields.List {
					for _, name := range field.Names {
						if name.Name == "Faults" {
							t.Errorf("%s: PoolConfig.Faults is back; faults are per job", f.fset.Position(name.Pos()))
						}
					}
				}
				return false
			})
		}
	})

	t.Run("one_Sim_core_workers_are_coroutines_the_channel_handoff_stays_deleted", func(t *testing.T) {
		for _, f := range goFiles(t, []string{"internal/vtime"}, true) {
			ast.Inspect(f.file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ChanType:
					if id, ok := n.Value.(*ast.Ident); ok && id.Name == "int64" {
						t.Errorf("%s: a chan int64 is back", f.fset.Position(n.Pos()))
					}
				case *ast.SendStmt:
					if lastName(n.Chan) == "resume" {
						t.Errorf("%s: a send on resume is back", f.fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	})

	t.Run("deque_slots_hold_entries_the_entry_box_and_its_free-list_stay_deleted", func(t *testing.T) {
		forbidIdents(t, []string{"internal/deque"}, "entryBox")
	})

	t.Run("shards_are_a_fixed_partition_the_sizing_policies_the_SLO_advisor_and_the_external-queue_hook_stay_deleted", func(t *testing.T) {
		forbidIdents(t, []string{"."}, "ShardPolicy", "ShardAdvisor", "SetExternalQueueDepth", "SLOTargetMS")
		for _, f := range goFiles(t, []string{"."}, false) {
			ast.Inspect(f.file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "slo-target-ms") {
					t.Errorf("%s: the slo-target-ms flag is back", f.fset.Position(lit.Pos()))
				}
				return true
			})
		}
		n := 0
		for _, fd := range funcDecls(t, []string{"internal/wsrt"}, false) {
			if fd.name == "newShardAlloc" {
				n++
			}
		}
		if n != 1 {
			t.Errorf("newShardAlloc is declared %d times in internal/wsrt, want 1", n)
		}
	})

	t.Run("no_evaluation_context_is_allocated_per_call", func(t *testing.T) {
		for _, f := range goFiles(t, []string{"internal/lang/program.go"}, false) {
			ast.Inspect(f.file, func(n ast.Node) bool {
				if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
					if lit, ok := u.X.(*ast.CompositeLit); ok && lastName(lit.Type) == "env" {
						t.Errorf("%s: &env{…} allocates an evaluation context", f.fset.Position(u.Pos()))
					}
				}
				return true
			})
		}
	})

	t.Run("the_pool_is_its_workers_workerLoop_is_pool.go's_only_goroutine_and_the_dispatcher_finisher_and_starvation_fault_stay_deleted", func(t *testing.T) {
		var gos []string
		for _, f := range goFiles(t, []string{"internal/wsrt/pool.go"}, false) {
			ast.Inspect(f.file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					gos = append(gos, lastName(g.Call.Fun))
				}
				return true
			})
		}
		if !slices.Equal(gos, []string{"workerLoop"}) {
			t.Errorf("pool.go starts goroutines %v, want only workerLoop", gos)
		}
		gone := []string{"dispatch", "finishJob", "StarveShard", "ShardAlloc"}
		for _, fd := range funcDecls(t, []string{"."}, true) {
			if slices.Contains(gone, fd.decl.Name.Name) {
				t.Errorf("%s: %s is declared again", fd.fset.Position(fd.decl.Pos()), fd.name)
			}
		}
		for _, f := range goFiles(t, []string{"."}, true) {
			ast.Inspect(f.file, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok || spec.Name.Name != "JobSpec" {
					return true
				}
				if st, ok := spec.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.Name == "Deadline" {
								t.Errorf("%s: JobSpec.Deadline is back; a job's deadline is its Ctx's", f.fset.Position(name.Pos()))
							}
						}
					}
				}
				return false
			})
		}
	})

	t.Run("ci_starts_no_background_process_and_needs_no_curl_or_python3", func(t *testing.T) {
		// The shipped binaries are driven by cmd/adaptivetc-serve/e2e_test.go,
		// which tier-1 runs and which reaps every process it starts; a shell
		// step that starts a server is a second harness tier-1 never runs.
		tool := regexp.MustCompile(`\b(curl|python3?)\b`)
		background := regexp.MustCompile(`(^|[^&<>|])&([^&>]|$)`) // not &&, 2>&1, &> or |&
		for i, line := range ciLines(t) {
			if m := tool.FindString(line); m != "" {
				t.Errorf("ci.yml:%d: runs %s", i+1, m)
			}
			if background.MatchString(line) {
				t.Errorf("ci.yml:%d: starts a background process: %s", i+1, strings.TrimSpace(line))
			}
		}
	})

	t.Run("ci_races_the_whole_module_in_one_command_and_repeats_only_stress_tests", func(t *testing.T) {
		lines := ciLines(t)
		for _, msg := range ciRaceChoices(lines) {
			t.Error(msg)
		}
		// Each mutant chooses the tests it races and must be caught.
		whole := "go test -race ./..."
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasSuffix(strings.TrimSpace(l), whole) })
		if i < 0 {
			t.Fatalf("ci.yml has no line ending in %q", whole)
		}
		for _, mutant := range []string{
			"go test -race ./... && go test -race ./internal/lang/ ./internal/progstore/",
			"go test -race ./internal/...",
			"go test -race -short ./...",
			"go test -race -skip TestDifferentialBatch ./...",
			"go test -race -run=. ./...",
		} {
			mut := slices.Clone(lines)
			mut[i] = strings.Replace(mut[i], whole, mutant, 1)
			if len(ciRaceChoices(mut)) == 0 {
				t.Errorf("the guard passes ci.yml with %q", mutant)
			}
		}
	})
}

// ciRaceChoices reports each go test -race command in lines that races a
// chosen set of tests once. A package list, -run, -skip or -short is a
// choice of tests, and a choice leaves the rest unraced: exactly one command
// races ./... whole, and any other repeats (-count >= 2) stress tests that
// the one command already ran once.
func ciRaceChoices(lines []string) []string {
	sep := regexp.MustCompile(`&&|\|\||;`)
	raceTest := regexp.MustCompile(`\bgo test\b.*\s-race\b`)
	repeats := regexp.MustCompile(`\s-count[= ]([2-9]|[1-9]\d+)\b`) // -count >= 2
	chooses := func(f string) bool {
		return slices.ContainsFunc([]string{"-run", "-skip", "-short"}, func(p string) bool { return strings.HasPrefix(f, p) })
	}
	var msgs []string
	whole := 0
	for i, line := range lines {
		for _, cmd := range sep.Split(line, -1) {
			if !raceTest.MatchString(cmd) {
				continue
			}
			fields := strings.Fields(cmd)
			if slices.Contains(fields, "./...") && !slices.ContainsFunc(fields, chooses) {
				whole++
				continue
			}
			if !repeats.MatchString(cmd) {
				msgs = append(msgs, fmt.Sprintf("ci.yml:%d: races a chosen set of tests without repeating them (-count >= 2): %s", i+1, strings.TrimSpace(cmd)))
			}
		}
	}
	if whole != 1 {
		msgs = append(msgs, fmt.Sprintf("ci.yml has %d `go test -race ./...` commands without -run, -skip or -short, want exactly 1", whole))
	}
	return msgs
}

// ciLines returns ci.yml's lines with their comments cut off.
func ciLines(t *testing.T) []string {
	t.Helper()
	blob, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(blob), "\n")
	for i, line := range lines {
		if c := strings.Index(line, "#"); c == 0 || c > 0 && line[c-1] == ' ' {
			lines[i] = line[:c]
		}
	}
	return lines
}

// forbidIdents reports every identifier under dirs, test files included,
// that is one of gone.
func forbidIdents(t *testing.T, dirs []string, gone ...string) {
	t.Helper()
	for _, f := range goFiles(t, dirs, true) {
		ast.Inspect(f.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(gone, id.Name) {
				t.Errorf("%s: %s is back", f.fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

// lastName returns the name an expression ends in: x for x and a.b.x, ""
// for anything else.
func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

type funcDecl struct {
	fset *token.FileSet
	name string // "Recv.Name" for a method, "Name" for a function
	decl *ast.FuncDecl
}

type goFile struct {
	fset *token.FileSet
	file *ast.File
}

// funcDecls returns every function declaration with a body in goFiles(dirs,
// tests).
func funcDecls(t *testing.T, dirs []string, tests bool) []funcDecl {
	t.Helper()
	var out []funcDecl
	for _, f := range goFiles(t, dirs, tests) {
		for _, decl := range f.file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, funcDecl{f.fset, declName(fd), fd})
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("no function declarations under %v", dirs)
	}
	return out
}

// goFiles parses the Go files under dirs (recursively; a dir may also name
// one file), test files only when tests is set.
func goFiles(t *testing.T, dirs []string, tests bool) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []goFile
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
			out = append(out, goFile{fset, f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
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
		name := lastName(sel.X)
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

// isEngineRun reports the signature Run(p sched.Program, opt sched.Options).
func isEngineRun(ft *ast.FuncType) bool {
	var params []string
	for _, f := range ft.Params.List {
		for range max(len(f.Names), 1) {
			params = append(params, types.ExprString(f.Type))
		}
	}
	return len(params) == 2 && params[0] == "sched.Program" && params[1] == "sched.Options"
}
