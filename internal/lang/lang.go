// Package lang implements ATC, the mini-language front end of this
// reproduction. The paper presents AdaptiveTC as "a comprehensive parallel
// programming environment that includes a parallel programming language, a
// compiler and a runtime system": the runtime lives in the engine packages;
// this package is the language and compiler. An ATC source file describes a
// backtracking task function in exactly the shape of the paper's Appendix A
// — taskprivate state, a terminal test, a candidate-move count, and
// apply/undo blocks — and compiles to a sched.Program that every scheduler
// in the repository can run.
//
// A complete program (8-queens, the array variant):
//
//	param n = 8
//
//	state x[n]              # queen column per row — the paper's chessboard
//	state cols[n]           # taskprivate conflict arrays
//	state d1[2*n - 1]
//	state d2[2*n - 1]
//
//	terminal depth == n -> 1
//
//	moves n
//
//	apply {
//	    if cols[m] != 0 || d1[depth + m] != 0 || d2[depth - m + n - 1] != 0 {
//	        reject          # an illegal placement; all writes roll back
//	    }
//	    x[depth] = m
//	    cols[m] = 1
//	    d1[depth + m] = 1
//	    d2[depth - m + n - 1] = 1
//	}
//
//	undo {
//	    cols[m] = 0
//	    d1[depth + m] = 0
//	    d2[depth - m + n - 1] = 0
//	}
//
// Language summary:
//
//   - `param name = const-expr` — compile-time integer constants,
//     overridable at Compile time (how benchmark sizes are set);
//   - `state name` / `state name[size]` — taskprivate int64 scalars and
//     arrays, deep-copied whenever a scheduler clones the workspace; the
//     suffix `shared` marks read-only lookup tables that are built in init
//     and never cloned (writes outside init are compile errors);
//   - `init { ... }` — establishes the root workspace and shared tables;
//   - `terminal cond -> value` — the leaf test and leaf value;
//   - `moves expr` — candidate moves per node (the spawn fan-out);
//   - `apply { ... }` / `undo { ... }` — play/reverse candidate `m` at
//     depth `depth`; `reject` inside apply marks the move illegal and rolls
//     back every write the block made, so engines can rely on failed
//     applies being pure;
//   - statements: assignment, if/else, reject; expressions: int64
//     arithmetic (+ - * / %), comparisons, && || ! (short-circuit), array
//     indexing (bounds-checked), parentheses; `#` starts a comment.
//
// The compiler is a classical small pipeline: lexer → recursive-descent
// parser → AST → name resolution and constant folding → closure
// compilation (each expression and statement becomes a Go closure over a
// slot-indexed store, chosen for its shape — a folded constant, an affine
// index, a boolean condition — so the hot path does no map lookups, AST
// walks or operator switches).
package lang
