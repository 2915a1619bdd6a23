// Sudoku solution counting — the paper's flagship taskprivate example
// (Appendix A). Solves a 9×9 instance with every scheduler and shows where
// the workspace-copying cost goes: Cilk clones the Status_t for every
// spawn, Cilk-SYNCHED reuses pooled memory but still copies the bytes,
// Tascell copies only when a task is extracted, and AdaptiveTC copies only
// in its (few) real tasks.
//
//	go run ./examples/sudoku [-removed 46] [-input balanced|input1|input2]
package main

import (
	"flag"
	"fmt"
	"log"

	"adaptivetc"
	"adaptivetc/problems/sudoku"
)

func main() {
	removed := flag.Int("removed", 46, "cells removed from the solved grid")
	input := flag.String("input", "balanced", "balanced, input1 (heavy spine) or input2")
	workers := flag.Int("workers", 8, "workers")
	flag.Parse()

	var prog adaptivetc.Program
	switch *input {
	case "balanced":
		prog = sudoku.Balanced(3, *removed)
	case "input1":
		prog = sudoku.Input1(3, *removed)
	case "input2":
		prog = sudoku.Input2(3, *removed)
	default:
		log.Fatalf("unknown input %q", *input)
	}

	shape := adaptivetc.Analyze(prog, 5e6)
	fmt.Printf("%s: search tree %d nodes, depth %d\n", prog.Name(), shape.Nodes, shape.Depth)
	fmt.Printf("depth-1 subtree shares: ")
	for _, p := range shape.Depth1Percent() {
		fmt.Printf("%.1f%% ", p)
	}
	fmt.Println()

	serial, err := adaptivetc.NewSerial().Run(prog, adaptivetc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solutions: %d; serial %.2fms\n\n", serial.Value, float64(serial.Makespan)/1e6)

	fmt.Printf("%-18s %9s %12s %14s\n", "engine", "speedup", "copies", "bytes copied")
	for _, engine := range adaptivetc.Engines()[1:] { // [0] is the serial reference
		res, err := engine.Run(prog, adaptivetc.Options{Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		if res.Value != serial.Value {
			log.Fatalf("%s returned %d, want %d", engine.Name(), res.Value, serial.Value)
		}
		fmt.Printf("%-18s %8.2fx %12d %14d\n", engine.Name(),
			float64(serial.Makespan)/float64(res.Makespan),
			res.Stats.WorkspaceCopies, res.Stats.WorkspaceBytes)
	}
}
