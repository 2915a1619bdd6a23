// Command treegen generates and describes the unbalanced synthetic trees
// of the paper's Table 3 and Figure 8: node counts, leaves, depth and
// depth-1 subtree shares, for the built-in Tree1/Tree2/Tree3 shapes (and
// their right-heavy mirrors) or a custom fraction vector.
//
// Usage:
//
//	treegen                      # describe the Table 3 six at default scale
//	treegen -tree tree3 -size 500000 -reverse
//	treegen -fractions 61,28,11 -size 200000   # the Figure 8 shape
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adaptivetc"
	"adaptivetc/internal/experiments"
	"adaptivetc/problems/synthtree"
)

func main() {
	treeName := flag.String("tree", "", "tree1, tree2, tree3, or empty for the full Table 3 set")
	size := flag.Int64("size", 150000, "leaf count")
	reverse := flag.Bool("reverse", false, "mirror left-heavy to right-heavy")
	fractions := flag.String("fractions", "", "comma-separated custom depth-1 fractions (overrides -tree)")
	alpha := flag.Float64("alpha", 2.5, "deep-split skew exponent")
	seed := flag.Uint("seed", 20100424, "LCG seed")
	flag.Parse()

	// describe prints one tree's row; a spec synthtree would refuse is a
	// usage error, reported on one line.
	describe := func(spec synthtree.Spec) {
		if err := spec.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "treegen:", err)
			os.Exit(2)
		}
		st := adaptivetc.Analyze(synthtree.New(spec), 0)
		fmt.Printf("%-10s nodes=%-10d leaves=%-10d depth=%-4d depth-1 shares:", spec.Label, st.Nodes, st.Leaves, st.Depth)
		for _, p := range st.Depth1Percent() {
			fmt.Printf(" %.3f%%", p)
		}
		fmt.Println()
	}
	// one describes a single tree, seeded and mirrored as the flags say.
	one := func(spec synthtree.Spec) {
		spec.Seed = uint32(*seed)
		if *reverse {
			spec = spec.Reverse()
		}
		describe(spec)
	}

	if *fractions != "" {
		var fr []float64
		for _, part := range strings.Split(*fractions, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "treegen: bad fraction %q: %v\n", part, err)
				os.Exit(2)
			}
			fr = append(fr, v)
		}
		one(synthtree.Spec{Label: "custom", Size: *size, RootFractions: fr, Alpha: *alpha})
		return
	}
	switch *treeName {
	case "tree1":
		one(synthtree.Tree1(*size))
	case "tree2":
		one(synthtree.Tree2(*size))
	case "tree3":
		one(synthtree.Tree3(*size))
	case "":
		for _, spec := range experiments.Table3Specs(experiments.Default) {
			spec.Size = *size
			describe(spec)
		}
	default:
		fmt.Fprintf(os.Stderr, "treegen: unknown tree %q\n", *treeName)
		os.Exit(2)
	}
}
