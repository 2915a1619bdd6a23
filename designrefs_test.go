package adaptivetc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designLayers is DESIGN.md's outline, stated once: the opening (the paper,
// the substitutions, the inventory, the Program model), one section per
// layer, and the checks that cut across the layers. A change edits its
// layer's section in place; a section per change is what this list refuses.
var designLayers = []string{
	"1. What the paper proposes",
	"2. Environment gates and substitutions",
	"3. System inventory",
	"4. The `Program` model and the workloads",
	"5. Deque",
	"6. Runtime and engines",
	"7. Sim",
	"8. Pool",
	"9. DSL",
	"10. Store",
	"11. Serve",
	"12. Cluster",
	"13. Checks: the trace checker, the fault plane and the differential harness",
}

// TestDesignCitationsResolve keeps DESIGN.md and the pointers into it
// honest: every "DESIGN §n.m" citation names a heading DESIGN.md has, every
// test cited in DESIGN.md or the verify skill exists, and DESIGN.md keeps its
// one-section-per-layer outline.
func TestDesignCitationsResolve(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	skill := readDoc(t, ".claude/skills/verify/SKILL.md")
	var goFiles, testFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
			if strings.HasSuffix(path, "_test.go") {
				testFiles = append(testFiles, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// "DESIGN §n.m" or "DESIGN.md §n.m" in the Go sources (both modules),
	// the CI workflow, README, EXPERIMENTS and the verify skill names a
	// heading, so renumbering a section cannot orphan a pointer.
	t.Run("sections", func(t *testing.T) {
		headings := map[string]bool{}
		for _, m := range regexp.MustCompile(`(?m)^#{2,4} (\d+[a-z]?(?:\.\d+)*)\.? `).FindAllStringSubmatch(design, -1) {
			headings[m[1]] = true
		}
		files := append([]string{".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}, goFiles...)
		cite := regexp.MustCompile(`DESIGN(?:\.md)? §(\d+[a-z]?(?:\.\d+)*)`)
		n := 0
		for _, path := range files {
			for i, line := range strings.Split(readDoc(t, path), "\n") {
				for _, m := range cite.FindAllStringSubmatch(line, -1) {
					n++
					if !headings[m[1]] {
						t.Errorf("%s:%d: %s names no DESIGN.md heading", path, i+1, m[0])
					}
				}
			}
		}
		if n == 0 {
			t.Fatal("found no DESIGN citations; the pattern has rotted")
		}
		t.Logf("%d citations checked", n)
	})

	// A test, benchmark, fuzz target or example cited by name must be a
	// prefix of one declared in a _test.go file: a prefix, because a -run
	// pattern such as TestPool names a family.
	t.Run("test_names", func(t *testing.T) {
		var declared []string
		decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
		for _, path := range testFiles {
			for _, m := range decl.FindAllStringSubmatch(readDoc(t, path), -1) {
				declared = append(declared, m[1])
			}
		}
		cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
		n := 0
		for path, doc := range map[string]string{"DESIGN.md": design, ".claude/skills/verify/SKILL.md": skill} {
			for i, line := range strings.Split(doc, "\n") {
				for _, name := range cited.FindAllString(line, -1) {
					n++
					if !slices.ContainsFunc(declared, func(d string) bool { return strings.HasPrefix(d, name) }) {
						t.Errorf("%s:%d: %s is declared in no _test.go file", path, i+1, name)
					}
				}
			}
		}
		if n == 0 {
			t.Fatal("found no cited test names; the pattern has rotted")
		}
		t.Logf("%d test names checked", n)
	})

	// The ## sections are designLayers in order, and no subsection holds
	// one change's measurements or riders: those belong to CHANGES.md and
	// EXPERIMENTS.md's performance history.
	t.Run("layout", func(t *testing.T) {
		var sections []string
		for _, m := range regexp.MustCompile(`(?m)^## (.*)$`).FindAllStringSubmatch(design, -1) {
			sections = append(sections, strings.TrimSpace(m[1]))
		}
		if !slices.Equal(sections, designLayers) {
			t.Errorf("DESIGN.md's sections are\n\t%s\nwant the layer list\n\t%s",
				strings.Join(sections, "\n\t"), strings.Join(designLayers, "\n\t"))
		}
		perChange := regexp.MustCompile(`(?mi)^#{3,4} [\d.]*\s*(numbers|what rode along)\b.*$`)
		for _, m := range perChange.FindAllString(design, -1) {
			t.Errorf("DESIGN.md: %q is one change's record; it goes to CHANGES.md or EXPERIMENTS.md", m)
		}
	})
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
