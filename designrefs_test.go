package adaptivetc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignCitationsResolve checks that every citation of a DESIGN.md
// section by number — "DESIGN §n.m" or "DESIGN.md §n.m" — in the Go
// sources, the CI workflow, README, EXPERIMENTS and the verify skill names a
// heading DESIGN.md has, so renumbering a section cannot orphan a pointer.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#{2,4} (\d+[a-z]?(?:\.\d+)*)\.? `).FindAllSubmatch(design, -1) {
		headings[string(m[1])] = true
	}
	files := []string{".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`DESIGN(?:\.md)? §(\d+[a-z]?(?:\.\d+)*)`)
	n := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
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
}
