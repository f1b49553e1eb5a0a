package enoki_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileRunPatterns guards the race gates: every top-level
// alternative of every `-run` pattern in the Makefile must match a Test,
// Fuzz or Benchmark function in that line's packages, so a renamed or
// deleted test cannot drop out of its gate unnoticed.
func TestMakefileRunPatterns(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	runRE := regexp.MustCompile(`\s-run (?:'([^']*)'|(\S+))`)
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	gates := 0
	for n, line := range strings.Split(string(mk), "\n") {
		m := runRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		gates++
		var pkgs, funcs []string
		for _, arg := range strings.Fields(line) {
			if arg != "." && !strings.HasPrefix(arg, "./") {
				continue
			}
			pkgs = append(pkgs, arg)
			files, _ := filepath.Glob(filepath.Join(arg, "*_test.go"))
			for _, file := range files {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, fm := range funcRE.FindAllSubmatch(src, -1) {
					funcs = append(funcs, string(fm[1]))
				}
			}
		}
		if len(funcs) == 0 {
			t.Errorf("Makefile:%d: no test functions in packages %v", n+1, pkgs)
			continue
		}
		for _, alt := range alternatives(m[1] + m[2]) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: -run alternative %q: %v", n+1, alt, err)
			} else if !slices.ContainsFunc(funcs, re.MatchString) {
				t.Errorf("Makefile:%d: -run alternative %q matches no test in %v", n+1, alt, pkgs)
			}
		}
	}
	if gates == 0 {
		t.Fatal("no -run pattern found in the Makefile")
	}
}

// alternatives splits a regular expression at its top-level `|`s.
func alternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}
