package ppr

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A go test pattern that matches no function passes silently, so a CI step
// naming a renamed or deleted test keeps passing while testing nothing.

// TestCIPatternsNameExistingTests checks every -run, -bench, -fuzz and
// -list alternative of every `go test` command in the CI workflow.
func TestCIPatternsNameExistingTests(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	errs, checked := ciPatternErrors(string(yml))
	for _, e := range errs {
		t.Error(e)
	}
	if checked == 0 {
		t.Fatal("found no go test patterns in ci.yml")
	}
	t.Logf("%d pattern alternatives checked", checked)
}

// TestCIPatternCheckCatchesStaleNames feeds the checker a step that names a
// deleted test beside a live one.
func TestCIPatternCheckCatchesStaleNames(t *testing.T) {
	yml := "  go test -v -run 'TestDecodeGolden|TestDecodeMatchesSovaref' \\\n    ./internal/fec/ > log\n"
	errs, checked := ciPatternErrors(yml)
	if checked != 2 || len(errs) != 1 || !strings.Contains(errs[0], `"TestDecodeMatchesSovaref"`) {
		t.Fatalf("checked %d, errors %q; want 2 checked and one error for TestDecodeMatchesSovaref", checked, errs)
	}
}

var (
	// patternKinds maps each go test pattern flag to the functions it selects.
	patternKinds = map[string]*regexp.Regexp{
		"-run":   regexp.MustCompile(`^(Test|Fuzz|Example)`),
		"-bench": regexp.MustCompile(`^Benchmark`),
		"-fuzz":  regexp.MustCompile(`^Fuzz`),
		"-list":  regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`),
	}
	// boolFlags are the go test flags the workflow uses that take no value.
	boolFlags = map[string]bool{"-v": true, "-race": true, "-benchmem": true, "-trimpath": true, "-c": true}
	// shellWord matches one quoted or bare word of a command, or an operator
	// that ends the command.
	shellWord = regexp.MustCompile(`'([^']*)'|"([^"]*)"|([^\s'"|<>;&)]+)|[|<>;&)]`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
)

// ciPatternErrors returns one message per alternative of a `go test`
// pattern in yml that matches no function in the packages its command
// names, and how many alternatives it checked. "xxx" and "^$" are the
// workflow's "run no tests" patterns. go test splits a pattern at "/" into
// per-level patterns; only the first level names declared functions.
func ciPatternErrors(yml string) (errs []string, checked int) {
	for _, line := range strings.Split(strings.ReplaceAll(yml, "\\\n", " "), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var args []string
		for _, m := range shellWord.FindAllStringSubmatch(cmd, -1) {
			if len(m[0]) == 1 && strings.Contains("|<>;&)", m[0]) {
				break
			}
			args = append(args, m[1]+m[2]+m[3])
		}
		var pkgs []string
		var pats [][2]string // flag, pattern
		for i := 0; i < len(args); i++ {
			name, val, hasVal := strings.Cut(args[i], "=")
			if !strings.HasPrefix(name, "-") {
				pkgs = append(pkgs, name)
				continue
			}
			if !hasVal && !boolFlags[name] && i+1 < len(args) {
				i++
				val = args[i]
			}
			if patternKinds[name] != nil && val != "xxx" && val != "^$" {
				pats = append(pats, [2]string{name, val})
			}
		}
		if len(pats) == 0 {
			continue
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		funcs, err := testFuncs(pkgs)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		for _, p := range pats {
			top, _, _ := strings.Cut(p[1], "/")
			for _, alt := range strings.Split(top, "|") {
				checked++
				if !anyMatch(alt, patternKinds[p[0]], funcs) {
					errs = append(errs, fmt.Sprintf("%s %q in %v: no function matches %q", p[0], p[1], pkgs, alt))
				}
			}
		}
	}
	return errs, checked
}

func anyMatch(alt string, kind *regexp.Regexp, funcs []string) bool {
	re, err := regexp.Compile(alt)
	if err != nil {
		return false
	}
	for _, f := range funcs {
		if kind.MatchString(f) && re.MatchString(f) {
			return true
		}
	}
	return false
}

// testFuncs returns the Test, Benchmark, Fuzz and Example functions
// declared in the _test.go files of pkgs: directories, or directory trees
// written with "/...".
func testFuncs(pkgs []string) ([]string, error) {
	var funcs []string
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != dir && (!recursive || d.Name() == "testdata"):
				return filepath.SkipDir
			case strings.HasSuffix(path, "_test.go"):
				src, err := os.ReadFile(path)
				for _, m := range testFunc.FindAllSubmatch(src, -1) {
					funcs = append(funcs, string(m[1]))
				}
				return err
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("package %s: %w", pkg, err)
		}
	}
	return funcs, nil
}
