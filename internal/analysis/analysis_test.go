package analysis

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one analyzer's fixture tree under testdata/src and
// returns the diagnostics of running the given analyzers over it
// (suppressions applied, exactly as the driver would).
func loadFixture(t *testing.T, sub string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+sub+"/...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", sub, err)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, e := range pkg.LoadErrors {
			t.Fatalf("fixture %s: load error in %s: %s", sub, pkg.PkgPath, e)
		}
		diags = append(diags, Run(pkg, analyzers)...)
	}
	return diags
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one `// want "substr"` comment in a fixture file.
type expectation struct {
	file string
	line int
	want string
}

// collectWants scans every .go file under the fixture dir for want
// comments.
func collectWants(t *testing.T, sub string) []expectation {
	t.Helper()
	var out []expectation
	root := filepath.Join("testdata", "src", sub)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		ln := 0
		for sc.Scan() {
			ln++
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				out = append(out, expectation{file: path, line: ln, want: m[1]})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning %s: %v", root, err)
	}
	return out
}

// checkFixture runs analyzers over the fixture and enforces an exact
// match: every want comment matched by a diagnostic on its line, and no
// diagnostic without a want comment.
func checkFixture(t *testing.T, sub string, analyzers ...*Analyzer) {
	t.Helper()
	diags := loadFixture(t, sub, analyzers...)
	wants := collectWants(t, sub)
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Line != w.line || !sameFile(d.Pos.Filename, w.file) {
				continue
			}
			if strings.Contains(d.Message, w.want) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.want)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func sameFile(diagPath, wantPath string) bool {
	return filepath.Base(diagPath) == filepath.Base(wantPath) &&
		strings.Contains(filepath.ToSlash(diagPath), filepath.ToSlash(filepath.Dir(wantPath)))
}

func TestHotPathFixtures(t *testing.T) { checkFixture(t, "hotpath", HotPath) }

// TestMutationTeeth is the analyzers' own tooth battery: each tooth
// package is a known-bad file its analyzer MUST flag. If an analyzer
// returns zero findings on its tooth, the analyzer has lost its bite
// and the suite fails — the same idiom the dlcheck and chaos harnesses
// use for their detectors.
func TestMutationTeeth(t *testing.T) {
	teeth := []struct {
		analyzer *Analyzer
		sub      string
	}{
		{HotPath, "hotpath/tooth"},
	}
	for _, tooth := range teeth {
		t.Run(tooth.analyzer.Name, func(t *testing.T) {
			diags := loadFixture(t, tooth.sub, tooth.analyzer)
			n := 0
			for _, d := range diags {
				if d.Analyzer == tooth.analyzer.Name {
					n++
				}
			}
			if n == 0 {
				t.Fatalf("mutation tooth undetected: %s produced no findings on testdata/src/%s",
					tooth.analyzer.Name, tooth.sub)
			}
		})
	}
}

// TestSuiteCleanOnTree runs the full suite over the repository exactly
// as the flitvet gate does and requires zero findings: the committed
// tree must stay clean.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.LoadErrors {
			t.Fatalf("%s: load error: %s", pkg.PkgPath, e)
		}
		for _, d := range Run(pkg, All()) {
			t.Errorf("tree not flitvet-clean: %s", d)
		}
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("hotpath")
	if err != nil || len(got) != 1 || got[0] != HotPath {
		t.Fatalf("ByName(hotpath) = %v, %v", got, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %v, %v", all, err)
	}
}

func TestMalformedIgnoreReported(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module ignorecheck\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "main.go"), `package main

func main() {
	//flitvet:ignore hotpath
	_ = 1
	//flitvet:ignore notananalyzer some reason
	_ = 2
}
`)
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []Diagnostic
	for _, pkg := range pkgs {
		got = append(got, Run(pkg, All())...)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 malformed-ignore diagnostics, got %v", got)
	}
	for _, d := range got {
		if d.Analyzer != "flitvet" || !strings.Contains(d.Message, "malformed //flitvet:ignore") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFixturesAreGofmtClean keeps the fixture tree formatted: testdata
// is invisible to ./... patterns, so the repo-wide gofmt gate does not
// see it.
func TestFixturesAreGofmtClean(t *testing.T) {
	out, err := exec.Command("gofmt", "-l", "testdata").CombinedOutput()
	if err != nil {
		t.Fatalf("gofmt -l testdata: %v\n%s", err, out)
	}
	if s := strings.TrimSpace(string(out)); s != "" {
		t.Errorf("fixture files need gofmt:\n%s", s)
	}
}
