// Docs that execute: every `go run ./cmd/…` command the prose documents
// quote is held to the binaries as built — the command exists, each flag
// is one its -h lists, and each -matrix / -fig / -ds value is a name the
// flag's usage enumerates — every bare command span (`flitcrash -ds …`,
// `bin/flitvet`) to the same binaries: it names a directory under cmd/
// and each of its flags is one that binary lists — every `go test` line
// to the tree: its
// packages exist and its -run / -bench patterns name declared tests and
// benchmarks — and every `bash benchmark/run.sh` line to the benchmark's
// flags and BENCHMARK.json's workloads. So a deleted subcommand, flag,
// battery, test, benchmark or workload name fails here instead of in a
// reader's terminal.
package flit_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCommand is one quoted command line: where it was found and its
// words from "./cmd/<name>" on, shell tail (comments, pipes,
// redirections, background) removed. A bare command is prose that names
// a binary ("flitcrash -ds <ds>"): its flag values are not checked, and
// it may stop at any word.
type docCommand struct {
	where string
	words []string
	bare  bool
}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineSpan  = regexp.MustCompile("(?s)`[^`]+`")
	shellTail   = regexp.MustCompile(`\s(#|\||>|<|&|;|2>).*$`)
	// bareCommand is a span's first word when it runs a built binary:
	// flitcrash, bin/flitcrash, /tmp/fb/flitstored.
	bareCommand = regexp.MustCompile(`^/?([\w.-]+/)*flit[a-z]+$`)
)

// docRegions splits a markdown file into its quoted lines: one per line
// of a fenced block (backslash continuations joined) and one per inline
// code span (which may wrap across lines), whitespace collapsed.
func docRegions(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var regions []string
	for _, block := range fencedBlock.FindAllString(string(raw), -1) {
		block = strings.ReplaceAll(block, "\\\n", " ")
		regions = append(regions, strings.Split(block, "\n")...)
	}
	for _, span := range inlineSpan.FindAllString(fencedBlock.ReplaceAllString(string(raw), ""), -1) {
		regions = append(regions, strings.Trim(span, "`"))
	}
	for i, r := range regions {
		regions[i] = strings.Join(strings.Fields(r), " ")
	}
	return regions
}

// docCommands extracts the commands of a markdown file that begin with
// prefix ("go run ", "go test "). words starts after prefix.
func docCommands(t *testing.T, path, prefix string) []docCommand {
	t.Helper()
	var cmds []docCommand
	for _, r := range docRegions(t, path) {
		_, rest, ok := strings.Cut(r, prefix)
		if !ok {
			continue
		}
		rest = shellTail.ReplaceAllString(" "+rest, "")
		cmds = append(cmds, docCommand{where: path, words: strings.Fields(rest)})
	}
	return cmds
}

// docBareCommands extracts the quoted lines of a markdown file that begin
// with a built binary's name, spelled as the `go run` form's words.
func docBareCommands(t *testing.T, path string) []docCommand {
	t.Helper()
	var cmds []docCommand
	for _, r := range docRegions(t, path) {
		words := strings.Fields(shellTail.ReplaceAllString(" "+r, ""))
		if len(words) > 0 && bareCommand.MatchString(words[0]) {
			words[0] = "./cmd/" + filepath.Base(words[0])
			cmds = append(cmds, docCommand{where: path, words: words, bare: true})
		}
	}
	return cmds
}

// docFiles are the documents whose commands must execute.
var docFiles = []string{"EXPERIMENTS.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

// String spells c as the docs quote it.
func (c docCommand) String() string {
	if c.bare {
		return strings.Join(append([]string{filepath.Base(c.words[0])}, c.words[1:]...), " ")
	}
	return "go run " + strings.Join(c.words, " ")
}

// cmdFlag is one flag of a built binary, as its -h prints it.
type cmdFlag struct {
	takesValue bool
	usage      string
}

var flagLine = regexp.MustCompile(`^  -(\S+)( \S+)?(\t.*)?$`)

// helpFlags runs bin -h and parses the flag package's listing: "  -name
// type" (or bare "  -name" for a boolean) followed by indented usage —
// on the same line, after a tab, for one-letter names.
func helpFlags(t *testing.T, bin string) map[string]*cmdFlag {
	t.Helper()
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 or 2 by flag-package version
	flags := map[string]*cmdFlag{}
	var cur *cmdFlag
	for _, line := range strings.Split(string(out), "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			cur = &cmdFlag{takesValue: m[2] != "", usage: m[3]}
			flags[m[1]] = cur
		} else if cur != nil {
			cur.usage += " " + line
		}
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h lists no flags:\n%s", bin, out)
	}
	return flags
}

// enumerated are the flags whose values are names of presets, figures or
// batteries; their usage strings spell the known names out.
var enumerated = map[string]bool{"matrix": true, "fig": true, "ds": true}

var nameWord = regexp.MustCompile(`[A-Za-z0-9][A-Za-z0-9-]*`)

func TestDocsCommandsExecute(t *testing.T) {
	gobin := goTool(t)
	var cmds []docCommand
	for _, doc := range docFiles {
		for _, c := range docCommands(t, doc, "go run ") {
			if len(c.words) > 0 && strings.HasPrefix(c.words[0], "./cmd/") {
				cmds = append(cmds, c)
			}
		}
	}
	// The extraction itself must not rot: EXPERIMENTS.md alone quotes
	// dozens of commands.
	if len(cmds) < 30 {
		t.Fatalf("extracted only %d `go run ./cmd/…` commands from the docs", len(cmds))
	}
	for _, doc := range docFiles {
		cmds = append(cmds, docBareCommands(t, doc)...)
	}
	bindir := t.TempDir()
	help := map[string]map[string]*cmdFlag{}
	for _, c := range cmds {
		pkg := c.words[0]
		if help[pkg] != nil {
			continue
		}
		if st, err := os.Stat(pkg); err != nil || !st.IsDir() {
			t.Errorf("%s: `%s`: no such command", c.where, c)
			continue
		}
		bin := filepath.Join(bindir, filepath.Base(pkg))
		if out, err := exec.Command(gobin, "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		help[pkg] = helpFlags(t, bin)
	}
	for _, c := range cmds {
		flags := help[c.words[0]]
		if flags == nil {
			continue
		}
		line := c.String()
		args := c.words[1:]
		for i := 0; i < len(args); i++ {
			arg := args[i]
			if !strings.HasPrefix(arg, "-") && c.bare {
				break // prose goes on after the command
			}
			if !strings.HasPrefix(arg, "-") {
				// The flag package stops at the first positional word; only
				// paths and package patterns are ever passed that way, so a
				// bare word here is a subcommand that does not exist.
				for _, p := range args[i:] {
					if !strings.HasPrefix(p, ".") && !strings.HasPrefix(p, "/") {
						t.Errorf("%s: `%s`: positional argument %q is not a path — %s has no subcommands", c.where, line, p, c.words[0])
						break
					}
				}
				break
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			f := flags[name]
			if f == nil {
				t.Errorf("%s: `%s`: %s has no flag -%s", c.where, line, c.words[0], name)
				break
			}
			if f.takesValue && !hasValue {
				if i++; i == len(args) {
					if !c.bare {
						t.Errorf("%s: `%s`: flag -%s needs a value", c.where, line, name)
					}
					break
				}
				value = args[i]
			}
			if !enumerated[name] || c.bare {
				continue
			}
			known := false
			for _, w := range nameWord.FindAllString(f.usage, -1) {
				known = known || w == value
			}
			if !known {
				t.Errorf("%s: `%s`: -%s %s is not a name %s lists:%s", c.where, line, name, value, c.words[0], f.usage)
			}
		}
	}
}

// TestDocsBenchmarkLinesResolve holds every quoted `bash benchmark/run.sh`
// line to the benchmark as built: each flag is one the binary's -h lists,
// each --workload a name BENCHMARK.json defines, and the compare
// subcommand takes files, no flags. benchmark/ is only read and built.
func TestDocsBenchmarkLinesResolve(t *testing.T) {
	var cmds []docCommand
	for _, doc := range docFiles {
		cmds = append(cmds, docCommands(t, doc, "bash benchmark/run.sh ")...)
	}
	if len(cmds) < 10 {
		t.Fatalf("extracted only %d `bash benchmark/run.sh` lines from the docs", len(cmds))
	}
	bin := filepath.Join(t.TempDir(), "flit-benchmark")
	build := exec.Command(goTool(t), "build", "-C", "benchmark", "-o", bin, ".")
	build.Env = append(os.Environ(), "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -C benchmark: %v\n%s", err, out)
	}
	flags := helpFlags(t, bin)
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, c := range cmds {
		line := "bash benchmark/run.sh " + strings.Join(c.words, " ")
		args := c.words
		if len(args) > 0 && args[0] == "compare" {
			for _, a := range args[1:] {
				if strings.HasPrefix(a, "-") {
					t.Errorf("%s: `%s`: compare takes result files, not flag %s", c.where, line, a)
				}
			}
			continue
		}
		for i := 0; i < len(args); i++ {
			name, value, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
			if !strings.HasPrefix(args[i], "-") {
				t.Errorf("%s: `%s`: positional argument %q — the benchmark's one subcommand is compare", c.where, line, args[i])
				break
			}
			f := flags[name]
			if f == nil {
				t.Errorf("%s: `%s`: the benchmark has no flag -%s", c.where, line, name)
				break
			}
			if f.takesValue && !hasValue {
				if i++; i == len(args) {
					t.Errorf("%s: `%s`: flag -%s needs a value", c.where, line, name)
					break
				}
				value = args[i]
			}
			if name == "workload" && !workloads[value] {
				t.Errorf("%s: `%s`: workload %q is not one BENCHMARK.json defines", c.where, line, value)
			}
		}
	}
}

// testFlagValued are the `go test` flags the docs quote that take a value
// as the next word; every other flag is a boolean or carries "=value".
var testFlagValued = map[string]bool{"run": true, "bench": true, "benchtime": true, "count": true, "cpu": true, "fuzz": true, "tags": true, "timeout": true}

// TestDocsGoTestLinesResolve holds every quoted `go test` line to the
// tree: each package it names exists, and each alternative of its -run or
// -bench pattern matches a Test (Fuzz, Example) or Benchmark function
// declared in one of those packages — so a renamed or deleted test fails
// here, not in a reader's terminal.
func TestDocsGoTestLinesResolve(t *testing.T) {
	var cmds []docCommand
	for _, doc := range docFiles {
		cmds = append(cmds, docCommands(t, doc, "go test ")...)
	}
	if len(cmds) < 20 {
		t.Fatalf("extracted only %d `go test` lines from the docs", len(cmds))
	}
	decls := map[string][]string{} // package directory → its declared function names
	for _, c := range cmds {
		line := "go test " + strings.Join(c.words, " ")
		var pkgs []string
		patterns := map[string]string{} // flag → pattern
		for i := 0; i < len(c.words); i++ {
			w := c.words[i]
			if !strings.HasPrefix(w, "-") {
				pkgs = append(pkgs, w)
				continue
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !hasValue && testFlagValued[name] && i+1 < len(c.words) {
				i++
				value = c.words[i]
			}
			if name == "run" || name == "bench" {
				patterns[name] = strings.Trim(value, `'"`)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		var dirs []string
		for _, p := range pkgs {
			root, tree := strings.CutSuffix(p, "/...")
			if st, err := os.Stat(root); err != nil || !st.IsDir() || !strings.HasPrefix(p, ".") {
				t.Errorf("%s: `%s`: %s is not a package directory of this tree", c.where, line, p)
				continue
			}
			if !tree {
				dirs = append(dirs, filepath.Clean(root))
				continue
			}
			filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err == nil && d.IsDir() {
					dirs = append(dirs, filepath.Clean(path))
				}
				return err
			})
		}
		for flag, pattern := range patterns {
			prefixes := []string{"Test", "Fuzz", "Example"}
			if flag == "bench" {
				prefixes = []string{"Benchmark"}
			}
			for _, alt := range topLevelAlternatives(pattern) {
				if alt == "^$" {
					continue // matches nothing, on purpose
				}
				re, err := regexp.Compile(strings.Split(alt, "/")[0])
				if err != nil {
					t.Errorf("%s: `%s`: -%s alternative %q: %v", c.where, line, flag, alt, err)
					continue
				}
				found := false
				for _, dir := range dirs {
					if _, ok := decls[dir]; !ok {
						decls[dir] = declaredFuncs(t, dir)
					}
					for _, fn := range decls[dir] {
						for _, p := range prefixes {
							found = found || strings.HasPrefix(fn, p) && re.MatchString(fn)
						}
					}
				}
				if !found {
					t.Errorf("%s: `%s`: -%s alternative %q matches no %s function in %v", c.where, line, flag, alt, strings.Join(prefixes, "/"), pkgs)
				}
			}
		}
	}
}

// topLevelAlternatives splits a regexp at the | signs outside any group.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// declaredFuncs parses the Go files of one package directory and returns
// the names of its top-level functions.
func declaredFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
