// Docs that execute: every `go run ./cmd/…` command the prose documents
// quote is held to the binaries as built — the command exists, each flag
// is one its -h lists, and each -matrix / -fig / -ds value is a name the
// flag's usage enumerates — so a deleted subcommand, flag or battery
// name fails here instead of in a reader's terminal.
package flit_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCommand is one quoted command line: where it was found and its
// words from "./cmd/<name>" on, shell tail (comments, pipes,
// redirections, background) removed.
type docCommand struct {
	where string
	words []string
}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineSpan  = regexp.MustCompile("(?s)`[^`]+`")
	shellTail   = regexp.MustCompile(`\s(#|\||>|<|&|;|2>).*$`)
)

// docCommands extracts the `go run ./cmd/…` commands of a markdown file:
// one per line of a fenced block (backslash continuations joined) and
// one per inline code span (which may wrap across lines).
func docCommands(t *testing.T, path string) []docCommand {
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
	var cmds []docCommand
	for _, r := range regions {
		_, rest, ok := strings.Cut(r, "go run ")
		if !ok || !strings.HasPrefix(rest, "./cmd/") {
			continue
		}
		rest = shellTail.ReplaceAllString(strings.Join(strings.Fields(rest), " "), "")
		cmds = append(cmds, docCommand{where: path, words: strings.Fields(rest)})
	}
	return cmds
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
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		cmds = append(cmds, docCommands(t, doc)...)
	}
	// The extraction itself must not rot: EXPERIMENTS.md alone quotes
	// dozens of commands.
	if len(cmds) < 30 {
		t.Fatalf("extracted only %d `go run ./cmd/…` commands from the docs", len(cmds))
	}
	bindir := t.TempDir()
	help := map[string]map[string]*cmdFlag{}
	for _, c := range cmds {
		pkg := c.words[0]
		if help[pkg] != nil {
			continue
		}
		if st, err := os.Stat(pkg); err != nil || !st.IsDir() {
			t.Errorf("%s: `go run %s`: no such command", c.where, strings.Join(c.words, " "))
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
		line := "go run " + strings.Join(c.words, " ")
		args := c.words[1:]
		for i := 0; i < len(args); i++ {
			arg := args[i]
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
					t.Errorf("%s: `%s`: flag -%s needs a value", c.where, line, name)
					break
				}
				value = args[i]
			}
			if !enumerated[name] {
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
