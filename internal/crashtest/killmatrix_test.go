//go:build killmatrix

package crashtest

// The kill matrix: every mutant of mutants_test.go × every battery, each
// mutant applied to a scratch copy of this tree. Run it with
//
//	KILLMATRIX_OUT=$PWD/killmatrix.md go test -tags killmatrix -run TestKillMatrix -timeout 140m ./internal/crashtest
//
// It writes the markdown table to KILLMATRIX_OUT (or logs it) and fails on
// a mutant no battery kills, on a control row that is not what it must be,
// and on a kill the table committed in EXPERIMENTS.md holds but this run
// lost.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// battery is one column: a command run at the root of the mutated copy.
type battery struct {
	name string
	// args is the command line; the word "OWN" stands for the mutated
	// package, and bin/ holds the row's prebuilt commands.
	args []string
	// oracle judges the benchmark's last output line instead of the exit
	// status alone.
	oracle bool
}

// cellTimeout bounds one battery: a mutant that makes a structure loop
// forever is a kill, found in minutes rather than at the suite timeout.
const cellTimeout = 5 * time.Minute

func goTest(args ...string) []string {
	return append([]string{"go", "test", "-short", "-count=1", "-timeout=" + cellTimeout.String()}, args...)
}

// batteries are the matrix's columns, each at its CI budget.
func batteries() []battery {
	bs := []battery{{name: "own tests", args: goTest("OWN")}}
	for _, ds := range []string{"list", "hashtable", "skiplist", "lockmap", "bst", "queue",
		"store", "store-batched", "store-combined", "store-reshard"} {
		bs = append(bs, battery{name: "enum " + ds, args: []string{"bin/flitcrash", "-ds", ds, "-rounds", "2", "-dlbudget", "64"}})
	}
	return append(bs,
		battery{name: "frozen writers", args: goTest("-run", "^(TestObserverPersistsWhatItSaw|TestObserverPersistsWindowedWrite|TestInsertBehindPendingPredecessor|TestHelpedUnlinkRestsOnTheMark|TestOwnUnlinkRestsOnTheMark|TestQueueVolatileEndsTrailDurableState)$", "./internal/crashtest")},
		battery{name: "store windows", args: goTest("-run", "^(TestCrashedWindowFreesNothing|TestDirectOpCounts|TestWindowPublishingCounts)$", "./internal/store")},
		battery{name: "sets 4x120", args: goTest("-run", "^TestDurableLinearizability$", "./internal/crashtest")},
		battery{name: "store 4x96", args: goTest("-run", "^TestStore(Batched|Combined)?DurableLinearizability$", "./internal/crashtest")},
		battery{name: "chaos", args: []string{"bin/flitcrash", "-chaos", "-rounds", "2"}},
		battery{name: "slow window", args: []string{"go", "test", "-count=3", "-timeout=" + cellTimeout.String(), "-run", "TestSlowWindowPolicyPasses", "./internal/dlcheck"}},
		battery{name: "value oracle", args: []string{"bash", "benchmark/run.sh", "--workload", "net_d1", "--seconds", "1"}, oracle: true},
	)
}

const (
	killed     = "killed"
	survived   = "survived"
	buildError = "build-error"
)

// cell is one battery's verdict on one row.
type cell struct {
	verdict string
	took    time.Duration
}

func (c cell) String() string {
	if c.verdict == buildError {
		return buildError
	}
	return fmt.Sprintf("%s %.1fs", c.verdict, c.took.Seconds())
}

// controls are the runner's own teeth: the tree as it is and a no-op
// patch must survive every battery, and a tree that does not compile must
// be reported as build-error in every column, never as a kill.
var controls = []mutant{
	{name: "unmutated"},
	{name: "no-op", origin: "control", file: "internal/core/flit.go",
		snippet: "func fenceDeps(", replacement: "func fenceDeps("},
	{name: "does-not-build", origin: "control", file: "internal/core/flit.go",
		snippet: "func fenceDeps(", replacement: "func fenceDeps(("},
}

func TestKillMatrix(t *testing.T) {
	root := moduleRoot(t)
	committed := committedKills(t, filepath.Join(root, "EXPERIMENTS.md"))
	scratch := t.TempDir()
	// The benchmark script builds with a cache inside its checkout; one
	// shared cache keeps each row from compiling the world again.
	benchCache := filepath.Join(scratch, "benchcache")
	bs := batteries()
	rows := append(append([]mutant(nil), controls...), mutants...)
	table := make([][]cell, len(rows))
	for i, m := range rows {
		dir := filepath.Join(scratch, fmt.Sprintf("row%02d", i))
		table[i] = runRow(t, root, dir, benchCache, m, bs)
		t.Logf("%-30s %v", m.name, table[i])
		os.RemoveAll(dir)
	}

	md := render(rows, bs, table)
	if out := os.Getenv("KILLMATRIX_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(md), 0o644); err != nil {
			t.Error(err)
		}
	}
	t.Logf("\n%s", md)

	for i, m := range rows {
		kills := 0
		for j, b := range bs {
			v := table[i][j].verdict
			switch {
			case m.name == "does-not-build" && v != buildError:
				t.Errorf("%s × %s: %s, want %s", m.name, b.name, v, buildError)
			case (m.name == "unmutated" || m.name == "no-op") && v != survived:
				t.Errorf("%s × %s: %s, want %s", m.name, b.name, v, survived)
			case committed[m.name+"\x00"+b.name] && v != killed:
				t.Errorf("%s × %s: the committed matrix has a kill, this run: %s", m.name, b.name, v)
			}
			if v == killed {
				kills++
			}
		}
		if m.origin != "control" && m.name != "unmutated" && kills == 0 {
			t.Errorf("blind spot: no battery kills %s (%s)", m.name, m.origin)
		}
	}
}

// runRow copies root to dir, applies m, builds what the batteries run
// and runs them, two at a time.
func runRow(t *testing.T, root, dir, benchCache string, m mutant, bs []battery) []cell {
	t.Helper()
	if err := copyTree(root, dir); err != nil {
		t.Fatal(err)
	}
	if m.file != "" {
		path := filepath.Join(dir, m.file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(string(src), m.snippet) != 1 {
			t.Fatalf("%s: snippet does not occur exactly once in %s", m.name, m.file)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.snippet, m.replacement, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(benchCache, filepath.Join(dir, ".bench_build", "gocache")); err != nil {
		t.Fatal(err)
	}
	own := "./internal/core"
	if m.file != "" {
		own = m.pkg()
	}

	cells := make([]cell, len(bs))
	// The benchmark module builds outside any workspace, with the shared
	// cache, as its script does.
	benchEnv := []string{"GOWORK=off", "GOTOOLCHAIN=local", "GOCACHE=" + benchCache}
	build := []struct{ env, args []string }{
		{nil, []string{"go", "build", "-o", "bin/", "./cmd/flitcrash"}},
		{nil, []string{"go", "test", "-count=1", "-run", "^$", own, "./internal/crashtest", "./internal/dlcheck"}},
		{benchEnv, []string{"go", "build", "-C", "benchmark", "-o", os.DevNull, "."}},
	}
	for _, b := range build {
		if _, err := run(dir, b.env, b.args, 10*time.Minute); err != nil {
			for j := range cells {
				cells[j] = cell{verdict: buildError}
			}
			return cells
		}
	}

	// The slow window mostly sleeps, so it starts first and runs beside
	// the rest.
	order := make([]int, 0, len(bs))
	for j, b := range bs {
		if b.name == "slow window" {
			order = append([]int{j}, order...)
		} else {
			order = append(order, j)
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, j := range order {
		b := bs[j]
		args := make([]string, len(b.args))
		for k, a := range b.args {
			if a == "OWN" {
				a = own
			}
			args[k] = a
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			out, err := run(dir, nil, args, cellTimeout+time.Minute)
			c := cell{verdict: survived, took: time.Since(start)}
			switch {
			case bytes.Contains(out, []byte("[build failed]")):
				c.verdict = buildError
			case err != nil:
				c.verdict = killed
			case b.oracle && !oracleClean(out):
				c.verdict = killed
			}
			cells[j] = c
		}()
	}
	wg.Wait()
	return cells
}

// run executes args in dir with env added to the environment.
func run(dir string, env, args []string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, args[0], args[1:]...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	cmd.WaitDelay = 10 * time.Second
	return cmd.CombinedOutput()
}

// oracleClean reports whether the benchmark's last line says every
// operation passed its value check.
func oracleClean(out []byte) bool {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	return json.Unmarshal([]byte(lines[len(lines)-1]), &r) == nil && r.Correct && r.Failed == 0
}

// copyTree copies the source tree, without version control or build
// outputs.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "bin":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// render formats the matrix as a markdown table.
func render(rows []mutant, bs []battery, table [][]cell) string {
	var b strings.Builder
	b.WriteString("| mutant | origin |")
	for _, bat := range bs {
		fmt.Fprintf(&b, " %s |", bat.name)
	}
	b.WriteString("\n|---|---|" + strings.Repeat("---|", len(bs)) + "\n")
	for i, m := range rows {
		fmt.Fprintf(&b, "| %s | %s |", m.name, m.origin)
		for _, c := range table[i] {
			fmt.Fprintf(&b, " %s |", c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// unheld ends a committed kill that depends on the schedule — one a
// second run of the same revision disagreed with, or one of the
// statistical slow window's: a run is not held to it.
const unheld = "†"

// committedKills parses the matrix table that follows the
// "<!-- killmatrix -->" marker in doc and returns its killed cells, keyed
// mutant NUL battery.
func committedKills(t *testing.T, doc string) map[string]bool {
	t.Helper()
	f, err := os.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kills := map[string]bool{}
	var header []string
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "<!-- killmatrix -->" {
			inTable = true
			continue
		}
		if !inTable || !strings.HasPrefix(line, "|") {
			if inTable && header != nil {
				break
			}
			continue
		}
		fields := strings.Split(strings.Trim(line, "|"), "|")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		switch {
		case header == nil:
			header = fields
		case strings.HasPrefix(fields[0], "---"):
		default:
			for j := 2; j < len(fields) && j < len(header); j++ {
				if strings.HasPrefix(fields[j], killed) && !strings.HasSuffix(fields[j], unheld) {
					kills[fields[0]+"\x00"+header[j]] = true
				}
			}
		}
	}
	if header == nil {
		t.Fatalf("%s has no table after <!-- killmatrix -->", doc)
	}
	return kills
}
