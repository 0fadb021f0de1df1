// Command flitvet is the multichecker driver for this repository's
// static-analysis suite (internal/analysis): one analyzer, hotpath,
// that enforces the zero-allocation hot-path discipline at review time.
//
// Usage:
//
//	flitvet [-run analyzers] [-dir dir] [-list] [-v] packages...
//
// Packages are `go list` patterns (typically ./...). flitvet exits 0
// when no unsuppressed findings remain, 1 when there are findings, and
// 2 on usage or load errors. Suppress an individual finding with
//
//	//flitvet:ignore <analyzer> <reason>
//
// on the flagged line, the line above it, or in the enclosing
// function's doc comment. The reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"

	"flit/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("flitvet", flag.ContinueOnError)
	var (
		runList = fs.String("run", "", "comma-separated analyzers to run (default: all)")
		dir     = fs.String("dir", ".", "directory to resolve package patterns in")
		list    = fs.Bool("list", false, "list analyzers and exit")
		verbose = fs.Bool("v", false, "print per-package progress")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: flitvet [-run analyzers] [-dir dir] [-list] [-v] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	analyzers, err := analysis.ByName(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flitvet:", err)
		return 2
	}
	pkgs, err := analysis.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flitvet:", err)
		return 2
	}
	findings := 0
	loadErrs := 0
	for _, pkg := range pkgs {
		if *verbose {
			fmt.Fprintf(os.Stderr, "flitvet: checking %s\n", pkg.PkgPath)
		}
		for _, e := range pkg.LoadErrors {
			fmt.Fprintf(os.Stderr, "flitvet: %s: load error: %s\n", pkg.PkgPath, e)
			loadErrs++
		}
		for _, d := range analysis.Run(pkg, analyzers) {
			fmt.Println(d)
			findings++
		}
	}
	if loadErrs > 0 {
		return 2
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "flitvet: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
