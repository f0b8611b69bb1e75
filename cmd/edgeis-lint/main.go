// Command edgeis-lint is the multichecker for edgeis's custom static
// analyzers. It enforces the determinism and concurrency invariants the
// paper-fidelity claims rest on:
//
//	mapiter       no order-sensitive map iteration in seed-deterministic packages
//	walltime      no wall-clock reads where the virtual clock must be used
//	seedrand      no math/rand global state shared across experiment arms
//	floateq       no exact float equality in scheduler/geometry decisions
//	lockbalance   every Lock paired with an Unlock on every path; no silent
//	              unlock-relock dances inside a critical section
//	lockblock     no blocking operation (channel op, net.Conn I/O,
//	              Accelerator.Run) while a mutex is held
//	goroleak      goroutines in long-lived serving packages must be tied to a
//	              shutdown path (WaitGroup, done channel, drained range, select)
//	wgadd         WaitGroup.Add may not run inside the goroutine it accounts for
//
// Usage:
//
//	edgeis-lint [-run mapiter,floateq] [packages...]
//
// Packages default to ./.... Exit status is 0 for a clean tree, 1 when
// findings were reported, 2 on a loader or usage error. Findings are
// suppressed per line with //edgeis:<directive> <reason> comments; unused
// suppressions are themselves findings. See internal/lint and DESIGN.md
// §11 and §16 for the grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"edgeis/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("edgeis-lint", flag.ContinueOnError)
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: edgeis-lint [-run names] [-list] [packages...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-10s %s\n", a.Name, doc)
		}
		return 0
	}
	if *runList != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "edgeis-lint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgeis-lint: %v\n", err)
		return 2
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.CheckPackage(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgeis-lint: %s: %v\n", pkg.Path, err)
			return 2
		}
		for _, d := range diags {
			fmt.Printf("%s: %s [%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "edgeis-lint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
