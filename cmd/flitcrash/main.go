// Command flitcrash runs crash-recovery validation in two modes.
//
// The default mode is the systematic enumerator (internal/dlcheck): one
// recorded execution per round is checked at every PWB/PFence boundary
// (bounded by -dlbudget) across the structures, the durable queue and the
// sharded store — the fenced prefix at each boundary, and an image in
// which the lines the draining fence still held persist out of order. On
// a violation the minimal repro trace (crash boundary + truncated
// schedule + recovered-state diff) is printed and, with -dltrace, written
// to a file for CI artifacts.
//
// With -chaos it runs the service-boundary battery (internal/crashtest
// chaos harness): real client pipelines against the network server under
// injected transport faults (resets, partial writes, delays, blackholes),
// admission-control overload, and mid-run drain; the store then crashes
// (DropUnfenced) and every acknowledged operation must survive recovery.
// Each run also replays a deliberately broken drain that acks without
// executing — the battery must flag it, or the run fails as toothless.
// Failure traces go to -chaostrace.
//
// A non-zero exit means a violation was found.
//
// Usage:
//
//	flitcrash -rounds 2 -dlbudget 64 -dltrace dlcheck-trace.txt
//	flitcrash -ds bst -mode manual -policy flit-adjacent -rounds 5 -v
//	flitcrash -ds store -dlbudget 0
//	flitcrash -chaos -rounds 2 -chaostrace chaos-trace.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"flit/internal/core"
	"flit/internal/crashtest"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/store"
)

func policyByName(name string, words int) core.Policy {
	// The no-persist baseline fails durable-linearizability checks by
	// design; running it here would report its losses as violations.
	if name == core.PolicyNoPersist {
		fmt.Fprintf(os.Stderr, "flitcrash: policy %q cannot pass a crash check by design; pick a persisting policy\n", name)
		os.Exit(2)
	}
	// Crash testing wants small counter tables: collisions only add
	// flushes, and small tables stress the hashing harder.
	htBytes := 1 << 14
	if name == core.PolicyPacked {
		htBytes = 1 << 12
	}
	pol, err := core.NewPolicyByName(name, words, htBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flitcrash: %v\n", err)
		os.Exit(2)
	}
	return pol
}

func modeByName(name string) dstruct.Mode {
	m, ok := dstruct.ModeByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "flitcrash: unknown mode %q (known: %v)\n", name, dstruct.Modes)
		os.Exit(2)
	}
	return m
}

// policiesFor lists the policies a battery runs against one target: the
// -policy filter alone when set (nothing when it cannot apply there),
// otherwise base plus link-and-persist where the target admits it.
func policiesFor(filter string, withLAP bool, base ...string) []string {
	switch {
	case filter == core.PolicyLAP && !withLAP:
		return nil // inapplicable (general stores, not CAS-only): skip, don't panic
	case filter != "":
		return []string{filter}
	case withLAP:
		return append(base, core.PolicyLAP)
	}
	return base
}

// modesFor lists the durability modes a battery runs: all, or the -mode
// filter's one.
func modesFor(filter string) []dstruct.Mode {
	if filter != "" {
		return []dstruct.Mode{modeByName(filter)}
	}
	return dstruct.Modes
}

func main() {
	rounds := flag.Int("rounds", 2, "seeded runs per combination")
	dsFilter := flag.String("ds", "", "restrict to one structure or service (list|hashtable|skiplist|bst|lockmap|queue|store|store-batched|store-combined|store-reshard)")
	modeFilter := flag.String("mode", "", "restrict to one durability mode (automatic|nvtraverse|manual)")
	polFilter := flag.String("policy", "", "restrict to one policy (flit-ht|flit-adjacent|flit-packed|flit-perline|plain|izraelevitz|link-and-persist)")
	seed0 := flag.Int64("seed", 1, "first seed")
	verbose := flag.Bool("v", false, "print every run")
	dlBudget := flag.Int("dlbudget", 512, "crash points checked per run (0 = every boundary)")
	dlTrace := flag.String("dltrace", "", "write violation repro traces to this file")
	chaos := flag.Bool("chaos", false, "chaos mode: fault-injected client/server scenarios, crash, recover, check acked ops")
	chaosTrace := flag.String("chaostrace", "", "write chaos failure traces to this file (chaos mode)")
	flag.Parse()

	if *chaos {
		os.Exit(runChaos(*rounds, *seed0, *polFilter, *chaosTrace, *verbose))
	}
	os.Exit(runDLCheck(*rounds, *dsFilter, *modeFilter, *polFilter, *seed0, *dlBudget, *dlTrace, *verbose))
}

// runDLCheck drives the systematic battery: structures × modes ×
// policies, the durable queue, and the sharded store under each session
// mode and recovered through a reshard, each recorded execution checked
// at every (budgeted) persist boundary.
func runDLCheck(rounds int, dsFilter, modeFilter, polFilter string, seed0 int64, budget int, tracePath string, verbose bool) int {
	start := time.Now()
	total, points, records := 0, 0, 0
	var violations []string

	// each runs one seeded, budgeted check per round and tallies it.
	each := func(name string, check func(opts dlcheck.Options) *dlcheck.Report) {
		for r := 0; r < rounds; r++ {
			opts := dlcheck.DefaultOptions(seed0 + int64(r))
			opts.Budget = budget
			rep := check(opts)
			total++
			points += rep.Points
			records += rep.Records
			if rep.Violation != nil {
				violations = append(violations, rep.Violation.Error())
				fmt.Printf("VIOLATION %s seed=%d\n%v\n", name, opts.Seed, rep.Violation)
			} else if verbose {
				fmt.Printf("ok %s seed=%d records=%d fences=%d points=%d ops=%d\n",
					name, opts.Seed, rep.Records, rep.Fences, rep.Points, rep.Ops)
			}
		}
	}
	modes := modesFor(modeFilter)
	// Validate the policy filter once, up front: policyByName rejects
	// unknown names and the by-design-failing no-persist baseline, so the
	// store path (which constructs policies via store.New, not
	// policyByName) can't report a usage error as a violation.
	if polFilter != "" {
		policyByName(polFilter, dlcheck.Words)
	}
	polNamesFor := func(withLAP bool) []string {
		return policiesFor(polFilter, withLAP, core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyIz)
	}

	for _, target := range crashtest.Targets() {
		if dsFilter != "" && target.Name != dsFilter {
			continue
		}
		for _, mode := range modes {
			for _, polName := range polNamesFor(target.WithLAP) {
				each(fmt.Sprintf("%s/%s/%s", target.Name, mode, polName), func(opts dlcheck.Options) *dlcheck.Report {
					return dlcheck.RunSet(dlcheck.NewConfig(policyByName(polName, dlcheck.Words), mode), target.Target, opts)
				})
			}
		}
	}

	// The queue passes explicit pflags (manual durability); honor a -mode
	// filter by treating its runs as manual-only. Link-and-persist
	// applies (CAS-only stores).
	if (dsFilter == "" || dsFilter == "queue") && (modeFilter == "" || modeByName(modeFilter) == dstruct.Manual) {
		for _, polName := range polNamesFor(true) {
			each("queue/"+polName, func(opts dlcheck.Options) *dlcheck.Report {
				opts.OpsPerWorker = 8 // whole-history FIFO search
				return crashtest.RunQueueDL(dlcheck.NewConfig(policyByName(polName, dlcheck.Words), dstruct.Manual), opts)
			})
		}
	}

	// The sharded store, once per way of reaching it. Link-and-persist
	// applies at service granularity too, so the failed-p-CAS dirty-flush
	// path is checked here as well.
	for _, sv := range []struct {
		name      string
		mode      store.SessionMode
		reshardTo int
	}{
		{"store", store.Direct, 0},            // per-op persistence
		{"store-batched", store.Batched, 0},   // the server's group-commit executor
		{"store-combined", store.Combined, 0}, // the embedded flat-combining path
		// Every crash state of live 4-shard traffic recovered through a
		// reshard to 6 (non-doubling, so keys move between the old shards
		// as well as into new ones).
		{"store-reshard", store.Direct, 6},
		{"store-reshard", store.Combined, 6},
	} {
		if dsFilter != "" && dsFilter != sv.name {
			continue
		}
		for _, mode := range modes {
			for _, polName := range polNamesFor(true) {
				each(fmt.Sprintf("%s/%s/%s", sv.name, mode, polName), func(opts dlcheck.Options) *dlcheck.Report {
					st, err := crashtest.NewDLStore(polName, mode)
					if err != nil {
						fmt.Fprintf(os.Stderr, "flitcrash: %v\n", err)
						os.Exit(2)
					}
					return crashtest.RunStoreDL(st, sv.mode, sv.reshardTo, opts)
				})
			}
		}
	}

	if total == 0 {
		fmt.Fprintf(os.Stderr, "flitcrash: no runs matched -ds %q / -mode %q / -policy %q (structures: list|hashtable|skiplist|lockmap|bst|queue|store|store-batched|store-combined|store-reshard; the queue is manual-only, link-and-persist applies only to list|hashtable|skiplist|lockmap|queue)\n",
			dsFilter, modeFilter, polFilter)
		return 2
	}
	fmt.Printf("flitcrash: %d runs, %d persist records, %d crash points checked, %d violations, %v\n",
		total, records, points, len(violations), time.Since(start).Round(time.Millisecond))
	if len(violations) > 0 {
		if tracePath != "" {
			if err := os.WriteFile(tracePath, []byte(strings.Join(violations, "\n\n")), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "flitcrash: writing %s: %v\n", tracePath, err)
			} else {
				fmt.Printf("flitcrash: repro traces written to %s\n", tracePath)
			}
		}
		return 1
	}
	return 0
}
