package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"flit/internal/core"
	"flit/internal/crashtest"
	"flit/internal/store"
)

// runChaos drives the service-boundary chaos battery: every fault ×
// policy scenario must keep acked⇒persisted through a DropUnfenced
// crash, and the deliberately broken drain (the tooth) MUST be flagged —
// a battery that cannot catch the planted bug proves nothing about the
// real ones. Non-zero return: 1 = violation (or toothless battery),
// 2 = setup failure.
func runChaos(rounds int, seed0 int64, polFilter, tracePath string, verbose bool) int {
	polNames := []string{core.PolicyHT, core.PolicyAdjacent}
	if polFilter != "" {
		policyByName(polFilter, 1<<20) // validates the name, rejects no-persist
		polNames = []string{polFilter}
	}
	newStore := func(pol string) (*store.Store, error) {
		return store.New(store.Options{
			Shards: 4, ExpectedKeys: 1 << 12, Policy: pol,
			HTBytes: 1 << 16, VirtualClock: true,
		})
	}

	start := time.Now()
	total, toothRounds := 0, 0
	var failures []string
	fail := func(msg string) {
		failures = append(failures, msg)
		fmt.Println(msg)
	}

	for r := 0; r < rounds; r++ {
		seed := seed0 + int64(r)
		for _, pol := range polNames {
			// The standard scenarios must pass; the last cell is the
			// must-fail control — the broken drain has to be caught.
			scenarios := append(crashtest.ChaosScenarios(), crashtest.BrokenDrainScenario())
			for i, sc := range scenarios {
				tooth := i == len(scenarios)-1
				st, err := newStore(pol)
				if err != nil {
					fmt.Fprintf(os.Stderr, "flitcrash: %v\n", err)
					return 2
				}
				v, err := crashtest.RunStoreChaos(st, sc, seed)
				total++
				if tooth {
					toothRounds++
				}
				switch {
				case err != nil:
					fail(fmt.Sprintf("CHAOS ERROR %s/%s seed=%d: %v", sc.Name, pol, seed, err))
				case tooth && v.Violation == nil:
					fail(fmt.Sprintf("CHAOS TOOTHLESS %s seed=%d: broken drain was NOT detected (acked=%d shed=%d lost=%d)",
						pol, seed, v.Acked, v.Shed, v.Lost))
				case tooth:
					if verbose {
						fmt.Printf("ok chaos %s/%s seed=%d bit as required\n", sc.Name, pol, seed)
					}
				case v.Violation != nil:
					fail(fmt.Sprintf("CHAOS VIOLATION %s/%s seed=%d (acked=%d shed=%d lost=%d)\n%v",
						sc.Name, pol, seed, v.Acked, v.Shed, v.Lost, v.Violation))
				case v.Acked == 0:
					fail(fmt.Sprintf("CHAOS VACUOUS %s/%s seed=%d: no op was ever acked (shed=%d lost=%d)",
						sc.Name, pol, seed, v.Shed, v.Lost))
				case verbose:
					fmt.Printf("ok chaos %s/%s seed=%d acked=%d shed=%d lost=%d redials=%d\n",
						sc.Name, pol, seed, v.Acked, v.Shed, v.Lost, v.Redials)
				}
			}
		}
	}

	fmt.Printf("flitcrash -chaos: %d rounds (%d tooth), %d failures, %v\n",
		total, toothRounds, len(failures), time.Since(start).Round(time.Millisecond))
	if len(failures) > 0 {
		if tracePath != "" {
			if err := os.WriteFile(tracePath, []byte(strings.Join(failures, "\n\n")), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "flitcrash: writing %s: %v\n", tracePath, err)
			} else {
				fmt.Printf("flitcrash -chaos: failure traces written to %s\n", tracePath)
			}
		}
		return 1
	}
	return 0
}
