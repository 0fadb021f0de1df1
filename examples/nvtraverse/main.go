// nvtraverse: the three durability methods of the paper, side by side on
// the same BST workload — automatic (every instruction persisted),
// NVTraverse (volatile traversals), and manual (hand-tuned) — showing how
// many flushes each issues and what that does to throughput, with and
// without FliT.
//
// Run: go run ./examples/nvtraverse
package main

import (
	"fmt"
	"os"
	"time"

	"flit/internal/bench"
	"flit/internal/core"
	"flit/internal/dstruct"
)

func main() {
	fmt.Println("BST, 10K keys, 5% updates, one run per durability method")
	fmt.Println()
	fmt.Printf("%-12s %-16s %14s %12s\n", "durability", "policy", "throughput", "pwbs/op")
	var cells []bench.SetCell
	for _, mode := range dstruct.Modes {
		for _, pol := range []string{core.PolicyPlain, core.PolicyHT} {
			cells = append(cells, bench.SetCell{DS: "bst", Policy: pol, Mode: mode, KeyRange: 10_000, UpdatePct: 5})
		}
	}
	// One 200 ms run per cell, no warm-up window.
	rep, err := bench.Matrix{Name: "nvtraverse", Threads: 2, Duration: 200 * time.Millisecond, Warmup: -1, Repeats: 1, Set: cells}.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvtraverse:", err)
		os.Exit(1)
	}
	for _, c := range cells {
		fmt.Printf("%-12s %-16s %11.2f Mops %12.3f\n",
			c.Mode, c.Policy, rep.Mean(c.ID()+"/throughput")/1e6, rep.Mean(c.ID()+"/pwbs_per_op"))
	}
	fmt.Println()
	fmt.Println("Reading the table like the paper does (§6.4):")
	fmt.Println(" - automatic+plain flushes on every load: the naive durable BST")
	fmt.Println(" - automatic+flit skips nearly all of them: durability almost for free")
	fmt.Println(" - nvtraverse/manual shrink the p-instruction set; FliT still helps,")
	fmt.Println("   because the remaining p-loads flush only while a store is pending")
}
