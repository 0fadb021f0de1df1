// Command flitaudit runs data-structure workloads under the runtime P-V
// Interface auditor (internal/audit): every instruction's dependencies
// are tracked per Definition 1 of the paper, and any shared store or
// operation completion whose dependencies are not persisted is reported
// with the offending address — the tool to reach for when a new
// durability-mode pflag assignment misbehaves.
//
// Usage:
//
//	flitaudit                 # audit every structure x durability mode
//	flitaudit -ds bst -mode manual -ops 5000
package main

import (
	"flag"
	"fmt"
	"os"

	"flit/internal/audit"
	"flit/internal/dstruct"
	"flit/internal/dstruct/bst"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/dstruct/lockmap"
	"flit/internal/dstruct/queue"
	"flit/internal/dstruct/skiplist"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

var structures = []string{"list", "hashtable", "skiplist", "bst", "lockmap", "queue"}

func main() {
	dsFilter := flag.String("ds", "", "restrict to one structure (list|hashtable|skiplist|bst|lockmap|queue)")
	modeFilter := flag.String("mode", "", "restrict to one durability mode (automatic|nvtraverse|manual)")
	ops := flag.Int("ops", 2000, "operations per audited run")
	keys := flag.Int("keys", 97, "key range")
	flag.Parse()

	failures := 0
	for _, name := range structures {
		if *dsFilter != "" && name != *dsFilter {
			continue
		}
		for _, mode := range dstruct.Modes {
			if *modeFilter != "" && mode.String() != *modeFilter {
				continue
			}
			mcfg := pmem.DefaultConfig(1 << 22)
			mcfg.PWBCost, mcfg.PFenceCost, mcfg.PFenceEntryCost = 0, 0, 0
			mem := pmem.New(mcfg)
			aud := audit.NewFliT(1<<16, mem)
			cfg := dstruct.Config{
				Heap: pheap.New(mem), Policy: aud, Mode: mode,
				RootSlot: 0, Stride: dstruct.StrideFor(aud.Inner),
			}
			runWorkload(name, cfg, *ops, uint64(*keys))
			vs := aud.Violations()
			status := "ok"
			if len(vs) > 0 {
				status = fmt.Sprintf("%d VIOLATIONS", len(vs))
				failures++
			}
			fmt.Printf("%-10s %-11s %6d ops  %s\n", name, mode, *ops, status)
			for i, v := range vs {
				if i == 3 {
					fmt.Printf("   ... %d more\n", len(vs)-3)
					break
				}
				fmt.Printf("   %v\n", v)
			}
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func runWorkload(name string, cfg dstruct.Config, ops int, keys uint64) {
	if name == "queue" {
		q := queue.New(cfg)
		th := q.NewThread()
		defer th.Close()
		for i := 0; i < ops; i++ {
			if i%3 == 0 {
				th.Dequeue()
			} else {
				th.Enqueue(uint64(i))
			}
		}
		return
	}
	var set dstruct.Set
	switch name {
	case "list":
		set = list.New(cfg)
	case "hashtable":
		set = hashtable.New(cfg, 16)
	case "skiplist":
		set = skiplist.New(cfg)
	case "bst":
		set = bst.New(cfg)
	case "lockmap":
		set = lockmap.New(cfg, 16)
	}
	th := set.NewThread()
	defer th.Close()
	for i := 0; i < ops; i++ {
		k := uint64(i*7) % keys
		switch i % 3 {
		case 0:
			th.Insert(k, k)
		case 1:
			th.Delete(k)
		default:
			th.Contains(k)
		}
	}
}
