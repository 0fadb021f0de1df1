// kvstore: a durable key-value store on the FliT hash table, crashed in
// the middle of a concurrent write burst at instruction granularity —
// exactly where a power failure could land — then recovered and audited.
//
// Every acknowledged write must survive; writes that were still in flight
// may or may not (durable linearizability allows either).
//
// Run: go run ./examples/kvstore
package main

import (
	"fmt"
	"sync"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

func main() {
	mem := pmem.New(pmem.DefaultConfig(1 << 22))
	heap := pheap.New(mem)
	policy := core.NewFliT(core.NewHashTable(1 << 20))
	cfg := dstruct.Config{
		Heap: heap, Policy: policy,
		// NVTraverse mode: traversals stay volatile, decisive writes
		// persist — the store stays durable but much faster than naive
		// flushing.
		Mode:   dstruct.NVTraverse,
		Stride: dstruct.StrideFor(policy),
	}
	kv := hashtable.New(cfg, 1024)

	// Concurrent writers, each acknowledging writes as they complete.
	const writers = 4
	const perWriter = 500
	acked := make([][]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := kv.Open(dstruct.ThreadOpts{})
			// Crash this writer after a pseudo-random number of memory
			// instructions — mid-operation, wherever that lands.
			th.Ctx().T.SetCrashAfter(int64(1_500 + w*911))
			pmem.RunToCrash(func() {
				for i := 0; i < perWriter; i++ {
					key := uint64(w*perWriter + i)
					th.Insert(key, key*10)
					// Only acknowledged (completed) writes are promised.
					acked[w] = append(acked[w], key)
				}
			})
		}(w)
	}
	wg.Wait()
	total := 0
	for w := range acked {
		total += len(acked[w])
	}
	fmt.Printf("crash hit during the burst: %d writes acknowledged before power failure\n", total)

	// Materialize the persistent image and recover.
	watermark := heap.Watermark()
	image := mem.CrashImage(pmem.RandomSubset, 7) // evictions + lost write-backs
	mem2 := pmem.NewFromImage(image, mem.Config())
	cfg2 := cfg
	cfg2.Heap = pheap.Recover(mem2, watermark)
	kv2 := hashtable.Recover(cfg2)

	th := kv2.Open(dstruct.ThreadOpts{})
	defer th.Close()
	lost := 0
	for w := range acked {
		for _, key := range acked[w] {
			if v, ok := th.Get(key); !ok || v != key*10 {
				lost++
			}
		}
	}
	recovered := len(kv2.Snapshot())
	fmt.Printf("recovered store holds %d keys\n", recovered)
	if lost == 0 {
		fmt.Printf("all %d acknowledged writes survived the crash ✓\n", total)
	} else {
		fmt.Printf("DURABILITY VIOLATION: %d acknowledged writes lost ✗\n", lost)
	}
	if extra := recovered - total; extra > 0 {
		fmt.Printf("(%d in-flight writes also made it — allowed: they were never acknowledged)\n", extra)
	}
}
