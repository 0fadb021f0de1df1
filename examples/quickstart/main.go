// Quickstart: make a lock-free linked list durably linearizable with the
// FliT default (automatic) mode — the paper's Theorem 3.1 in action — then
// crash the machine and recover.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/list"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

func main() {
	// 1. Simulated NVRAM + persistent heap (PMDK's libvmmalloc in the
	//    paper). One million words is plenty here.
	mem := pmem.New(pmem.DefaultConfig(1 << 20))
	heap := pheap.New(mem)

	// 2. The FliT policy: Algorithm 4 over a 1MB hashed flit-counter
	//    table. Automatic mode makes *every* instruction a p-instruction —
	//    no algorithmic insight required, any linearizable structure
	//    becomes durably linearizable.
	policy := core.NewFliT(core.NewHashTable(1 << 20))
	cfg := dstruct.Config{
		Heap:   heap,
		Policy: policy,
		Mode:   dstruct.Automatic,
		Stride: dstruct.StrideFor(policy),
	}

	l := list.New(cfg)
	th := l.Open(dstruct.ThreadOpts{})
	defer th.Close()
	for k := uint64(1); k <= 10; k++ {
		th.Insert(k, k*100)
	}
	th.Delete(3)
	th.Delete(7)
	fmt.Println("before crash:", keys(l.Snapshot()), "(deleted 3 and 7)")

	// 3. Crash. DropUnfenced is the harshest model: anything not
	//    explicitly flushed+fenced is gone.
	watermark := heap.Watermark()
	image := mem.CrashImage(pmem.DropUnfenced, 42)
	fmt.Println("power failure! volatile state lost, reading back the persistent image...")

	// 4. Recover: rebuild the heap over the image and re-attach the list.
	mem2 := pmem.NewFromImage(image, mem.Config())
	heap2 := pheap.Recover(mem2, watermark)
	cfg2 := cfg
	cfg2.Heap = heap2
	l2 := list.Recover(cfg2)

	fmt.Println("after recovery:", keys(l2.Snapshot()))
	th2 := l2.Open(dstruct.ThreadOpts{})
	defer th2.Close()
	if v, ok := th2.Get(5); ok {
		fmt.Printf("recovered value for key 5: %d\n", v)
	}
	if !th2.Contains(3) && !th2.Contains(7) {
		fmt.Println("deleted keys stayed deleted: durable linearizability held")
	}
	// The recovered structure is fully operational.
	th2.Insert(11, 1100)
	fmt.Println("post-recovery insert works:", th2.Contains(11))
}

func keys(m map[uint64]uint64) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := uint64(0); k <= 20; k++ {
		if _, ok := m[k]; ok {
			out = append(out, k)
		}
	}
	return out
}
