// taskqueue: a durable work queue (the Friedman et al. queue the paper
// cites in §4 as the example of volatile head/tail pointers). Producers
// enqueue jobs, consumers dequeue and acknowledge them, the machine
// crashes mid-stream, and after recovery no acknowledged job is lost and
// no completed job runs twice — exactly-once hand-off across a power
// failure.
//
// Run: go run ./examples/taskqueue
package main

import (
	"fmt"
	"sync"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/queue"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

func main() {
	mem := pmem.New(pmem.DefaultConfig(1 << 20))
	heap := pheap.New(mem)
	policy := core.NewFliT(core.NewHashTable(1 << 18))
	cfg := dstruct.Config{
		Heap: heap, Policy: policy,
		Mode: dstruct.Manual, Stride: dstruct.StrideFor(policy),
	}
	q := queue.New(cfg)

	var mu sync.Mutex
	produced := map[uint64]bool{} // acknowledged enqueues
	consumed := map[uint64]bool{} // acknowledged dequeues
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := q.NewThread()
			th.Ctx().T.SetCrashAfter(int64(2_000 + p*777))
			pmem.RunToCrash(func() {
				for i := 0; i < 1000; i++ {
					job := uint64(p*1000 + i + 1)
					th.Enqueue(job)
					mu.Lock()
					produced[job] = true
					mu.Unlock()
				}
			})
		}(p)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			th := q.NewThread()
			th.Ctx().T.SetCrashAfter(int64(1_500 + c*901))
			pmem.RunToCrash(func() {
				for {
					if job, ok := th.Dequeue(); ok {
						mu.Lock()
						consumed[job] = true
						mu.Unlock()
					}
				}
			})
		}(c)
	}
	wg.Wait()
	fmt.Printf("crash: %d jobs acknowledged-produced, %d acknowledged-consumed\n",
		len(produced), len(consumed))

	img := mem.CrashImage(pmem.RandomSubset, 3)
	mem2 := pmem.NewFromImage(img, mem.Config())
	cfg2 := cfg
	cfg2.Heap = pheap.Recover(mem2, heap.Watermark())
	q2 := queue.Recover(cfg2)

	// Drain the recovered queue and audit exactly-once delivery.
	th := q2.NewThread()
	defer th.Close()
	recovered := map[uint64]bool{}
	for {
		job, ok := th.Dequeue()
		if !ok {
			break
		}
		if recovered[job] {
			fmt.Printf("DUPLICATE job %d ✗\n", job)
			return
		}
		recovered[job] = true
	}
	lost, replayed := 0, 0
	for job := range produced {
		if !recovered[job] && !consumed[job] {
			lost++
		}
	}
	for job := range consumed {
		if recovered[job] {
			replayed++
		}
	}
	fmt.Printf("recovered queue delivered %d jobs\n", len(recovered))
	switch {
	case replayed > 0:
		fmt.Printf("%d completed jobs would run twice ✗\n", replayed)
	case lost > 2: // <= #consumers jobs may sit in a crashed consumer's hands
		fmt.Printf("%d acknowledged jobs lost ✗\n", lost)
	default:
		fmt.Println("no acknowledged job lost, no completed job replayed ✓")
	}
}
