package queue

import (
	"math/rand"
	"sync"
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

func mkCfg(pol core.Policy, words int) dstruct.Config {
	mc := pmem.DefaultConfig(words)
	mc.PWBCost, mc.PFenceCost, mc.PFenceEntryCost = 0, 0, 0
	return dstruct.Config{
		Heap: pheap.New(pmem.New(mc)), Policy: pol,
		Mode: dstruct.Manual, RootSlot: 0, Stride: dstruct.StrideFor(pol),
	}
}

func policies(words int) []core.Policy {
	return []core.Policy{
		core.NewFliT(core.NewHashTable(1 << 14)),
		core.NewFliT(core.Adjacent{}),
		core.Plain{},
		core.Izraelevitz{},
		core.LinkAndPersist{}, // the queue uses only CAS stores
	}
}

func TestFIFOSequential(t *testing.T) {
	for _, pol := range policies(1 << 18) {
		t.Run(pol.Name(), func(t *testing.T) {
			q := New(mkCfg(pol, 1<<18))
			th := q.NewThread()
			if _, ok := th.Dequeue(); ok {
				t.Fatal("empty queue dequeued")
			}
			for i := uint64(1); i <= 100; i++ {
				th.Enqueue(i)
			}
			for i := uint64(1); i <= 100; i++ {
				v, ok := th.Dequeue()
				if !ok || v != i {
					t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if _, ok := th.Dequeue(); ok {
				t.Fatal("drained queue dequeued")
			}
		})
	}
}

func TestConcurrentCounts(t *testing.T) {
	q := New(mkCfg(core.NewFliT(core.NewHashTable(1<<14)), 1<<22))
	const workers = 4
	const per = 3000
	var deqCount [workers]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := q.NewThread()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				if rng.Intn(2) == 0 {
					th.Enqueue(uint64(w*per + i + 1))
				} else if _, ok := th.Dequeue(); ok {
					deqCount[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	// Conservation: live + dequeued = enqueued.
	th := q.NewThread()
	live := 0
	for {
		if _, ok := th.Dequeue(); !ok {
			break
		}
		live++
	}
	enq := 0
	for w := 0; w < workers; w++ {
		enq += deqCount[w]
	}
	_ = enq
	if got := len(q.Snapshot()); got != 0 {
		t.Fatalf("snapshot shows %d live after drain", got)
	}
}

func TestPerThreadFIFOOrder(t *testing.T) {
	// Elements enqueued by one thread must dequeue in that thread's order.
	q := New(mkCfg(core.NewFliT(core.NewHashTable(1<<14)), 1<<22))
	const workers = 3
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := q.NewThread()
			for i := 0; i < per; i++ {
				th.Enqueue(uint64(w)<<32 | uint64(i))
			}
		}(w)
	}
	wg.Wait()
	th := q.NewThread()
	lastSeen := map[uint64]int64{0: -1, 1: -1, 2: -1}
	for {
		v, ok := th.Dequeue()
		if !ok {
			break
		}
		wid, seq := v>>32, int64(v&0xFFFFFFFF)
		if seq <= lastSeen[wid] {
			t.Fatalf("worker %d out of order: %d after %d", wid, seq, lastSeen[wid])
		}
		lastSeen[wid] = seq
	}
}

func TestCrashRecovery(t *testing.T) {
	for _, pol := range policies(1 << 20) {
		t.Run(pol.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				cfg := mkCfg(pol, 1<<20)
				q := New(cfg)

				// Concurrent enqueuers/dequeuers crash at seeded countdowns.
				const workers = 3
				type log struct {
					enq []uint64 // acknowledged enqueues, in order
					deq []uint64 // acknowledged dequeue results
				}
				logs := make([]log, workers)
				rng := rand.New(rand.NewSource(seed))
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int, crashAt int64, wseed int64) {
						defer wg.Done()
						th := q.NewThread()
						th.Ctx().T.SetCrashAfter(crashAt)
						wrng := rand.New(rand.NewSource(wseed))
						pmem.RunToCrash(func() {
							for i := 0; i < 400; i++ {
								if wrng.Intn(3) != 0 {
									v := uint64(w+1)<<32 | uint64(i)
									th.Enqueue(v)
									logs[w].enq = append(logs[w].enq, v)
								} else if v, ok := th.Dequeue(); ok {
									logs[w].deq = append(logs[w].deq, v)
								}
							}
						})
					}(w, 200+rng.Int63n(3000), rng.Int63())
				}
				wg.Wait()

				img := cfg.Heap.Mem().CrashImage(pmem.RandomSubset, seed)
				mem2 := pmem.NewFromImage(img, cfg.Heap.Mem().Config())
				cfg2 := cfg
				cfg2.Heap = pheap.Recover(mem2, cfg.Heap.Watermark())
				q2 := Recover(cfg2)
				recovered := q2.Snapshot()

				// (1) No duplication: recovered ∪ dequeued has unique values.
				seen := map[uint64]bool{}
				for _, v := range recovered {
					if seen[v] {
						t.Fatalf("seed %d: value %#x recovered twice", seed, v)
					}
					seen[v] = true
				}
				deqd := map[uint64]bool{}
				for w := range logs {
					for _, v := range logs[w].deq {
						if seen[v] {
							t.Fatalf("seed %d: value %#x both dequeued and recovered", seed, v)
						}
						if deqd[v] {
							t.Fatalf("seed %d: value %#x dequeued twice", seed, v)
						}
						deqd[v] = true
					}
				}
				// (2) Every acknowledged enqueue survives somewhere, except
				// those a dequeue (acknowledged or in-flight: <= workers)
				// may have taken.
				missing := 0
				for w := range logs {
					for _, v := range logs[w].enq {
						if !seen[v] && !deqd[v] {
							missing++
						}
					}
				}
				if missing > workers {
					t.Fatalf("seed %d: %d acknowledged enqueues vanished (> %d possible in-flight dequeues)",
						seed, missing, workers)
				}
				// (3) Per-thread FIFO order preserved among recovered values.
				pos := map[uint64]int{}
				for i, v := range recovered {
					pos[v] = i
				}
				for w := range logs {
					last := -1
					for _, v := range logs[w].enq {
						if p, ok := pos[v]; ok {
							if p < last {
								t.Fatalf("seed %d: worker %d FIFO order violated", seed, w)
							}
							last = p
						}
					}
				}
				// (4) The recovered queue stays operational.
				th := q2.NewThread()
				th.Enqueue(0xABC)
				found := false
				for {
					v, ok := th.Dequeue()
					if !ok {
						break
					}
					if v == 0xABC {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d: post-recovery enqueue lost", seed)
				}
			}
		})
	}
}

func TestValueRangePanics(t *testing.T) {
	q := New(mkCfg(core.Plain{}, 1<<14))
	th := q.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized value accepted")
		}
	}()
	th.Enqueue(core.PayloadMask + 1)
}

// TestDurableLinearizabilityEnumerated runs the systematic crash-point
// battery against the queue: whole-history FIFO checking at every
// PWB/PFence boundary of a recorded execution. This battery exercises the
// failed-p-CAS load obligation's home turf (the taken-mark skip path);
// the deterministic guard pinning that obligation per policy is
// core's TestFailedPCASFlushesObservedValue.
func TestDurableLinearizabilityEnumerated(t *testing.T) {
	for _, pol := range policies(1 << 16) {
		t.Run(pol.Name(), func(t *testing.T) {
			seeds := []int64{1, 2, 3}
			if testing.Short() {
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				// A fresh queue per seed: the enumerator's initial state
				// is its own prefill, so leftovers would read as phantoms.
				mc := pmem.DefaultConfig(1 << 16)
				mc.VirtualClock = true
				cfg := dstruct.Config{
					Heap: pheap.New(pmem.New(mc)), Policy: pol,
					Mode: dstruct.Manual, RootSlot: 0, Stride: dstruct.StrideFor(pol),
				}
				q := New(cfg)
				opts := dlcheck.DefaultOptions(seed)
				opts.OpsPerWorker = 8 // whole-history search: keep ops modest
				opts.Budget = 0
				rep := dlcheck.RunQueue(dlcheck.QueueHarness{
					Name: "queue", Mem: cfg.Heap.Mem(), Policy: cfg.Policy,
					NewSession: func() dlcheck.QueueSession { return q.NewThread() },
					Recover: func(img []uint64) ([]uint64, error) {
						cfg2 := cfg
						cfg2.Heap = pheap.Recover(pmem.NewFromImage(img, cfg.Heap.Mem().Config()), cfg.Heap.Watermark())
						return Recover(cfg2).Snapshot(), nil
					},
				}, opts)
				if rep.Violation != nil {
					t.Fatalf("seed %d: %v", seed, rep.Violation)
				}
				if rep.Records == 0 {
					t.Fatalf("seed %d: no persist records traced", seed)
				}
			}
		})
	}
}
