package list

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/dstest"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// configs returns one list config per (policy, mode) combination worth
// unit-testing, each over a fresh heap.
func configs(words int) []dstruct.Config {
	var out []dstruct.Config
	policies := []core.Policy{
		core.NewFliT(core.NewHashTable(1 << 16)),
		core.NewFliT(core.Adjacent{}),
		core.NewFliT(core.NewPackedHashTable(1 << 12)),
		core.NewFliT(core.NewDirectMap(words)),
		core.NewPlain(),
		core.LinkAndPersist{},
		core.NoPersist{},
	}
	for _, pol := range policies {
		for _, mode := range dstruct.Modes {
			cfg := pmem.DefaultConfig(words)
			cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost = 0, 0, 0
			h := pheap.New(pmem.New(cfg))
			out = append(out, dstruct.Config{
				Heap: h, Policy: pol, Mode: mode, RootSlot: 0, Stride: dstruct.StrideFor(pol),
			})
		}
	}
	return out
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, cfg := range configs(1 << 18) {
		t.Run(cfg.Policy.Name()+"/"+cfg.Mode.String(), func(t *testing.T) {
			l := New(cfg)
			th := l.Open(dstruct.ThreadOpts{})
			model := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 4000; i++ {
				k := uint64(rng.Intn(64))
				switch rng.Intn(3) {
				case 0:
					v := uint64(i)
					_, inModel := model[k]
					if got := th.Insert(k, v); got != !inModel {
						t.Fatalf("op %d: Insert(%d) = %v, model says %v", i, k, got, !inModel)
					}
					if !inModel {
						model[k] = v
					}
				case 1:
					_, inModel := model[k]
					if got := th.Delete(k); got != inModel {
						t.Fatalf("op %d: Delete(%d) = %v, model says %v", i, k, got, inModel)
					}
					delete(model, k)
				case 2:
					_, inModel := model[k]
					if got := th.Contains(k); got != inModel {
						t.Fatalf("op %d: Contains(%d) = %v, model says %v", i, k, got, inModel)
					}
					if v, ok := th.Get(k); ok != inModel || (ok && v != model[k]) {
						t.Fatalf("op %d: Get(%d) = (%d,%v), model (%d,%v)", i, k, v, ok, model[k], inModel)
					}
				}
			}
			snap := l.Snapshot()
			if len(snap) != len(model) {
				t.Fatalf("snapshot has %d keys, model %d", len(snap), len(model))
			}
			for k, v := range model {
				if snap[k] != v {
					t.Fatalf("snapshot[%d] = %d, want %d", k, snap[k], v)
				}
			}
		})
	}
}

func TestConcurrentStress(t *testing.T) {
	// One flit config and link-and-persist, all modes, hammered by 4
	// goroutines on a small key range to maximize contention.
	for _, cfg := range configs(1 << 20) {
		if cfg.Policy.Name() != "flit-HT(64KB)" && cfg.Policy.Name() != "link-and-persist" {
			continue
		}
		cfg := cfg
		t.Run(cfg.Policy.Name()+"/"+cfg.Mode.String(), func(t *testing.T) {
			l := New(cfg)
			const workers = 4
			const iters = 4000
			var inserted, deleted [workers]int
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := l.Open(dstruct.ThreadOpts{})
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < iters; i++ {
						k := uint64(rng.Intn(32))
						switch rng.Intn(3) {
						case 0:
							if th.Insert(k, uint64(w)) {
								inserted[w]++
							}
						case 1:
							if th.Delete(k) {
								deleted[w]++
							}
						default:
							th.Contains(k)
						}
					}
				}(w)
			}
			wg.Wait()
			ins, del := 0, 0
			for w := 0; w < workers; w++ {
				ins += inserted[w]
				del += deleted[w]
			}
			if got := len(l.Snapshot()); got != ins-del {
				t.Fatalf("size %d, want inserts-deletes = %d-%d = %d", got, ins, del, ins-del)
			}
			// Chain must be sorted and mark-free after quiescence cleanup.
			keys := sortedKeys(l)
			for i := 1; i < len(keys); i++ {
				if keys[i] <= keys[i-1] {
					t.Fatalf("chain out of order at %d: %v", i, keys)
				}
			}
		})
	}
}

func sortedKeys(l *List) []uint64 {
	mem := l.cfg.Heap.Mem()
	var keys []uint64
	curr := dstruct.Ptr(mem.VolatileWord(l.cfg.Root()))
	for curr != pmem.NilAddr {
		raw := mem.VolatileWord(l.cfg.Field(curr, fNext))
		if !dstruct.Marked(raw) {
			keys = append(keys, mem.VolatileWord(l.cfg.Field(curr, fKey)))
		}
		curr = dstruct.Ptr(raw)
	}
	return keys
}

func TestRecoveryAfterCleanShutdown(t *testing.T) {
	for _, cfg := range configs(1 << 18) {
		if cfg.Policy.Name() == "no-persist" {
			continue
		}
		t.Run(cfg.Policy.Name()+"/"+cfg.Mode.String(), func(t *testing.T) {
			l := New(cfg)
			th := l.Open(dstruct.ThreadOpts{})
			model := map[uint64]uint64{}
			for i := uint64(0); i < 200; i++ {
				th.Insert(i, i*10)
				model[i] = i * 10
			}
			for i := uint64(0); i < 200; i += 3 {
				th.Delete(i)
				delete(model, i)
			}
			wm := cfg.Heap.Watermark()
			img := cfg.Heap.Mem().CrashImage(pmem.DropUnfenced, 1)

			mem2 := pmem.NewFromImage(img, cfg.Heap.Mem().Config())
			cfg2 := cfg
			cfg2.Heap = pheap.Recover(mem2, wm)
			l2 := Recover(cfg2)
			th2 := l2.Open(dstruct.ThreadOpts{})
			for k, v := range model {
				if got, ok := th2.Get(k); !ok || got != v {
					t.Fatalf("recovered Get(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
				}
			}
			for i := uint64(0); i < 200; i += 3 {
				if th2.Contains(i) {
					t.Fatalf("deleted key %d resurrected", i)
				}
			}
			// The recovered structure must stay fully operational.
			if !th2.Insert(1000, 1) || !th2.Contains(1000) || !th2.Delete(1000) {
				t.Fatal("recovered list not operational")
			}
		})
	}
}

// TestRecoveryIgnoresCycles corrupts a five-node chain into every cycle
// shape and checks that the gather terminates with each distinct unmarked
// node exactly once, in chain order, and that Recover rebuilds a clean
// chain from it.
func TestRecoveryIgnoresCycles(t *testing.T) {
	const mark = core.MarkBit
	type link struct {
		from, to int    // node[from].next = node[to] | flag
		flag     uint64 // mark carried by the corrupted link
	}
	for _, tc := range []struct {
		name  string
		links []link
		want  []uint64
	}{
		{"through-head", []link{{4, 0, 0}}, []uint64{1, 2, 3, 4, 5}},
		{"two-node", []link{{1, 0, 0}}, []uint64{1, 2}},
		{"rho", []link{{4, 2, 0}}, []uint64{1, 2, 3, 4, 5}},
		{"rho-long-tail", []link{{4, 3, 0}}, []uint64{1, 2, 3, 4, 5}},
		{"self-loop-head", []link{{0, 0, 0}}, []uint64{1}},
		{"self-loop-inner", []link{{3, 3, 0}}, []uint64{1, 2, 3, 4}},
		{"marked-node-closes-cycle", []link{{4, 1, mark}}, []uint64{1, 2, 3, 4}},
		{"marked-node-inside-cycle", []link{{2, 3, mark}, {4, 1, 0}}, []uint64{1, 2, 4, 5}},
		{"marked-self-loop", []link{{2, 2, mark}}, []uint64{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := configs(1 << 14)[0]
			th := New(cfg).Open(dstruct.ThreadOpts{})
			for k := uint64(1); k <= 5; k++ {
				th.Insert(k, k*10)
			}
			mem := cfg.Heap.Mem()
			// chain follows the links from the root, giving up (a chain that
			// should have ended has not) after eight nodes.
			chain := func() []pmem.Addr {
				var nodes []pmem.Addr
				for n := dstruct.Ptr(mem.VolatileWord(cfg.Root())); n != pmem.NilAddr && len(nodes) < 8; n = dstruct.Ptr(mem.VolatileWord(cfg.Field(n, fNext))) {
					nodes = append(nodes, n)
				}
				return nodes
			}
			node := chain()
			raw := mem.RegisterThread()
			for _, l := range tc.links {
				raw.Store(cfg.Field(node[l.from], fNext), uint64(node[l.to])|l.flag)
			}

			sentinel := Pair{Key: 99, Val: 99}
			got, _, clean, _ := GatherAt(&cfg, cfg.Root(), []Pair{sentinel}, true)
			if clean {
				t.Fatal("gather called a bent chain clean: recovery would keep it")
			}
			if got[0] != sentinel {
				t.Fatalf("gather overwrote the caller's prefix: %v", got[0])
			}
			var keys []uint64
			for _, p := range got[1:] {
				if p.Val != p.Key*10 {
					t.Fatalf("pair %v carries the wrong value", p)
				}
				keys = append(keys, p.Key)
			}
			if !slices.Equal(keys, tc.want) {
				t.Fatalf("gather on a cyclic chain returned keys %v, want %v", keys, tc.want)
			}

			// Rebuilt from the same image: a nil-terminated chain holding
			// each surviving key in exactly one node.
			l2 := Recover(cfg)
			var rebuilt []uint64
			for _, n := range chain() {
				rebuilt = append(rebuilt, mem.VolatileWord(cfg.Field(n, fKey)))
			}
			if !slices.Equal(rebuilt, tc.want) {
				t.Fatalf("rebuilt chain holds %v, want %v", rebuilt, tc.want)
			}
			if snap := l2.Snapshot(); len(snap) != len(tc.want) {
				t.Fatalf("recovered snapshot has %d keys, want %d", len(snap), len(tc.want))
			}
		})
	}
}

// TestRecoverPublishesHeadAfterNodes cuts the power at every persist
// record of a list recovery, and additionally lets each fence's LAST line
// land alone (write-backs of one fence may reach memory in any order): the
// image must always recover to the full list. Under one fence for nodes
// and head, the head's line landing first points the list at nodes the
// image never received.
func TestRecoverPublishesHeadAfterNodes(t *testing.T) {
	cfg := configs(1 << 14)[0]
	th := New(cfg).Open(dstruct.ThreadOpts{})
	const keys = 40
	for k := uint64(0); k <= keys; k++ {
		th.Insert(k, k*10)
	}
	// Key 0 is cut between its Delete's marking CAS and the unlink: a
	// marked node makes the chain dirty, so recovery rebuilds it.
	raw := cfg.Heap.Mem().RegisterThread()
	mark := cfg.Field(dstruct.Ptr(raw.Load(cfg.Root())), fNext)
	raw.Store(mark, raw.Load(mark)|core.MarkBit)
	raw.PWB(mark)
	raw.PFence()
	wm := cfg.Heap.Watermark()
	img := cfg.Heap.Mem().CrashImage(pmem.DropUnfenced, 1)
	recoverOn := func(img []uint64) (dstruct.Config, *pmem.Memory) {
		mem := pmem.NewFromImage(img, cfg.Heap.Mem().Config())
		cfg2 := cfg
		cfg2.Heap = pheap.Recover(mem, wm)
		return cfg2, mem
	}
	cfg2, mem2 := recoverOn(img)
	var clock int64
	tr := mem2.StartTrace(func() int64 { clock++; return clock })
	Recover(cfg2)
	mem2.StopTrace()
	recs := tr.Records()
	t.Logf("%d persist records", len(recs))
	if len(recs) == 0 {
		t.Fatal("the recovery persisted nothing: the sweep has no boundary to cut")
	}

	check := func(img []uint64, what string) {
		t.Helper()
		cfg3, _ := recoverOn(img)
		Recover(cfg3)
		if got, _, _, _ := GatherAt(&cfg3, cfg3.Root(), nil, true); len(got) != keys {
			t.Fatalf("%s: recovered %d keys, want %d", what, len(got), keys)
		}
	}
	img = append([]uint64(nil), img...)
	for k := 0; ; k++ {
		check(img, fmt.Sprintf("crash before record %d of %d", k, len(recs)))
		if k == len(recs) {
			break
		}
		if k == 0 || recs[k-1].Epoch != recs[k].Epoch {
			last := k
			for last+1 < len(recs) && recs[last+1].Epoch == recs[k].Epoch {
				last++
			}
			alone := append([]uint64(nil), img...)
			pmem.ApplyRecord(alone, recs[last])
			check(alone, fmt.Sprintf("only the last line of the fence draining records %d–%d", k, last))
		}
		pmem.ApplyRecord(img, recs[k])
	}
}

// TestGatherJudgesClean: a chain as inserts leave it is clean, and each
// word a rebuild would write differently makes it dirty — a flag bit on the
// head or on a next link, keys out of order, and under flit-adjacent a
// non-zero counter word beside any field. A clean chain's end is one past
// its highest node.
func TestGatherJudgesClean(t *testing.T) {
	const ht, adjacent = 0, 3 // configs' first flit-HT and flit-adjacent entries
	for _, tc := range []struct {
		name  string
		cfg   int
		bend  func(cfg *dstruct.Config, head pmem.Addr, nodes []pmem.Addr) pmem.Addr // the word to set a bit in
		clean bool
	}{
		{"as-inserted", ht, nil, true},
		{"head-flag", ht, func(_ *dstruct.Config, head pmem.Addr, _ []pmem.Addr) pmem.Addr { return head }, false},
		{"next-flag", ht, func(c *dstruct.Config, _ pmem.Addr, n []pmem.Addr) pmem.Addr { return c.Field(n[2], fNext) }, false},
		{"key-order", ht, func(c *dstruct.Config, _ pmem.Addr, n []pmem.Addr) pmem.Addr { return c.Field(n[2], fKey) }, false},
		{"adjacent/as-inserted", adjacent, nil, true},
		{"adjacent/key-counter", adjacent, func(c *dstruct.Config, _ pmem.Addr, n []pmem.Addr) pmem.Addr { return c.Field(n[3], fKey) + 1 }, false},
		{"adjacent/next-counter", adjacent, func(c *dstruct.Config, _ pmem.Addr, n []pmem.Addr) pmem.Addr { return c.Field(n[4], fNext) + 1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := configs(1 << 14)[tc.cfg]
			th := New(cfg).Open(dstruct.ThreadOpts{})
			for k := uint64(1); k <= 6; k++ {
				th.Insert(k*2, k)
			}
			th.Close()
			mem := cfg.Heap.Mem()
			var nodes []pmem.Addr
			for n := dstruct.Ptr(mem.VolatileWord(cfg.Root())); n != pmem.NilAddr; n = dstruct.Ptr(mem.VolatileWord(cfg.Field(n, fNext))) {
				nodes = append(nodes, n)
			}
			if tc.bend != nil {
				// A set bit 62 is a flag bit on a link, and puts a key above
				// every later one.
				a := tc.bend(&cfg, cfg.Root(), nodes)
				mem.SetVolatileWord(a, mem.VolatileWord(a)|core.DirtyBit)
			}
			pairs, n, clean, end := GatherAt(&cfg, cfg.Root(), nil, true)
			if clean != tc.clean {
				t.Fatalf("GatherAt judged the chain clean=%v, want %v", clean, tc.clean)
			}
			if len(pairs) != len(nodes) || n != len(nodes) {
				t.Fatalf("gathered %d pairs and counted %d from %d nodes", len(pairs), n, len(nodes))
			}
			if want := slices.Max(nodes) + pmem.Addr(cfg.Words(NumFields)); end != want {
				t.Fatalf("GatherAt reported end %d, want %d (one past the highest node)", end, want)
			}
			// Without all, a clean chain is only counted, and a dirty one is
			// copied whole: the nodes walked before the bent word too.
			want := pairs
			if clean {
				want = nil
			}
			got, n2, clean2, end2 := GatherAt(&cfg, cfg.Root(), nil, false)
			if !slices.Equal(got, want) || n2 != n || clean2 != clean || end2 != end {
				t.Fatalf("GatherAt without all copied %v, counted %d, clean=%v, end %d; want %v, %d, %v, %d", got, n2, clean2, end2, want, n, clean, end)
			}
		})
	}
}

// TestRecoverKeepsCleanChainInPlace: recovering a clean image writes and
// fences nothing, and leaves every node where it was — even with a stale
// watermark below the chain, which the recovery must raise past it: new
// inserts after it then cannot land on a kept node.
func TestRecoverKeepsCleanChainInPlace(t *testing.T) {
	cfg := configs(1 << 14)[0]
	th := New(cfg).Open(dstruct.ThreadOpts{})
	const keys = 40
	for k := uint64(1); k <= keys; k++ {
		th.Insert(k, k*10)
	}
	th.Close()
	img := cfg.Heap.Mem().CrashImage(pmem.DropUnfenced, 1)
	mem := pmem.NewFromImage(img, cfg.Heap.Mem().Config())
	cfg2 := cfg
	cfg2.Heap = pheap.Recover(mem, 0) // stale: below every node
	before, _, _, end := GatherAt(&cfg2, cfg2.Root(), nil, true)
	l2 := Recover(cfg2)
	if s := mem.TotalStats(); s.PWBs != 0 || s.PFences != 0 {
		t.Fatalf("recovering a clean chain issued %d PWBs and %d PFences, want none", s.PWBs, s.PFences)
	}
	if wm := cfg2.Heap.Watermark(); wm < uint64(end) {
		t.Fatalf("watermark %d after recovery is below the kept chain's end %d", wm, end)
	}
	th2 := l2.Open(dstruct.ThreadOpts{})
	for k := uint64(keys + 1); k <= 2*keys; k++ {
		th2.Insert(k, k*10)
	}
	th2.Close()
	after, _, _, _ := GatherAt(&cfg2, cfg2.Root(), nil, true)
	if !slices.Equal(after[:keys], before) || len(after) != 2*keys {
		t.Fatalf("after recovery and %d fresh inserts the chain holds %v, want the %d kept pairs first", keys, after, keys)
	}
}

// TestRebuildKeepsLastOfEqualKeys pins the duplicate rule a merge of
// several tables' gathers relies on: of equal keys the last one wins, and
// the count returned is of nodes written, not of pairs handed in.
func TestRebuildKeepsLastOfEqualKeys(t *testing.T) {
	cfg := configs(1 << 14)[0]
	New(cfg)
	raw := cfg.Heap.Mem().RegisterThread()
	ar := cfg.Heap.NewArena()
	pairs := []Pair{{7, 1}, {3, 1}, {7, 2}, {5, 1}, {3, 2}, {7, 3}}
	first, n := Rebuild(&cfg, raw, ar, pairs)
	if n != 3 {
		t.Fatalf("Rebuild wrote %d nodes, want 3", n)
	}
	raw.Store(cfg.Root(), uint64(first))
	got, _, clean, _ := GatherAt(&cfg, cfg.Root(), nil, true)
	if want := []Pair{{3, 2}, {5, 1}, {7, 3}}; !slices.Equal(got, want) || !clean {
		t.Fatalf("rebuilt chain holds %v (clean %v), want %v, clean", got, clean, want)
	}
}

// TestQuickRandomOpsMatchModel drives random op sequences through the
// default config and a model map (property test).
func TestQuickRandomOpsMatchModel(t *testing.T) {
	cfg := configs(1 << 18)[0]
	l := New(cfg)
	th := l.Open(dstruct.ThreadOpts{})
	model := make(map[uint64]uint64)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			k := uint64(op % 48)
			switch op % 3 {
			case 0:
				_, in := model[k]
				if th.Insert(k, uint64(op)) == in {
					return false
				}
				if !in {
					model[k] = uint64(op)
				}
			case 1:
				_, in := model[k]
				if th.Delete(k) != in {
					return false
				}
				delete(model, k)
			default:
				_, in := model[k]
				if th.Contains(k) != in {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRangePanics(t *testing.T) {
	cfg := configs(1 << 14)[0]
	l := New(cfg)
	th := l.Open(dstruct.ThreadOpts{})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized key accepted")
		}
	}()
	th.Insert(dstruct.KeyMax, 0)
}

func TestRepeatedCrashes(t *testing.T) {
	cfg := configs(1 << 20)[0]
	inst := func(c dstruct.Config) dstest.Instance {
		l := New(c)
		return dstest.Instance{Set: l, Snapshot: l.Snapshot}
	}
	rec := func(c dstruct.Config) dstest.Instance {
		l := Recover(c)
		return dstest.Instance{Set: l, Snapshot: l.Snapshot}
	}
	dstest.RepeatedCrashes(t, cfg, inst, rec, 4)
}

// TestDurableLinearizabilityEnumerated runs the systematic crash-point
// battery: every (budgeted) PWB/PFence boundary of a recorded execution
// must recover to a state some linearization explains.
func TestDurableLinearizabilityEnumerated(t *testing.T) {
	inst := func(c dstruct.Config) dstest.Instance {
		l := New(c)
		return dstest.Instance{Set: l, Snapshot: l.Snapshot}
	}
	rec := func(c dstruct.Config) dstest.Instance {
		l := Recover(c)
		return dstest.Instance{Set: l, Snapshot: l.Snapshot}
	}
	for _, cfg := range dstest.DLConfigs(true) {
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.DLCheck(t, "list", cfg, inst, rec, 1)
		})
	}
}

// TestAddSequentialAgainstModel drives Add/Insert/Delete against a map
// model, checking the fetch-and-add contract (post-add value, presence
// flag, insert-if-absent) under every policy — including the p-CAS
// fallback for link-and-persist, whose counters must stay inside the
// instrumented payload.
func TestAddSequentialAgainstModel(t *testing.T) {
	for _, cfg := range configs(1 << 18) {
		cfg := cfg
		t.Run(cfg.Policy.Name()+"/"+cfg.Mode.String(), func(t *testing.T) {
			l := New(cfg)
			th := l.Open(dstruct.ThreadOpts{})
			model := make(map[uint64]uint64)
			// Base offset keeps the counters positive, so the RMW (full
			// 64-bit wrap) and CAS-loop (payload wrap) spellings agree.
			const base = uint64(1) << 20
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(24))
				switch rng.Intn(4) {
				case 0:
					delta := uint64(1)
					if rng.Intn(2) == 0 {
						delta = ^uint64(0) // -1
					}
					_, inModel := model[k]
					if !inModel {
						delta = base // first touch plants the base offset
					}
					want := model[k] + delta
					model[k] = want
					got, existed := th.Add(k, delta)
					if got != want || existed != inModel {
						t.Fatalf("op %d: Add(%d,%d) = (%d,%v), model says (%d,%v)",
							i, k, delta, got, existed, want, inModel)
					}
				case 1:
					_, inModel := model[k]
					if got := th.Delete(k); got != inModel {
						t.Fatalf("op %d: Delete(%d) = %v, model says %v", i, k, got, inModel)
					}
					delete(model, k)
				default:
					v, ok := th.Get(k)
					mv, inModel := model[k]
					if ok != inModel || (ok && v != mv) {
						t.Fatalf("op %d: Get(%d) = (%d,%v), model says (%d,%v)", i, k, v, ok, mv, inModel)
					}
				}
			}
		})
	}
}

// TestAddConcurrentSum checks the linearizable-counter property: N
// workers issuing ±1 churn on a few hot keys leave exactly the net sum.
func TestAddConcurrentSum(t *testing.T) {
	for _, cfg := range configs(1 << 18) {
		cfg := cfg
		t.Run(cfg.Policy.Name()+"/"+cfg.Mode.String(), func(t *testing.T) {
			l := New(cfg)
			const workers, iters, keys = 4, 2000, 3
			const base = uint64(1) << 20
			init := l.Open(dstruct.ThreadOpts{})
			for k := uint64(0); k < keys; k++ {
				init.Insert(k, base)
			}
			var nets [workers][keys]uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := l.Open(dstruct.ThreadOpts{})
					rng := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < iters; i++ {
						k := uint64(rng.Intn(keys))
						delta := uint64(1)
						if rng.Intn(2) == 0 {
							delta = ^uint64(0)
						}
						th.Add(k, delta)
						nets[w][k] += delta
					}
				}(w)
			}
			wg.Wait()
			snap := l.Snapshot()
			for k := uint64(0); k < keys; k++ {
				want := base
				for w := 0; w < workers; w++ {
					want += nets[w][k]
				}
				if snap[k] != want {
					t.Fatalf("key %d: recovered %d, want %d", k, snap[k], want)
				}
			}
		})
	}
}
