package skiplist

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/dstruct/dstest"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

func factory(cfg dstruct.Config) dstest.Instance {
	s := New(cfg)
	return dstest.Instance{Set: s, Snapshot: s.Snapshot}
}

func recoverer(cfg dstruct.Config) dstest.Instance {
	s := Recover(cfg)
	return dstest.Instance{Set: s, Snapshot: s.Snapshot}
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, cfg := range dstest.ShortConfigs(dstest.Configs(1<<20, true)) {
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.SequentialModel(t, cfg, factory, 96, dstest.Scale(4000, 8))
		})
	}
}

func TestConcurrentStress(t *testing.T) {
	for _, cfg := range dstest.Configs(1<<22, true) {
		if cfg.Policy.Name() != "flit-HT(64KB)" && cfg.Policy.Name() != "link-and-persist" {
			continue
		}
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.ConcurrentStress(t, cfg, factory, 64, 4, dstest.Scale(4000, 4))
		})
	}
}

func TestCleanRecovery(t *testing.T) {
	for _, cfg := range dstest.ShortConfigs(dstest.Configs(1<<20, true)) {
		if cfg.Policy.Name() == "no-persist" {
			continue
		}
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.CleanRecovery(t, cfg, factory, recoverer, 300)
		})
	}
}

// TestTowersStayConsistent verifies the index property after heavy churn:
// every node linked at level i is linked at level 0 or marked.
func TestTowersStayConsistent(t *testing.T) {
	cfg := dstest.Configs(1<<22, false)[0]
	s := New(cfg)
	th := s.Open(dstruct.ThreadOpts{})
	for i := 0; i < 3000; i++ {
		k := uint64(i % 200)
		if i%3 == 0 {
			th.Delete(k)
		} else {
			th.Insert(k, uint64(i))
		}
	}
	mem := cfg.Heap.Mem()
	// Collect unmarked bottom-level nodes.
	bottom := map[pmem.Addr]bool{}
	curr := dstruct.Ptr(mem.VolatileWord(cfg.Field(s.head, fNext0)))
	for curr != pmem.NilAddr {
		raw := mem.VolatileWord(cfg.Field(curr, fNext0))
		if !dstruct.Marked(raw) {
			bottom[curr] = true
		}
		curr = dstruct.Ptr(raw)
	}
	for lvl := 1; lvl < MaxLevel; lvl++ {
		curr := dstruct.Ptr(mem.VolatileWord(cfg.Field(s.head, fNext0+lvl)))
		for curr != pmem.NilAddr {
			raw := mem.VolatileWord(cfg.Field(curr, fNext0+lvl))
			if !dstruct.Marked(mem.VolatileWord(cfg.Field(curr, fNext0))) && !bottom[curr] {
				t.Fatalf("node %d linked at level %d but missing from bottom", curr, lvl)
			}
			curr = dstruct.Ptr(raw)
		}
	}
}

func TestRandLevelDistribution(t *testing.T) {
	cfg := dstest.Configs(1<<16, false)[0]
	s := New(cfg)
	th := s.Open(dstruct.ThreadOpts{})
	counts := make([]int, MaxLevel+1)
	for i := 0; i < 10000; i++ {
		l := th.randLevel()
		if l < 1 || l > MaxLevel {
			t.Fatalf("randLevel out of range: %d", l)
		}
		counts[l]++
	}
	if counts[1] < 4000 || counts[1] > 6000 {
		t.Fatalf("level-1 frequency %d of 10000, want ~5000 (geometric 1/2)", counts[1])
	}
}

func TestRepeatedCrashes(t *testing.T) {
	cfg := dstest.Configs(1<<22, false)[0]
	dstest.RepeatedCrashes(t, cfg, factory, recoverer, dstest.Scale(4, 2))
}

// TestDurableLinearizabilityEnumerated runs the systematic crash-point
// battery: every (budgeted) PWB/PFence boundary of a recorded execution
// must recover to a state some linearization explains.
func TestDurableLinearizabilityEnumerated(t *testing.T) {
	for _, cfg := range dstest.DLConfigs(true) {
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.DLCheck(t, "skiplist", cfg, factory, recoverer, 1)
		})
	}
}

// stallOn is flit-HT whose next successful p-CAS on *word freezes its
// thread right after the new value became visible: the word stays tagged
// and un-flushed, exactly what a writer preempted inside its p-CAS leaves
// behind (crash countdowns fire between policy instructions, never inside
// one). Freezing disarms it.
type stallOn struct {
	*core.FliT
	word *pmem.Addr
}

func (p stallOn) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	if !pflag || a != *p.word {
		return p.FliT.CAS(t, a, old, new, pflag)
	}
	t.PFence()
	p.C.Inc(t, a)
	if !t.CAS(a, old, new) {
		p.C.Dec(t, a)
		return false
	}
	*p.word = pmem.NilAddr
	panic(pmem.ErrCrashed)
}

// TestContainsThroughMarkedNode: Insert(5) is frozen with its link in node
// 4's next word visible but unpersisted, Delete(4) is frozen the same way
// with its mark in that word, and a third thread's Contains(5) walks
// through the marked node 4 and answers "present". That answer rests on
// node 4's next word — the link it reached 5 through — so a crash right
// after it must recover key 5. The tooth is Contains as it was: it skipped
// node 4 without moving its link along, transitioned on node 3's next word
// instead, and lost the key.
func TestContainsThroughMarkedNode(t *testing.T) {
	for _, mode := range []dstruct.Mode{dstruct.NVTraverse, dstruct.Manual} {
		for _, v := range []struct {
			name     string
			contains func(*Thread, uint64) bool
		}{{"fixed", (*Thread).Contains}, {"old-code-tooth", containsBeforeFix}} {
			t.Run(mode.String()+"/"+v.name, func(t *testing.T) {
				pol := stallOn{core.NewFliT(core.NewHashTable(1 << 14)), new(pmem.Addr)}
				cfg := dlcheck.NewConfig(pol, mode)
				s := New(cfg)
				setup := s.Open(dstruct.ThreadOpts{})
				for k := uint64(0); k < 10; k++ {
					if k != 5 {
						setup.Insert(k, k+100)
					}
				}
				mem := cfg.Heap.Mem()
				n4 := s.head
				for i := 0; i <= 4; i++ {
					n4 = dstruct.Ptr(mem.VolatileWord(cfg.Field(n4, fNext0)))
				}
				for _, writer := range []func(*Thread){
					func(th *Thread) { th.Insert(5, 105) },
					func(th *Thread) { th.Delete(4) },
				} {
					*pol.word = cfg.Field(n4, fNext0)
					if !pmem.RunToCrash(func() { writer(s.Open(dstruct.ThreadOpts{})) }) {
						t.Fatal("writer completed without a p-CAS on node 4's next word to freeze at")
					}
				}
				if !v.contains(s.Open(dstruct.ThreadOpts{}), 5) {
					t.Fatal("Contains(5) = false with key 5 linked behind the marked node 4")
				}
				img := mem.CrashImage(pmem.DropUnfenced, 0)
				cfg.Heap = pheap.Recover(pmem.NewFromImage(img, mem.Config()), cfg.Heap.Watermark())
				_, kept := Recover(cfg).Snapshot()[5]
				if tooth := v.name != "fixed"; kept == tooth {
					t.Fatalf("Contains(5) answered true, then a crash: key 5 recovered = %v", kept)
				}
			})
		}
	}
}

// containsBeforeFix is Contains with the marked-node skip it had before:
// link stays at the skipped node's predecessor.
func containsBeforeFix(t *Thread, key uint64) bool {
	c := &t.c
	pol := c.Policy
	travP := c.TravP()
	c.H.Enter()
	pred := t.s.head
	var link pmem.Addr
	for lvl := MaxLevel - 1; lvl >= 0; lvl-- {
		link = t.nextField(pred, lvl)
		curr := dstruct.Ptr(pol.Load(c.T, link, travP))
		for curr != pmem.NilAddr {
			raw := pol.Load(c.T, t.nextField(curr, lvl), travP)
			if dstruct.Marked(raw) {
				if lvl == 0 && !travP && pol.Load(c.T, c.Field(curr, fKey), travP) == key {
					c.Transition(t.nextField(curr, 0))
				}
				curr = dstruct.Ptr(raw)
				continue
			}
			k := pol.Load(c.T, c.Field(curr, fKey), travP)
			if k < key {
				pred = curr
				link = t.nextField(curr, lvl)
				curr = dstruct.Ptr(raw)
				continue
			}
			if lvl == 0 && k == key {
				c.Transition(link, t.nextField(curr, 0))
				c.Done()
				return true
			}
			break
		}
	}
	c.Transition(link)
	c.Done()
	return false
}
