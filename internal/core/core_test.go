package core

import (
	"sync"
	"testing"
	"testing/quick"

	"flit/internal/pmem"
)

func newMem(words int) *pmem.Memory {
	cfg := pmem.DefaultConfig(words)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost, cfg.MissCost = 0, 0, 0, 0
	return pmem.New(cfg)
}

// allPolicies returns one instance of every policy, with fresh counter
// state, for table-driven tests.
func allPolicies(memWords int) []Policy {
	return []Policy{
		NewFliT(Adjacent{}),
		NewFliT(NewHashTable(1 << 20)),
		NewFliT(NewHashTable(4 << 10)),
		NewFliT(NewPackedHashTable(4 << 10)),
		NewFliT(NewDirectMap(memWords)),
		NewPlain(),
		NewIzraelevitz(),
		LinkAndPersist{},
		NoPersist{},
	}
}

func TestPolicyVolatileSemantics(t *testing.T) {
	const words = 1 << 12
	for _, pol := range allPolicies(words) {
		t.Run(pol.Name(), func(t *testing.T) {
			m := newMem(words)
			th := m.RegisterThread()
			a := pmem.Addr(64) // even address: Adjacent uses a+1
			for _, pflag := range []bool{P, V} {
				pol.Store(th, a, 10, pflag)
				if got := pol.Load(th, a, pflag); got != 10 {
					t.Fatalf("pflag=%v: Load = %d, want 10", pflag, got)
				}
				if pol.CAS(th, a, 9, 11, pflag) {
					t.Fatalf("pflag=%v: CAS with wrong expected succeeded", pflag)
				}
				if !pol.CAS(th, a, 10, 12, pflag) {
					t.Fatalf("pflag=%v: CAS with correct expected failed", pflag)
				}
				if pol.SupportsRMW() {
					if old := pol.FAA(th, a, 5, pflag); old != 12 {
						t.Fatalf("pflag=%v: FAA returned %d, want 12", pflag, old)
					}
					if old := pol.Exchange(th, a, 10, pflag); old != 17 {
						t.Fatalf("pflag=%v: Exchange returned %d, want 17", pflag, old)
					}
				} else {
					pol.Store(th, a, 10, pflag) // re-align state for next loop
				}
				pol.Store(th, a, 10, pflag)
			}
			pol.Complete(th)
		})
	}
}

func TestPStoreIsDurableOnReturn(t *testing.T) {
	const words = 1 << 12
	for _, pol := range allPolicies(words) {
		if (pol == Policy(NoPersist{})) {
			continue
		}
		t.Run(pol.Name(), func(t *testing.T) {
			m := newMem(words)
			th := m.RegisterThread()
			a := pmem.Addr(64)
			pol.Store(th, a, 42, P)
			if got := m.PersistedWord(a) &^ DirtyBit; got != 42 {
				t.Fatalf("after p-store, persisted = %d, want 42", got)
			}
			pol.CAS(th, a, 42, 43, P)
			if got := m.PersistedWord(a) &^ DirtyBit; got != 43 {
				t.Fatalf("after p-CAS, persisted = %d, want 43", got)
			}
			pol.StorePrivate(th, a+8, 7, P)
			if got := m.PersistedWord(a + 8); got != 7 {
				t.Fatalf("after private p-store, persisted = %d, want 7", got)
			}
		})
	}
}

func TestVStoreIsNotImmediatelyDurable(t *testing.T) {
	const words = 1 << 12
	for _, pol := range allPolicies(words) {
		if pol.Name() == "no-persist" {
			continue
		}
		t.Run(pol.Name(), func(t *testing.T) {
			m := newMem(words)
			th := m.RegisterThread()
			a := pmem.Addr(64)
			pol.Store(th, a, 42, V)
			if got := m.PersistedWord(a); got != 0 {
				t.Fatalf("v-store leaked to persistence: %d", got)
			}
		})
	}
}

func TestFliTLoadSkipsFlushWhenUntagged(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	pol := NewFliT(NewHashTable(1 << 16))
	a := pmem.Addr(64)
	pol.Store(th, a, 5, P)
	before := th.Stats.PWBs
	for i := 0; i < 100; i++ {
		pol.Load(th, a, P)
	}
	if th.Stats.PWBs != before {
		t.Fatalf("untagged p-loads issued %d PWBs", th.Stats.PWBs-before)
	}
	// Plain, by contrast, flushes every p-load.
	plain := NewPlain()
	before = th.Stats.PWBs
	for i := 0; i < 100; i++ {
		plain.Load(th, a, P)
	}
	if th.Stats.PWBs != before+100 {
		t.Fatalf("plain p-loads issued %d PWBs, want 100", th.Stats.PWBs-before)
	}
}

func TestFliTLoadFlushesWhileTagged(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	scheme := NewHashTable(1 << 16)
	pol := NewFliT(scheme)
	a := pmem.Addr(64)
	scheme.Inc(th, a) // simulate a concurrent pending p-store
	before := th.Stats.PWBs
	pol.Load(th, a, P)
	if th.Stats.PWBs != before+1 {
		t.Fatal("tagged p-load did not flush")
	}
	pol.Load(th, a, V) // v-load never flushes, tagged or not
	if th.Stats.PWBs != before+1 {
		t.Fatal("tagged v-load flushed")
	}
	scheme.Dec(th, a)
	pol.Load(th, a, P)
	if th.Stats.PWBs != before+1 {
		t.Fatal("untagged p-load flushed after Dec")
	}
}

func TestCounterSchemes(t *testing.T) {
	const words = 1 << 12
	m := newMem(words)
	th := m.RegisterThread()
	schemes := []CounterScheme{
		Adjacent{},
		NewHashTable(1 << 12),
		NewPackedHashTable(1 << 12),
		NewDirectMap(words),
	}
	for _, s := range schemes {
		t.Run(s.Name(), func(t *testing.T) {
			a := pmem.Addr(128)
			if s.Tagged(th, a) {
				t.Fatal("fresh counter tagged")
			}
			s.Inc(th, a)
			if !s.Tagged(th, a) {
				t.Fatal("not tagged after Inc")
			}
			s.Inc(th, a) // two pending stores
			s.Dec(th, a)
			if !s.Tagged(th, a) {
				t.Fatal("untagged while one store still pending")
			}
			s.Dec(th, a)
			if s.Tagged(th, a) {
				t.Fatal("tagged after balanced Inc/Dec")
			}
		})
	}
}

func TestDirectMapSharesCounterPerLine(t *testing.T) {
	s := NewDirectMap(1 << 12)
	m := newMem(1 << 12)
	th := m.RegisterThread()
	s.Inc(th, 64)
	if !s.Tagged(th, 65) || !s.Tagged(th, 71) {
		t.Fatal("same-line words not tagged")
	}
	if s.Tagged(th, 72) {
		t.Fatal("next-line word tagged")
	}
	s.Dec(th, 64)
}

func TestPackedCountersIndependent(t *testing.T) {
	s := NewPackedHashTable(1 << 12)
	m := newMem(1 << 12)
	th := m.RegisterThread()
	// Tag many addresses; each must untag independently.
	addrs := []pmem.Addr{8, 16, 24, 32, 40, 48, 1000, 2000}
	for _, a := range addrs {
		s.Inc(th, a)
	}
	for _, a := range addrs {
		if !s.Tagged(th, a) {
			t.Fatalf("addr %d lost its tag", a)
		}
	}
	for _, a := range addrs {
		s.Dec(th, a)
	}
	for _, a := range addrs {
		if s.Tagged(th, a) {
			t.Fatalf("addr %d still tagged", a)
		}
	}
}

func TestAdjacentCounterUsesNeighborWord(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	s := Adjacent{}
	s.Inc(th, 64)
	if m.VolatileWord(65) != 1 {
		t.Fatal("adjacent counter not at a+1")
	}
	s.Dec(th, 64)
	if m.VolatileWord(65) != 0 {
		t.Fatal("adjacent counter not balanced")
	}
}

func TestFailedPCASUntagsWithoutFlush(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	scheme := NewHashTable(1 << 16)
	pol := NewFliT(scheme)
	a := pmem.Addr(64)
	pol.Store(th, a, 1, V)
	before := th.Stats.PWBs
	if pol.CAS(th, a, 99, 2, P) {
		t.Fatal("CAS should have failed")
	}
	if th.Stats.PWBs != before {
		t.Fatal("failed p-CAS flushed")
	}
	if scheme.Tagged(th, a) {
		t.Fatal("failed p-CAS left location tagged")
	}
}

func TestLinkAndPersistDirtyBitProtocol(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	lp := LinkAndPersist{}
	a := pmem.Addr(64)

	lp.CAS(th, a, 0, 5, P)
	if raw := m.VolatileWord(a); raw != 5 {
		t.Fatalf("dirty bit not cleared after p-CAS: raw=%#x", raw)
	}
	if m.PersistedWord(a)&^DirtyBit != 5 {
		t.Fatal("p-CAS value not persisted")
	}

	// Simulate an in-flight p-store by another thread: dirty raw value.
	th.Store(a, 7|DirtyBit)
	if got := lp.Load(th, a, V); got != 7 {
		t.Fatalf("v-load returned %d, want logical 7", got)
	}
	before := th.Stats.PWBs
	if got := lp.Load(th, a, P); got != 7 {
		t.Fatalf("p-load returned %d, want logical 7", got)
	}
	if th.Stats.PWBs != before+1 {
		t.Fatal("p-load of dirty word did not flush")
	}

	// A CAS on the dirty word must first help persist+clear, then succeed
	// against the logical value.
	if !lp.CAS(th, a, 7, 9, P) {
		t.Fatal("CAS on dirty word with correct logical expected failed")
	}
	if m.PersistedWord(a)&^DirtyBit != 9 {
		t.Fatal("helped CAS value not persisted")
	}
	if m.VolatileWord(a) != 9 {
		t.Fatalf("dirty bit left set: %#x", m.VolatileWord(a))
	}
}

func TestLinkAndPersistStoreLoop(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	lp := LinkAndPersist{}
	a := pmem.Addr(64)
	th.Store(a, 3|DirtyBit) // pending foreign p-store
	lp.Store(th, a, 8, P)
	if m.VolatileWord(a) != 8 {
		t.Fatalf("store loop left %#x", m.VolatileWord(a))
	}
	// Helping must have persisted the old value before overwriting:
	// the shadow saw 3 at some point; now it must hold 8.
	if m.PersistedWord(a)&^DirtyBit != 8 {
		t.Fatal("store loop value not persisted")
	}
}

func TestLinkAndPersistRejectsRMW(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	lp := LinkAndPersist{}
	if lp.SupportsRMW() {
		t.Fatal("link-and-persist claims RMW support")
	}
	for _, fn := range []func(){
		func() { lp.FAA(th, 64, 1, P) },
		func() { lp.Exchange(th, 64, 1, P) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("RMW did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPersistObjectFlushesEveryLine(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	pol := NewFliT(NewHashTable(1 << 16))
	// A 20-word object at addr 60 covers words 60..79: lines 7, 8, 9.
	base := pmem.Addr(60)
	for i := pmem.Addr(0); i < 20; i++ {
		th.Store(base+i, uint64(i+1))
	}
	before := th.Stats.PWBs
	pol.PersistObject(th, base, 20)
	if got := th.Stats.PWBs - before; got != 3 {
		t.Fatalf("PersistObject issued %d PWBs, want 3", got)
	}
	pol.Complete(th)
	for i := pmem.Addr(0); i < 20; i++ {
		if m.PersistedWord(base+i) != uint64(i+1) {
			t.Fatalf("word %d not persisted", base+i)
		}
	}
}

// TestPVCondition3And4 checks the load-dependency guarantee concurrently:
// whenever a reader p-loads a value and completes its operation, that
// value (or a newer one) must be persistent. The writer publishes strictly
// increasing values with p-stores, so "v or newer" is v <= shadow.
func TestPVCondition3And4(t *testing.T) {
	const words = 1 << 12
	for _, pol := range allPolicies(words) {
		if pol.Name() == "no-persist" {
			continue
		}
		t.Run(pol.Name(), func(t *testing.T) {
			m := newMem(words)
			a := pmem.Addr(64)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			writer := m.RegisterThread()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					pol.Store(writer, a, i, P)
					pol.Complete(writer)
				}
			}()
			reader := m.RegisterThread()
			for i := 0; i < 3000; i++ {
				v := pol.Load(reader, a, P)
				pol.Complete(reader)
				// The moment Complete returns, v must be persisted (or
				// overwritten by a newer persisted value).
				if pv := m.PersistedWord(a) &^ DirtyBit; pv < v {
					close(stop)
					wg.Wait()
					t.Fatalf("P-V violation: read %d, persisted %d", v, pv)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestQuickPoliciesPreserveVolatileBehavior: random instruction sequences
// behave identically under every policy (Condition 1: persistence handling
// must not change volatile semantics).
func TestQuickPoliciesPreserveVolatileBehavior(t *testing.T) {
	const words = 1 << 12
	f := func(prog []uint16) bool {
		ref := make(map[pmem.Addr]uint64)
		for _, pol := range allPolicies(words) {
			m := newMem(words)
			th := m.RegisterThread()
			got := make(map[pmem.Addr]uint64)
			for i, ins := range prog {
				// Even addresses, spaced by AdjacentStride, payload < 2^48.
				a := pmem.Addr(64 + 2*(ins%128))
				v := uint64(i + 1)
				pflag := ins%2 == 0
				switch ins % 4 {
				case 0:
					pol.Store(th, a, v, pflag)
					got[a] = v
				case 1:
					if pol.Load(th, a, pflag) != got[a] {
						return false
					}
				case 2:
					if !pol.CAS(th, a, got[a], v, pflag) {
						return false
					}
					got[a] = v
				case 3:
					if pol.SupportsRMW() {
						if pol.FAA(th, a, 3, pflag) != got[a] {
							return false
						}
						got[a] += 3
					}
				}
			}
			pol.Complete(th)
			// All policies that ran the same program must agree with the
			// first run's reference.
			if len(ref) == 0 {
				for k, v := range got {
					ref[k] = v
				}
			}
			_ = ref
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedDecDoesNotCarryIntoNeighbor is the regression test for the
// byte-carry bug: decrementing one packed counter must never disturb any
// other byte of its word (a 64-bit add of 0xFF<<shift would carry).
func TestPackedDecDoesNotCarryIntoNeighbor(t *testing.T) {
	s := NewPackedHashTable(1 << 10)
	m := newMem(1 << 12)
	th := m.RegisterThread()
	// Hammer balanced Inc/Dec cycles across many addresses; afterwards
	// every counter byte in the whole table must be exactly zero.
	for round := 0; round < 3; round++ {
		for a := pmem.Addr(8); a < 2048; a += 3 {
			s.Inc(th, a)
			s.Dec(th, a)
		}
	}
	for i, w := range s.words {
		if w != 0 {
			t.Fatalf("table word %d = %#x after balanced Inc/Dec (carry corruption)", i, w)
		}
	}
}

// TestSharedStoreInstructionStream pins the persistence instructions of
// every shared-store primitive: the dependency fence is issued exactly
// when the thread has a write-back in flight (fenceDeps) and counted as
// elided otherwise, and nothing else about the stream depends on the
// queue. Each entry gives what the primitive adds after its dependency
// fence — flushes, fences, and how many of its own lines those fences
// drain; the two thread states differ only in the leading fence:
//
//	idle:    PFences = fences,   ElidedFences = 1, Drained = drained
//	pending: PFences = fences+1, ElidedFences = 0, Drained = drained+1
//
// The pending rows and every pwbs column are what an unconditional
// leading fence gave too: no flush was added or lost.
func TestSharedStoreInstructionStream(t *testing.T) {
	type after struct{ pwbs, fences, drained uint64 }
	var (
		persisted = after{1, 1, 1} // flush the written line, fence it
		nothing   = after{}        // v-instruction, or a failure that saw no pending store
	)
	ops := []string{"Store", "CAS-success", "CAS-failure", "FAA", "Exchange"}
	// A failed p-CAS is a p-load: FliT and link-and-persist find no tag /
	// dirty bit here and flush nothing, Plain flushes and leaves the
	// fence to the next store or completion, Izraelevitz fences at once.
	failedPCAS := map[string]after{
		"flit-HT(64KB)":    nothing,
		"flit-adjacent":    nothing,
		"plain":            {pwbs: 1},
		"izraelevitz":      persisted,
		"link-and-persist": nothing,
	}
	const (
		a     = pmem.Addr(64)  // even: Adjacent keeps its counter at a+1
		other = pmem.Addr(256) // a different line, for the pending state
	)
	for _, mk := range []func() Policy{
		func() Policy { return NewFliT(NewHashTable(64 << 10)) },
		func() Policy { return NewFliT(Adjacent{}) },
		func() Policy { return NewPlain() },
		func() Policy { return NewIzraelevitz() },
		func() Policy { return LinkAndPersist{} },
	} {
		name := mk().Name()
		for _, op := range ops {
			if (op == "FAA" || op == "Exchange") && !mk().SupportsRMW() {
				continue
			}
			for _, pending := range []bool{false, true} {
				for _, pflag := range []bool{P, V} {
					want := nothing
					if pflag {
						want = persisted
						if op == "CAS-failure" {
							want = failedPCAS[name]
						}
					}
					state, flag := "idle", "v"
					if pending {
						state = "pending"
					}
					if pflag {
						flag = "p"
					}
					t.Run(name+"/"+op+"/"+state+"/"+flag, func(t *testing.T) {
						pol := mk()
						th := newMem(1 << 12).RegisterThread()
						th.Store(a, 10)
						wantStats := pmem.Stats{PWBs: want.pwbs, PFences: want.fences, Drained: want.drained, ElidedFences: 1}
						if pending {
							th.PWB(other)
							wantStats.PFences++
							wantStats.Drained++
							wantStats.ElidedFences = 0
						}
						before := th.Stats
						switch op {
						case "Store":
							pol.Store(th, a, 11, pflag)
						case "CAS-success":
							if !pol.CAS(th, a, 10, 11, pflag) {
								t.Fatal("CAS with the current value failed")
							}
						case "CAS-failure":
							if pol.CAS(th, a, 9, 11, pflag) {
								t.Fatal("CAS with a stale value succeeded")
							}
						case "FAA":
							pol.FAA(th, a, 1, pflag)
						case "Exchange":
							pol.Exchange(th, a, 11, pflag)
						}
						got := pmem.Stats{
							PWBs:         th.Stats.PWBs - before.PWBs,
							PFences:      th.Stats.PFences - before.PFences,
							Drained:      th.Stats.Drained - before.Drained,
							ElidedFences: th.Stats.ElidedFences - before.ElidedFences,
						}
						if got != wantStats {
							t.Fatalf("(PWBs, PFences, ElidedFences, Drained) = (%d, %d, %d, %d), want (%d, %d, %d, %d)",
								got.PWBs, got.PFences, got.ElidedFences, got.Drained,
								wantStats.PWBs, wantStats.PFences, wantStats.ElidedFences, wantStats.Drained)
						}
					})
				}
			}
		}
	}
}
