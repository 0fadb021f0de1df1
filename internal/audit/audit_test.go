package audit

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/bst"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/dstruct/lockmap"
	"flit/internal/dstruct/skiplist"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

func newMem(words int) *pmem.Memory {
	cfg := pmem.DefaultConfig(words)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost = 0, 0, 0
	return pmem.New(cfg)
}

func TestConformingSequenceHasNoViolations(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	a := New(core.NewFliT(core.NewHashTable(1<<14)), m)
	a.Store(th, 64, 1, core.P)
	v := a.Load(th, 64, core.P)
	a.Store(th, 80, v+1, core.P) // depends on the load; FliT persists in time
	a.Complete(th)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("violations on conforming sequence: %v", vs)
	}
}

func TestPersistObjectThenShareIsConforming(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	a := NewFliT(1<<14, m)
	// Private init, batched flush, then publish: the canonical node-init
	// pattern. The leading fence of the publishing p-store must discharge
	// the object dependencies.
	for i := pmem.Addr(0); i < 3; i++ {
		a.StorePrivate(th, 128+i, uint64(i+1), core.V)
	}
	a.PersistObject(th, 128, 3)
	a.Store(th, 64, 128, core.P) // publish
	a.Complete(th)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("violations on init-then-publish: %v", vs)
	}
}

func TestMissingFlushIsFlagged(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	// NoPersist never flushes: a p-store dependency can never discharge.
	a := New(core.NoPersist{}, m)
	a.Store(th, 64, 7, core.P)
	a.Complete(th)
	vs := a.Violations()
	if len(vs) == 0 {
		t.Fatal("un-persisted p-store dependency not flagged")
	}
	if vs[0].Addr != 64 || vs[0].Want != 7 {
		t.Fatalf("wrong violation recorded: %+v", vs[0])
	}
}

func TestSupersededDependencyIsExcused(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	a := New(core.NoPersist{}, m)
	a.Store(th, 64, 7, core.P) // never persisted...
	a.Store(th, 64, 8, core.V) // ...but superseded before any checkpoint?
	// The store checkpoint runs after each shared store: the first Store's
	// own checkpoint ran before recording, the second Store's checkpoint
	// sees volatile=8 != want=7 and excuses it; the new v-store adds no
	// dependency. Completion then has nothing left to flag for value 7.
	a.Complete(th)
	for _, v := range a.Violations() {
		if v.Want == 7 {
			t.Fatalf("superseded dependency flagged: %v", v)
		}
	}
}

// auditSet runs the fixed single-threaded insert/delete/contains mix on
// one structure × mode under NewFliT's auditor — the policy as shipped,
// or whatever mutate makes of it — and returns the violations.
func auditSet(name string, mode dstruct.Mode, mutate func(*core.FliT) core.Policy) []Violation {
	m := newMem(1 << 20)
	aud := NewFliT(1<<16, m)
	if mutate != nil {
		aud.Inner = mutate(aud.Inner.(*core.FliT))
	}
	cfg := dstruct.Config{
		Heap: pheap.New(m), Policy: aud, Mode: mode,
		RootSlot: 0, Stride: dstruct.StrideFor(aud.Inner),
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
	for i := 0; i < 600; i++ {
		k := uint64(i*7) % 97
		switch i % 3 {
		case 0:
			th.Insert(k, k)
		case 1:
			th.Delete(k)
		default:
			th.Contains(k)
		}
	}
	return aud.Violations()
}

// TestDataStructuresConformUnderAudit runs every structure × durability
// mode single-threaded under the auditor: zero violations proves each
// call-site pflag assignment satisfies Condition 4 mechanically — and,
// with the check also run as each p-store linearizes, that the policy's
// conditional dependency fence (core's fenceDeps) is issued every time a
// dependency is still in flight.
func TestDataStructuresConformUnderAudit(t *testing.T) {
	for _, mode := range dstruct.Modes {
		for _, name := range []string{"list", "hashtable", "skiplist", "bst", "lockmap"} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				if vs := auditSet(name, mode, nil); len(vs) != 0 {
					t.Fatalf("%d P-V violations, first: %v", len(vs), vs[0])
				}
			})
		}
	}
}

// noDepFence is FliT with the dependency fence of CAS and Store — the
// shared stores the list issues — removed outright instead of made
// conditional on the write-back queue: the planted bug the conformance
// run above must be able to see.
type noDepFence struct{ *core.FliT }

func (p noDepFence) Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	if !pflag {
		t.Store(a, v)
		return
	}
	p.C.Inc(t, a)
	t.Store(a, v)
	t.PWB(a)
	t.PFence()
	p.C.Dec(t, a)
}

func (p noDepFence) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	t.CheckCrash()
	if !pflag {
		return t.CAS(a, old, new)
	}
	p.C.Inc(t, a)
	ok := t.CAS(a, old, new)
	if ok {
		t.PWB(a)
		t.PFence()
	}
	p.C.Dec(t, a)
	if !ok && p.C.Tagged(t, a) {
		t.PWB(a)
	}
	return ok
}

// TestSkippedDependencyFenceIsLocalized: an NVTraverse insert flushes the
// fresh node with PersistObject and relies on the linking p-CAS's leading
// fence to persist it before the link exists. With that fence skipped the
// node is still un-persisted as the CAS linearizes — a window the CAS's
// own trailing fence closes again before it returns, which is why only
// the check at tag time can see it. Every violation must name that CAS.
func TestSkippedDependencyFenceIsLocalized(t *testing.T) {
	vs := auditSet("list", dstruct.NVTraverse, func(f *core.FliT) core.Policy { return noDepFence{f} })
	if len(vs) == 0 {
		t.Fatal("always-skipped dependency fence passed the audit — the conformance run has no teeth")
	}
	for _, v := range vs {
		if v.Checkpoint != "shared CAS, before it linearizes" {
			t.Fatalf("violation not localized at the linking CAS: %v", v)
		}
	}
	t.Logf("%d violations, first: %v", len(vs), vs[0])
}

// TestBrokenModeIsLocalized: downgrading the decisive link CAS to a
// v-instruction must be flagged at the next checkpoint, naming the broken
// location — the auditor's purpose is localizing protocol bugs.
func TestBrokenModeIsLocalized(t *testing.T) {
	m := newMem(1 << 16)
	th := m.RegisterThread()
	aud := New(core.NewFliT(core.NewHashTable(1<<14)), m)
	// Simulate a buggy insert: private init + PersistObject, then a
	// v-CAS link (bug: should be P), then completion.
	aud.StorePrivate(th, 128, 5, core.V)
	aud.PersistObject(th, 128, 1)
	aud.CAS(th, 64, 0, 128, core.V) // BUG: link not persisted
	// The link value 128 at addr 64 was never a recorded dependency (it
	// was a v-CAS) — but a subsequent p-load of it by the same thread
	// creates one, and completion must then flag it.
	aud.Load(th, 64, core.P)
	aud.Complete(th)
	found := false
	for _, v := range aud.Violations() {
		if v.Addr == 64 && v.Want == 128 {
			found = true
		}
	}
	if !found {
		t.Fatalf("v-linked pointer read by p-load not flagged: %v", aud.Violations())
	}
}

// TestAuditRMWAndAccessors covers the FAA/Exchange wrappers and accessors.
func TestAuditRMWAndAccessors(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	a := New(core.NewFliT(core.NewHashTable(1<<14)), m)
	if a.Name() != "audit(flit-HT(16KB))" {
		t.Fatalf("Name = %q", a.Name())
	}
	if !a.SupportsRMW() {
		t.Fatal("audit over FliT must support RMW")
	}
	if prev := a.FAA(th, 64, 5, core.P); prev != 0 {
		t.Fatalf("FAA prev = %d", prev)
	}
	if prev := a.Exchange(th, 64, 9, core.P); prev != 5 {
		t.Fatalf("Exchange prev = %d", prev)
	}
	if got := a.LoadPrivate(th, 64, core.V); got != 9 {
		t.Fatalf("LoadPrivate = %d", got)
	}
	a.Complete(th)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	// Violation String formatting.
	v := Violation{Thread: 1, Addr: 64, Want: 9, Shadow: 0, Checkpoint: "x"}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
}
