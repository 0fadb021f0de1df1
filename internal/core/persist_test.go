package core

import (
	"testing"

	"flit/internal/pmem"
)

// TestPersistFacade exercises the paper's Figure 1 API surface: default
// pflag, explicit overrides, and operation completion.
func TestPersistFacade(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	pol := NewFliT(NewHashTable(1 << 14))
	v := NewPersist(pol, 64, P)

	if v.Addr() != 64 {
		t.Fatalf("Addr = %d, want 64", v.Addr())
	}
	v.Store(th, 10)
	if got := v.Load(th); got != 10 {
		t.Fatalf("Load = %d, want 10", got)
	}
	// Default pflag P: the store is already durable.
	if m.PersistedWord(64) != 10 {
		t.Fatal("default-P store not persisted")
	}
	if !v.CAS(th, 10, 11) || v.CAS(th, 10, 12) {
		t.Fatal("CAS semantics broken")
	}
	if old := v.FAA(th, 4); old != 11 {
		t.Fatalf("FAA returned %d, want 11", old)
	}
	if old := v.Exchange(th, 100); old != 15 {
		t.Fatalf("Exchange returned %d, want 15", old)
	}
	v.OperationCompletion(th)
	if m.PersistedWord(64) != 100 {
		t.Fatal("exchange value not persisted after completion")
	}

	// Explicit V override: not immediately durable.
	v.StoreFlag(th, 7, V)
	if m.PersistedWord(64) == 7 {
		t.Fatal("v-store leaked to persistence")
	}
	if got := v.LoadFlag(th, V); got != 7 {
		t.Fatalf("LoadFlag = %d, want 7", got)
	}
	if !v.CASFlag(th, 7, 8, P) {
		t.Fatal("CASFlag failed")
	}
	if m.PersistedWord(64) != 8 {
		t.Fatal("p-CASFlag not persisted")
	}
}

// TestPersistDefaultVolatile mirrors Figure 3's manual BST root:
// flush_option::volatile as the default, persistence only on request.
func TestPersistDefaultVolatile(t *testing.T) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	v := NewPersist(NewPlain(), 72, V)
	v.Store(th, 3)
	if m.PersistedWord(72) != 0 {
		t.Fatal("default-V store persisted")
	}
	v.StoreFlag(th, 4, P)
	if m.PersistedWord(72) != 4 {
		t.Fatal("explicit p-store not persisted")
	}
}

// TestPrivateOpsAcrossPolicies covers the LoadPrivate/StorePrivate/
// PersistObject surface of every policy uniformly.
func TestPrivateOpsAcrossPolicies(t *testing.T) {
	const words = 1 << 12
	for _, pol := range allPolicies(words) {
		t.Run(pol.Name(), func(t *testing.T) {
			m := newMem(words)
			th := m.RegisterThread()
			base := pmem.Addr(128)
			for i := pmem.Addr(0); i < 4; i++ {
				pol.StorePrivate(th, base+i, uint64(i+1), V)
			}
			for i := pmem.Addr(0); i < 4; i++ {
				if got := pol.LoadPrivate(th, base+i, P); got != uint64(i+1) {
					t.Fatalf("LoadPrivate(%d) = %d, want %d", base+i, got, i+1)
				}
			}
			pol.PersistObject(th, base, 4)
			pol.Complete(th)
			if pol.Name() == "no-persist" {
				return
			}
			for i := pmem.Addr(0); i < 4; i++ {
				if got := m.PersistedWord(base + i); got != uint64(i+1) {
					t.Fatalf("word %d not persisted after PersistObject+Complete (got %d)", base+i, got)
				}
			}
		})
	}
}

// TestPolicyNames pins the report labels the harness and figures rely on.
func TestPolicyNames(t *testing.T) {
	const words = 1 << 10
	want := map[string]Policy{
		"flit-adjacent":    NewFliT(Adjacent{}),
		"flit-HT(1MB)":     NewFliT(NewHashTable(1 << 20)),
		"flit-packed(4KB)": NewFliT(NewPackedHashTable(4 << 10)),
		"flit-perline":     NewFliT(NewDirectMap(words)),
		"plain":            NewPlain(),
		"izraelevitz":      NewIzraelevitz(),
		"link-and-persist": LinkAndPersist{},
		"no-persist":       NoPersist{},
	}
	for name, pol := range want {
		if pol.Name() != name {
			t.Errorf("Name() = %q, want %q", pol.Name(), name)
		}
	}
}
