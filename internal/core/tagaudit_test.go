package core

import (
	"testing"

	"flit/internal/pmem"
)

// TestLiveTagsBalance: every scheme's tag sum returns to zero after
// balanced Inc/Dec traffic and reflects outstanding tags in between.
func TestLiveTagsBalance(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 12})
	th := mem.RegisterThread()
	schemes := []CounterScheme{
		NewHashTable(1 << 10),
		NewPackedHashTable(1 << 10),
		NewDirectMap(1 << 12),
	}
	for _, s := range schemes {
		a := s.(TagAuditor)
		if got := a.LiveTags(); got != 0 {
			t.Fatalf("%s: fresh scheme has %d live tags", s.Name(), got)
		}
		addrs := []pmem.Addr{64, 65, 200, 4000}
		for _, ad := range addrs {
			s.Inc(th, ad)
		}
		s.Inc(th, addrs[0]) // double-tag one location
		if got := a.LiveTags(); got != len(addrs)+1 {
			t.Fatalf("%s: %d live tags, want %d", s.Name(), got, len(addrs)+1)
		}
		for _, ad := range addrs {
			s.Dec(th, ad)
		}
		s.Dec(th, addrs[0])
		if got := a.LiveTags(); got != 0 {
			t.Fatalf("%s: %d live tags after balance, want 0", s.Name(), got)
		}
	}
}

// TestLiveTagCountPolicies: the policy-level hook audits FliT policies
// with enumerable schemes and declines everything else.
func TestLiveTagCountPolicies(t *testing.T) {
	if _, ok := LiveTagCount(NewFliT(NewHashTable(1 << 10))); !ok {
		t.Fatal("flit-HT must be auditable")
	}
	if _, ok := LiveTagCount(NewFliT(Adjacent{})); ok {
		t.Fatal("flit-adjacent counters live in pmem and must not claim auditability")
	}
	if _, ok := LiveTagCount(NewPlain()); ok {
		t.Fatal("plain has no counters to audit")
	}
}

// TestFailedPCASFlushesObservedValue: a failed p-CAS must behave like a
// p-load of the observed value — flushing it while another thread's
// p-store is still pending — so an operation acting on the observation
// cannot complete ahead of the value's persistence. This is the
// load-obligation the dlcheck enumerator verifies end to end.
func TestFailedPCASFlushesObservedValue(t *testing.T) {
	const addr = pmem.Addr(64)
	for _, tc := range []struct {
		name string
		pol  Policy
		// tag simulates the concurrent writer's un-persisted p-store
		// state for schemes that need explicit setup.
		tag   func(t *pmem.Thread, p Policy)
		untag func(t *pmem.Thread, p Policy)
	}{
		{
			name: "flit-ht", pol: NewFliT(NewHashTable(1 << 10)),
			tag:   func(th *pmem.Thread, p Policy) { Counters(p).Inc(th, addr) },
			untag: func(th *pmem.Thread, p Policy) { Counters(p).Dec(th, addr) },
		},
		{name: "plain", pol: NewPlain()},
		{name: "izraelevitz", pol: NewIzraelevitz()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := pmem.New(pmem.Config{Words: 1 << 10})
			writer := mem.RegisterThread()
			reader := mem.RegisterThread()

			// The "writer" installs a value volatile-only, mimicking the
			// window between a p-store's apply and its fence.
			writer.Store(addr, 42)
			if tc.tag != nil {
				tc.tag(writer, tc.pol)
			}

			// The reader's p-CAS fails (expects 0, sees 42).
			if tc.pol.CAS(reader, addr, 0, 7, P) {
				t.Fatal("CAS unexpectedly succeeded")
			}
			tc.pol.Complete(reader)
			if got := mem.PersistedWord(addr); got != 42 {
				t.Fatalf("observed value not persisted by failed p-CAS + completion: shadow = %d", got)
			}
			if tc.untag != nil {
				tc.untag(writer, tc.pol)
			}
		})
	}

	// Link-and-persist: the dirty bit plays the tag's role.
	t.Run("link-and-persist", func(t *testing.T) {
		mem := pmem.New(pmem.Config{Words: 1 << 10})
		writer := mem.RegisterThread()
		reader := mem.RegisterThread()
		writer.Store(addr, 42|DirtyBit)
		pol := LinkAndPersist{}
		if pol.CAS(reader, addr, 0, 7, P) {
			t.Fatal("CAS unexpectedly succeeded")
		}
		pol.Complete(reader)
		if got := mem.PersistedWord(addr) &^ DirtyBit; got != 42 {
			t.Fatalf("dirty observed value not persisted by failed p-CAS: shadow = %d", got)
		}
	})
}
