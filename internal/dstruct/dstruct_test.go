package dstruct

import (
	"testing"

	"flit/internal/core"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// TestStrideForNameMatchesPolicy: the stride a store sizes its memory by,
// before it builds its policy, is the stride of the policy it then builds.
func TestStrideForNameMatchesPolicy(t *testing.T) {
	for _, name := range core.PolicyNames() {
		pol, err := core.NewPolicyByName(name, 1<<10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := StrideForName(name), StrideFor(pol); got != want {
			t.Fatalf("StrideForName(%q) = %d, the policy it names needs %d", name, got, want)
		}
	}
}

// TestRetireWaitsForTheWindow: under a commit window a retired block
// reaches the reclamation handle only at the window's commit, after the
// fence that persists the unlink that retired it; under the raw policy,
// whose unlink fenced before it returned, it goes there at once.
func TestRetireWaitsForTheWindow(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 12)
	cfg.VirtualClock = true
	pol := core.NewFliT(core.NewHashTable(1 << 10))
	base := Config{Heap: pheap.New(pmem.New(cfg)), Policy: pol, Stride: 1}
	freed := func(c *Ctx) uint64 {
		c.H.Flush() // every bucket to the arena, grace period or not
		_, n, _ := c.Ar.AllocStats()
		return n
	}

	raw := base.Open(reclaim.NewDomain(), ThreadOpts{})
	defer raw.Close()
	raw.Retire(512, 4)
	if n := freed(&raw); n != 1 {
		t.Fatalf("raw policy: %d blocks freed after Retire, want 1", n)
	}

	w := core.NewDeferred(pol)
	win := base.Open(reclaim.NewDomain(), ThreadOpts{Policy: w})
	defer win.Close()
	win.Retire(512, 4)
	if n := freed(&win); n != 0 {
		t.Fatalf("window: %d blocks freed before the commit, want 0", n)
	}
	w.Commit(win.T)
	if n := freed(&win); n != 1 {
		t.Fatalf("window: %d blocks freed after the commit, want 1", n)
	}
}

// TestSharedHandle: contexts opened with one ThreadOpts.Handle reclaim
// through it, and closing one leaves it registered — the handle is its
// opener's to close. A handle from another domain is refused.
func TestSharedHandle(t *testing.T) {
	heap := pheap.New(pmem.New(pmem.DefaultConfig(1 << 12)))
	dom := reclaim.NewDomain()
	base := Config{Heap: heap, Policy: core.NewPlain(), Stride: 1, Domain: dom}
	th := heap.Mem().RegisterThread()
	defer th.Release()
	ar := heap.NewArena()
	defer ar.Release()
	h := dom.NewHandleOwned(ar, th)
	defer h.Close()

	o := ThreadOpts{T: th, Arena: ar, Handle: h}
	a, b := base.Open(dom, o), base.Open(dom, o)
	if a.H != h || b.H != h {
		t.Fatal("a context opened with ThreadOpts.Handle reclaims through another handle")
	}
	a.Close()
	if n := dom.NumHandles(); n != 1 {
		t.Fatalf("closing one context left %d handles registered, want the shared 1", n)
	}
	b.Close()
	if n := dom.NumHandles(); n != 1 {
		t.Fatalf("closing both contexts left %d handles registered, want the shared 1", n)
	}

	own := base.Open(dom, ThreadOpts{T: th, Arena: ar})
	if n := dom.NumHandles(); n != 2 {
		t.Fatalf("a context without ThreadOpts.Handle: %d handles registered, want 2", n)
	}
	own.Close()
	if n := dom.NumHandles(); n != 1 {
		t.Fatalf("closing a context that registered its own handle left %d, want 1", n)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Open accepted a handle from another domain")
		}
	}()
	base.Open(reclaim.NewDomain(), o)
}
