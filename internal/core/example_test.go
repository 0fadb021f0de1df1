package core_test

import (
	"fmt"

	"flit/internal/core"
	"flit/internal/pmem"
)

// ExampleNewFliT shows the heart of the paper: a p-store persists before it
// returns, and p-loads skip the flush whenever no store is pending.
func ExampleNewFliT() {
	mem := pmem.New(pmem.Config{Words: 1 << 10}) // zero-latency for the example
	th := mem.RegisterThread()
	pol := core.NewFliT(core.NewHashTable(1 << 12))

	pol.Store(th, 64, 42, core.P)
	fmt.Println("persisted after p-store:", mem.PersistedWord(64))

	before := th.Stats.PWBs
	for i := 0; i < 1000; i++ {
		pol.Load(th, 64, core.P) // untagged: no flush
	}
	fmt.Println("flushes issued by 1000 p-loads:", th.Stats.PWBs-before)

	plain := core.NewPlain()
	before = th.Stats.PWBs
	for i := 0; i < 1000; i++ {
		plain.Load(th, 64, core.P) // plain flushes every p-load
	}
	fmt.Println("flushes issued by plain:", th.Stats.PWBs-before)
	// Output:
	// persisted after p-store: 42
	// flushes issued by 1000 p-loads: 0
	// flushes issued by plain: 1000
}

// ExamplePersist demonstrates the paper's Figure 1 API: a persist<>
// variable with a default pflag.
func ExamplePersist() {
	mem := pmem.New(pmem.Config{Words: 1 << 10})
	th := mem.RegisterThread()
	v := core.NewPersist(core.NewFliT(core.Adjacent{}), 64, core.P)

	v.Store(th, 7)
	v.FAA(th, 3)
	v.OperationCompletion(th)
	fmt.Println("volatile:", v.Load(th))
	fmt.Println("persistent:", mem.PersistedWord(64))
	// Output:
	// volatile: 10
	// persistent: 10
}
