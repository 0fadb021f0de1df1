package crashtest

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/hist"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

func newCrashStore(t *testing.T, policy string) *store.Store {
	return newCrashStoreMode(t, policy, dstruct.Automatic)
}

func newCrashStoreMode(t *testing.T, policy string, mode dstruct.Mode) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{
		Shards: 8, ExpectedKeys: 1 << 10, Policy: policy, HTBytes: 1 << 14, Mode: mode,
		// Every checked crash boundary copies the image: a small memory
		// keeps that cheap. Crash rounds never read a latency number; the
		// virtual clock keeps the modeled costs without burning their wall
		// time.
		MemWords: 1 << 17, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return checkAccount(t, st)
}

// combinerOnly is the resource account of a store whose combiner is built
// and idle: its own session's one thread, one arena and one handle.
var combinerOnly = store.Resources{Threads: 1, Arenas: 1, Handles: 1}

// checkAccount registers a cleanup that fails tb unless st's resource
// account is back at combinerOnly. A chaos round's server handlers
// withdraw their combiner slots after their peers hang up, so open slots
// get a few seconds to drain. The cleanup first builds the combiner, if
// no Combined session did; a crashed combiner refuses the session, and
// exists.
func checkAccount(tb testing.TB, st *store.Store) *store.Store {
	tb.Cleanup(func() {
		pmem.RunToCrash(func() { store.Open[[]byte](st, store.Combined).Close() })
		got := st.Resources()
		for deadline := time.Now().Add(5 * time.Second); got.CombinedSessions > 0 && time.Now().Before(deadline); got = st.Resources() {
			time.Sleep(time.Millisecond)
		}
		if got != combinerOnly {
			tb.Errorf("resource account at cleanup: %+v, want %+v", got, combinerOnly)
		}
	})
	return st
}

// storeShape is the service battery's wide shape: 200 keys loaded before
// the recorded run, four workers of 96 operations over 300 keys, and a
// strided sample of 32 boundaries per recorded execution.
func storeShape(seed int64) dlcheck.Options {
	return dlcheck.Options{Workers: 4, OpsPerWorker: 96, KeyRange: 300, Prefill: 200, Budget: 32, Seed: seed}
}

// denseShape is the enumerator's default shape — few keys, so operations
// contend on them — at every boundary (64 of them under -short).
func denseShape(seed int64) dlcheck.Options {
	opts := dlcheck.DefaultOptions(seed)
	opts.Budget = 0
	if testing.Short() {
		opts.Budget = 64
	}
	return opts
}

// crashSeed decorrelates a crash image's RandomSubset draws from the
// round's workload seed.
const crashSeed = 0x5ca1ab1e

// drawStoreOp draws one operation of storeKinds over keys [0, keys): a
// write stores val, an Add adds ±1 (so windows of Adds cancel).
func drawStoreOp(rng *rand.Rand, keys, val int) dlcheck.BatchOp {
	op := dlcheck.BatchOp{Kind: storeKinds[rng.Intn(len(storeKinds))], Key: uint64(rng.Intn(keys)), Val: uint64(val)}
	if op.Kind == hist.Add {
		op.Val = uint64(2*rng.Intn(2) - 1)
	}
	return op
}

// crashMidRun is the service battery's countdown round at shape: it puts
// shape.Prefill keys, opens shape.Workers executors of mode sm, arms a
// seeded countdown on every live thread of st's memory — the workers'
// own, or the combiner's — and runs each worker's recorded op vectors,
// drawn from the enumerator's alphabet (storeKinds), until
// it crashes or finishes its shape.OpsPerWorker. A crash inside a vector
// leaves all of it pending; a countdown firing on the combiner kills the
// whole process and leaves every window in flight pending, Adds and all.
// The cm image is recovered shard-parallel and checked against the
// history, values included; the recovered store, rebuilt from whatever
// the crash left dirty, is returned to carry on.
func crashMidRun(t *testing.T, st *store.Store, sm store.SessionMode, shape dlcheck.Options, cm pmem.CrashMode) (*hist.Violation, *store.Store) {
	t.Helper()
	load := store.Open[string](st, store.Direct)
	for k := range uint64(shape.Prefill) {
		load.Put(dlStoreKey(k), k)
	}
	load.Close()
	initial := st.Snapshot()

	maxBatch := 1
	if sm != store.Direct {
		maxBatch = dlMaxBatch
	}
	newExec := executors(st, sm)
	clock := &hist.Clock{}
	rng := rand.New(rand.NewSource(shape.Seed))
	recs := make([]*hist.Recorder, shape.Workers)
	execs := make([]*dlExec, shape.Workers)
	seeds := make([]int64, shape.Workers)
	for w := range execs {
		recs[w], execs[w], seeds[w] = hist.NewRecorder(clock), newExec(), rng.Int63()
	}
	// A store operation passes a handful of crash checks, so countdowns
	// below four per operation land all through a worker's run. In a
	// Combined round the one live thread is the combiner's, which runs
	// every worker's operations: its countdown spans all of them and is
	// drawn from their second half, so the crash lands after windows were
	// acknowledged rather than in the first one. Batched workers own their
	// threads, as Direct ones do.
	first, span := int64(1), int64(4*shape.OpsPerWorker)
	if sm == store.Combined {
		span = int64(4*shape.Workers*shape.OpsPerWorker) / 2
		first += span
	}
	for _, th := range st.Mem().Threads() {
		th.SetCrashAfter(first + rng.Int63n(span))
	}
	var crashed atomic.Int64
	var wg sync.WaitGroup
	for w := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seeds[w]))
			ops := make([]dlcheck.BatchOp, 0, maxBatch)
			toks := make([]int, 0, maxBatch)
			res := make([]hist.Answer, maxBatch)
			if pmem.RunToCrash(func() {
				for n := 0; n < shape.OpsPerWorker; n += len(ops) {
					ops, toks = ops[:0], toks[:0]
					for range min(1+wrng.Intn(maxBatch), shape.OpsPerWorker-n) {
						op := drawStoreOp(wrng, shape.KeyRange, n)
						ops = append(ops, op)
						toks = append(toks, recs[w].Begin(op.Kind, store.HashKey(dlStoreKey(op.Key)), op.Val))
					}
					execs[w].ExecBatch(ops, res)
					for i, tok := range toks {
						recs[w].Finish(tok, res[i])
					}
				}
			}) {
				crashed.Add(1)
			}
		}()
	}
	wg.Wait()
	for _, e := range execs {
		e.close()
	}
	if crashed.Load() == 0 {
		t.Fatal("no countdown fired: the round crashed nothing mid-run")
	}

	st2, rstats, final, err := recoverContents(st, st.Mem().CrashImage(cm, shape.Seed^crashSeed), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAccount(t, st2)
	if len(rstats.Shards) != st.NumShards() {
		t.Fatalf("recovery covered %d shards, want %d", len(rstats.Shards), st.NumShards())
	}
	return hist.Check(recs, initial, final), st2
}

// storeBattery is the service-level analogue of TestDurableLinearizability
// for one session mode at one shape, over every policy: the FliT policy
// under every durability mode (the service layer leans on Upsert's
// in-place value p-store), the others under Automatic. Per seed, the
// enumerator checks whole-store histories across sessions at every
// (budgeted) persist boundary, each recovered shard-parallel and checked
// per key; then an eight-shard store crashes mid-run at the same shape
// and its RandomSubset image must check too. The stores recovered from
// that image and from the enumerated run's final image must stay
// operational.
func storeBattery(t *testing.T, sm store.SessionMode, shape func(seed int64) dlcheck.Options) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, policy := range []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyIz, core.PolicyLAP} {
		modes := []dstruct.Mode{dstruct.Automatic}
		if policy == core.PolicyHT {
			modes = dstruct.Modes
		}
		t.Run(policy, func(t *testing.T) {
			for _, mode := range modes {
				for _, seed := range seeds {
					st := newDLStore(t, policy, mode)
					rep := RunStoreDL(st, sm, 0, shape(seed))
					if rep.Violation != nil {
						t.Fatalf("mode %v seed %d: %v", mode, seed, rep.Violation)
					}
					if rep.Points < 2 {
						t.Fatalf("mode %v seed %d: only %d crash points checked", mode, seed, rep.Points)
					}
					if policy == core.PolicyHT && rep.LiveTags != 0 {
						t.Fatalf("mode %v seed %d: %d live tags after the run", mode, seed, rep.LiveTags)
					}
					v, crashed := crashMidRun(t, newCrashStoreMode(t, policy, mode), sm, shape(seed), pmem.RandomSubset)
					if v != nil {
						t.Fatalf("mode %v seed %d, countdown crash: %v", mode, seed, v)
					}
					final, _, _, err := recoverContents(st, st.Mem().CrashImage(pmem.DropUnfenced, 0), nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					for _, rec := range []*store.Store{final, crashed} {
						sess := store.Open[string](rec, store.Direct)
						if _, had := sess.Get("post"); had || !sess.Put("post", 1) || !sess.Delete("post") {
							t.Fatalf("mode %v seed %d: recovered store inoperable", mode, seed)
						}
						sess.Close()
					}
				}
			}
		})
	}
}

// storeTooth runs storeBattery's two checks at shape over the no-persist
// baseline: the loaded keys never persist, so each must report a
// violation.
func storeTooth(t *testing.T, sm store.SessionMode, shape func(seed int64) dlcheck.Options) {
	if rep := RunStoreDL(newDLStore(t, core.PolicyNoPersist, dstruct.Automatic), sm, 0, shape(1)); rep.Violation == nil {
		t.Fatalf("no-persist store passed the %v enumeration — it has no teeth", sm)
	}
	if v, _ := crashMidRun(t, newCrashStore(t, core.PolicyNoPersist), sm, shape(1), pmem.DropUnfenced); v == nil {
		t.Fatalf("no-persist store passed the %v countdown crash — it has no teeth", sm)
	}
}

// TestStoreDurableLinearizability is storeBattery over Direct sessions.
func TestStoreDurableLinearizability(t *testing.T) { storeBattery(t, store.Direct, storeShape) }

// TestStoreCheckerHasTeeth is storeTooth over Direct sessions.
func TestStoreCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Direct, storeShape) }

// TestStoreRepeatedCrashCycles chains crash→recover→mutate rounds on one
// store lineage: each round crashes four workers mid-operation, its
// RandomSubset image must check against the round's history, and the
// store recovered from it — dirty buckets and all — is loaded, mutated
// and crashed again in the next round.
func TestStoreRepeatedCrashCycles(t *testing.T) {
	st := newCrashStore(t, core.PolicyHT)
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		shape := dlcheck.Options{Workers: 4, OpsPerWorker: 96, KeyRange: 400, Prefill: 300, Seed: int64(100 + round)}
		v, st2 := crashMidRun(t, st, store.Direct, shape, pmem.RandomSubset)
		if v != nil {
			t.Fatalf("round %d: %v", round, v)
		}
		st = st2
		// Mutate between crashes so each round persists fresh state.
		sess := store.Open[string](st, store.Direct)
		for i := 0; i < 50; i++ {
			sess.Put(fmt.Sprintf("round%d-%d", round, i), uint64(i))
		}
		sess.Close()
	}
}

// --- Recovery edge cases -------------------------------------------------
//
// The paths below were previously untested: a crash landing *inside*
// store.New's superblock persist sequence, and a crash landing during
// recovery itself (before the rebuilt store has fenced anything new).

// TestStoreRecoverySuperblockEdges enumerates the states a crash during
// the superblock persist can leave and requires a clean error — never a
// panic or a fabricated store — from recovery.
func TestStoreRecoverySuperblockEdges(t *testing.T) {
	mkMem := func() (*pmem.Memory, *pmem.Thread) {
		mc := pmem.DefaultConfig(1 << 14)
		mc.VirtualClock = true
		mem := pmem.New(mc)
		return mem, mem.RegisterThread()
	}
	recover_ := func(mem *pmem.Memory) error {
		_, _, err := store.Recover(mem, 0, store.Options{Policy: core.PolicyHT})
		return err
	}

	// (a) Crash before the root pointer persisted: empty memory.
	mem, _ := mkMem()
	if err := recover_(mem); err == nil {
		t.Fatal("recovery fabricated a store from empty memory")
	}

	// (b) Root persisted but pointing at an unpersisted superblock (the
	// magic word never reached the shadow). writeSuperblock fences the
	// contents before the root, so this state needs an adversarial image —
	// exactly what DropUnfenced gives when only the root store is fenced.
	mem, th := mkMem()
	heap := pheap.NewWithRoots(mem, 5)
	sb := pmem.Addr(1 << 10)
	th.Store(heap.Root(0), uint64(sb)) // root → sb, but sb's magic stays 0
	th.PWB(heap.Root(0))
	th.PFence()
	img := mem.CrashImage(pmem.DropUnfenced, 0)
	if err := recover_(pmem.NewFromImage(img, mem.Config())); err == nil {
		t.Fatal("recovery accepted a superblock whose magic never persisted")
	}

	// (c) Persisted superblock with a corrupt shard count.
	mem, th = mkMem()
	heap = pheap.NewWithRoots(mem, 5)
	for i, v := range []uint64{store.Magic2, store.MaxShards + 5, 16} {
		th.Store(sb+pmem.Addr(i), v)
		th.PWB(sb + pmem.Addr(i))
	}
	th.PFence()
	th.Store(heap.Root(0), uint64(sb))
	th.PWB(heap.Root(0))
	th.PFence()
	if err := recover_(mem); err == nil {
		t.Fatal("recovery accepted an out-of-range shard count")
	}
}

// TestStoreRecoveryIdempotentAndCrashDuringRecovery: (1) two independent
// recoveries from one torn image agree — recovery must not depend on its
// own side effects; (2) a crash immediately after (equivalently: at any
// point during) recovery, dropping everything recovery left unfenced,
// recovers to the same contents again.
func TestStoreRecoveryIdempotentAndCrashDuringRecovery(t *testing.T) {
	st := newCrashStore(t, core.PolicyHT)
	workload.Load(st, 200, 2)
	// Interrupt a session mid-stream so the image is genuinely torn.
	sess := store.Open[string](st, store.Direct)
	for _, th := range st.Mem().Threads() { // the session's, the one live thread
		th.SetCrashAfter(700)
	}
	pmem.RunToCrash(func() {
		for i := 0; ; i++ {
			key := string(workload.AppendKey(nil, uint64(i%300)))
			if i%3 == 0 {
				sess.Delete(key)
			} else {
				sess.Put(key, uint64(i))
			}
		}
	})
	sess.Close()
	wm := st.Heap().Watermark()
	img := st.Mem().CrashImage(pmem.RandomSubset, 42)

	recoverFrom := func(img []uint64) (*store.Store, map[uint64]uint64) {
		t.Helper()
		mem := pmem.NewFromImage(img, st.Mem().Config())
		st2, _, err := store.Recover(mem, wm, st.Opts())
		if err != nil {
			t.Fatal(err)
		}
		checkAccount(t, st2)
		return st2, st2.Snapshot()
	}

	st1, snap1 := recoverFrom(img)
	_, snap2 := recoverFrom(img)
	if len(snap1) != len(snap2) {
		t.Fatalf("independent recoveries disagree: %d vs %d keys", len(snap1), len(snap2))
	}
	for k, v := range snap1 {
		if snap2[k] != v {
			t.Fatalf("independent recoveries disagree on key %#x: %d vs %d", k, v, snap2[k])
		}
	}

	// Crash again before the recovered store persists anything new:
	// everything recovery wrote but never fenced is dropped.
	img2 := st1.Mem().CrashImage(pmem.DropUnfenced, 0)
	_, snap3 := recoverFrom(img2)
	if len(snap3) != len(snap1) {
		t.Fatalf("crash during recovery lost keys: %d vs %d", len(snap3), len(snap1))
	}
	for k, v := range snap1 {
		if snap3[k] != v {
			t.Fatalf("crash during recovery corrupted key %#x: %d vs %d", k, v, snap3[k])
		}
	}
}
