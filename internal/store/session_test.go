package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flit/internal/metrics"
	"flit/internal/pmem"
)

// addBase keeps Add-churned values far from zero so signed deltas never
// wrap the stored payload negative.
const addBase = uint64(1) << 20

func newTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards = 4
	}
	if opts.ExpectedKeys == 0 {
		opts.ExpectedKeys = 1 << 10
	}
	opts.VirtualClock = true
	return mustNew(t, opts)
}

// TestSessModesAgainstModel drives every session mode through a random
// single-op workload against a map model. Combined Add is blind, so the
// model only checks Get/Contains results (which settle pending deltas).
func TestSessModesAgainstModel(t *testing.T) {
	for _, mode := range SessionModes {
		t.Run(mode.String(), func(t *testing.T) {
			st := newTestStore(t, Options{})
			s := Open[string](st, mode)
			defer s.Close()
			model := make(map[string]uint64)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 4000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(64))
				switch rng.Intn(5) {
				case 0:
					v, ok := s.Get(key)
					want, wok := model[key]
					if ok != wok || (ok && v != want) {
						t.Fatalf("op %d: Get(%s) = %d,%v want %d,%v", i, key, v, ok, want, wok)
					}
				case 1:
					val := uint64(rng.Intn(1 << 16))
					s.Put(key, val)
					model[key] = val
				case 2:
					s.Delete(key)
					delete(model, key)
				case 3:
					if got, want := s.Contains(key), contains(model, key); got != want {
						t.Fatalf("op %d: Contains(%s) = %v want %v", i, key, got, want)
					}
				case 4:
					delta := uint64(1)
					if rng.Intn(2) == 0 {
						delta = ^uint64(0) // -1
					}
					if _, ok := model[key]; !ok {
						// Seed with the base so churn stays positive.
						s.Put(key, addBase)
						model[key] = addBase
					}
					s.Add(key, delta)
					model[key] += delta
				}
				if mode == Batched && rng.Intn(8) == 0 {
					s.Commit()
				}
			}
			s.Commit()
			snap := st.Snapshot()
			if len(snap) != len(model) {
				t.Fatalf("snapshot has %d keys, model %d", len(snap), len(model))
			}
			for k, want := range model {
				if got := snap[HashKey(k)]; got != want {
					t.Fatalf("key %s: snapshot %d want %d", k, got, want)
				}
			}
		})
	}
}

func contains(m map[string]uint64, k string) bool {
	_, ok := m[k]
	return ok
}

// TestCombinedApplyOrdering checks the settle rule: within one Apply,
// non-Add ops on a key observe every earlier Add on that key, including
// inserts of absent keys.
func TestCombinedApplyOrdering(t *testing.T) {
	st := newTestStore(t, Options{})
	s := Open[string](st, Combined)
	defer s.Close()
	ops := []Op[string]{
		{Kind: OpAdd, Key: "fresh", Val: 5},
		{Kind: OpGet, Key: "fresh"},
		{Kind: OpAdd, Key: "fresh", Val: 2},
		{Kind: OpAdd, Key: "gone", Val: 1},
		{Kind: OpDelete, Key: "gone"},
		{Kind: OpContains, Key: "gone"},
	}
	res := make([]Result, len(ops))
	s.Apply(ops, res)
	if !res[1].Ok || res[1].Val != 5 {
		t.Fatalf("Get after pending Add = %d,%v want 5,true", res[1].Val, res[1].Ok)
	}
	if !res[4].Ok {
		t.Fatal("Delete after pending Add on absent key must find it present")
	}
	if res[5].Ok {
		t.Fatal("Contains after Delete must be false")
	}
	if v, ok := s.Get("fresh"); !ok || v != 7 {
		t.Fatalf("after windows: fresh = %d,%v want 7,true", v, ok)
	}
}

// TestCombinedConcurrent churns Combined sessions from many goroutines:
// per-goroutine private keys verify result correctness, shared hot keys
// verify Add commutativity, and the final snapshot must match.
func TestCombinedConcurrent(t *testing.T) {
	st := newTestStore(t, Options{})
	const workers, iters, hot = 6, 800, 3
	seed := Open[string](st, Direct)
	defer seed.Close()
	for h := 0; h < hot; h++ {
		seed.Put(fmt.Sprintf("hot%d", h), addBase)
	}
	nets := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := Open[[]byte](st, Combined)
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			var net int64
			for i := 0; i < iters; i++ {
				priv := []byte(fmt.Sprintf("w%d-k%d", w, rng.Intn(16)))
				val := uint64(i + 1)
				if !func() bool { s.Put(priv, val); v, ok := s.Get(priv); return ok && v == val }() {
					t.Errorf("worker %d: private key readback failed", w)
					return
				}
				delta := uint64(1)
				if rng.Intn(2) == 0 {
					delta = ^uint64(0)
					net--
				} else {
					net++
				}
				s.Add([]byte(fmt.Sprintf("hot%d", rng.Intn(hot))), delta)
			}
			nets[w] = net
		}(w)
	}
	wg.Wait()
	var want int64
	for _, n := range nets {
		want += n
	}
	var got int64
	for h := 0; h < hot; h++ {
		v, ok := seed.Get(fmt.Sprintf("hot%d", h))
		if !ok {
			t.Fatalf("hot%d missing", h)
		}
		got += int64(v - addBase)
	}
	if got != want {
		t.Fatalf("hot-key net sum %d want %d", got, want)
	}
}

// applyInOneWindow has each session Apply its op vector, holding the
// combiner's lock until every one has announced so that one window serves
// them all, in slot registration order. It returns what each Apply
// panicked with.
func applyInOneWindow(st *Store, sess []*Sess[string], ops [][]Op[string], res [][]Result) []any {
	c := st.comb.Load()
	c.lock.Store(1)
	faults := make([]any, len(sess))
	var wg sync.WaitGroup
	for i, s := range sess {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { faults[i] = recover() }()
			s.Apply(ops[i], res[i])
		}()
	}
	for announced := 0; announced < len(sess); {
		announced = 0
		for _, sl := range *c.slots.Load() {
			if sl.state.Load() == slotAnnounced {
				announced++
			}
		}
	}
	c.lock.Store(0)
	wg.Wait()
	return faults
}

// TestCombinerPanicIsOneAnnouncers: one announcer's op panics mid-window
// (an op kind the store does not know). The panic is that announcer's: it
// re-raises it, while the others announced into the same window get
// their results, durable on return, and the store stays live. A panic
// while applying a net delta (an Add's insert into a full heap, settled
// by a later slot's Get on the key) is no one announcer's: the Add's
// owner must not be acknowledged, so every slot of the window fails.
func TestCombinerPanicIsOneAnnouncers(t *testing.T) {
	t.Run("one-op", func(t *testing.T) {
		st := newTestStore(t, Options{})
		const good = 3
		sess := make([]*Sess[string], good+1) // the bad one registered first: swept first
		ops := make([][]Op[string], good+1)
		res := make([][]Result, good+1)
		for i := range sess {
			sess[i] = Open[string](st, Combined)
			defer sess[i].Close()
			k := fmt.Sprintf("k%d", i-1)
			ops[i], res[i] = []Op[string]{{Kind: OpPut, Key: k, Val: uint64(i - 1)}, {Kind: OpGet, Key: k}}, make([]Result, 3)
		}
		bad := sess[0]
		ops[0] = []Op[string]{{Kind: OpPut, Key: "bad-0", Val: 1}, {Kind: OpKind(99), Key: "bad-1"}, {Kind: OpPut, Key: "bad-2", Val: 1}}
		opsHist, _ := st.WindowHists()
		faults := applyInOneWindow(st, sess, ops, res)

		if err, ok := faults[0].(error); !ok || err.Error() != errUnknownOp(99).Error() {
			t.Fatalf("the bad announcer raised %v, want %v", faults[0], errUnknownOp(99))
		}
		for i, r := range res[1:] {
			if faults[i+1] != nil || !r[0].Ok || !r[1].Ok || r[1].Val != uint64(i) {
				t.Fatalf("announcer %d: results %+v, panic %v; want an insert and then %d", i, r, faults[i+1], i)
			}
		}
		var windows metrics.HistSnapshot
		opsHist.Read(&windows)
		if windows.Count != 1 || windows.Sum != 2*good {
			t.Fatalf("%d windows acknowledged %d ops, want one acknowledging %d", windows.Count, windows.Sum, 2*good)
		}
		if st.combCrashed.Load() {
			t.Fatal("a non-crash panic marked the combiner crashed")
		}
		img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
		st2, _, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
		if err != nil {
			t.Fatal(err)
		}
		checkAccount(t, st2)
		rd := Open[string](st2, Direct)
		defer rd.Close()
		for i := range good {
			if v, ok := rd.Get(fmt.Sprintf("k%d", i)); !ok || v != uint64(i) {
				t.Fatalf("announcer %d's acknowledged Put is not in the crash image: (%d,%v)", i, v, ok)
			}
		}
		// The store stays live, and the bad announcer's session with it.
		if !bad.Put("after", 5) {
			t.Fatal("a Put after the panic did not insert")
		}
		if v, ok := sess[1].Get("after"); !ok || v != 5 {
			t.Fatalf("Get after the panic = (%d,%v), want 5", v, ok)
		}
	})
	t.Run("net-delta", func(t *testing.T) {
		st := newTestStore(t, Options{Shards: 1, ExpectedKeys: 1 << 8, MemWords: 1 << 18})
		fill := Open[string](st, Combined)
		defer fill.Close()
		full := func() (full bool) {
			defer func() { full = recover() != nil }()
			for i := 0; i < 1<<16; i++ {
				fill.Put(fmt.Sprintf("fill-%d", i), 1)
			}
			return false
		}()
		if !full {
			t.Fatal("the heap never ran out")
		}
		adder, getter := Open[string](st, Combined), Open[string](st, Combined)
		defer adder.Close()
		defer getter.Close()
		faults := applyInOneWindow(st, []*Sess[string]{adder, getter},
			[][]Op[string]{{{Kind: OpAdd, Key: "fresh", Val: 1}}, {{Kind: OpGet, Key: "fresh"}}},
			[][]Result{make([]Result, 1), make([]Result, 1)})
		if faults[0] == nil {
			t.Fatal("the Add whose net delta panicked was acknowledged")
		}
		if faults[1] == nil {
			t.Fatal("the Get whose settling panicked was answered")
		}
		if st.combCrashed.Load() {
			t.Fatal("a full heap marked the combiner crashed")
		}
		// The store stays live: an in-place Put allocates nothing.
		if fill.Put("fill-0", 7) {
			t.Fatal("an in-place Put after the panic inserted")
		}
		if v, ok := adder.Get("fill-0"); !ok || v != 7 {
			t.Fatalf("Get after the panic = (%d,%v), want 7", v, ok)
		}
	})
}

// TestWindowAcksAfterItsCommitFence: a window acknowledges the slots it
// served only after its commit fence. Here the fence crashes: the
// countdown on the combiner's thread expires before the window, and a
// dead thread's next fence panics (pmem's drain), which — since the
// window's ops, a Get and an in-place Put, issue no fence of their own —
// is the commit's. A second slot, announced by hand, is served in that
// window; it must never read slotDone, and its Put must be absent from
// the crash image.
func TestWindowAcksAfterItsCommitFence(t *testing.T) {
	st := newTestStore(t, Options{})
	load := Open[string](st, Direct)
	load.Put("k", 1)
	load.Close()
	own, other := Open[string](st, Combined), Open[string](st, Combined)
	defer own.Close()
	defer other.Close()
	sl := other.c.slot
	sl.ops = []HashedOp{{Kind: OpPut, H: hashKey("k"), Val: 7}}
	sl.res = make([]Result, 1)
	sl.state.Store(slotAnnounced)

	th := st.comb.Load().x.t
	th.SetCrashAfter(0)
	if !pmem.RunToCrash(th.CheckCrash) {
		t.Fatal("the countdown did not expire")
	}
	if !pmem.RunToCrash(func() { own.Get("k") }) {
		t.Fatal("the window committed on a crashed thread")
	}
	if got := sl.state.Load(); got != slotClaimed {
		t.Fatalf("the served slot reads state %d after its window's commit fence crashed, want slotClaimed (%d): acknowledged before the fence", got, slotClaimed)
	}
	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	rec, _, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	checkAccount(t, rec)
	rd := Open[string](rec, Direct)
	defer rd.Close()
	if v, ok := rd.Get("k"); !ok || v != 1 {
		t.Fatalf("recovered k = (%d,%v), want the prefilled 1: the unfenced Put survived", v, ok)
	}
}

// TestWindowAcksAfterItsDeltas: a window applies its coalesced Add
// deltas before its commit fence, so an Add it acknowledged is in every
// later crash image. A slot announced by hand holds one Add; another
// Combined session's Get, on a key of its own, runs the window. Once the
// slot reads slotDone, an image that drops everything unfenced must
// recover the Add's effect.
func TestWindowAcksAfterItsDeltas(t *testing.T) {
	st := newTestStore(t, Options{})
	load := Open[string](st, Direct)
	load.Put("k", 1)
	load.Close()
	own, other := Open[string](st, Combined), Open[string](st, Combined)
	defer own.Close()
	defer other.Close()
	sl := other.c.slot
	sl.ops = []HashedOp{{Kind: OpAdd, H: hashKey("k"), Val: 5}}
	sl.res = make([]Result, 1)
	sl.state.Store(slotAnnounced)

	own.Get("j")
	if got := sl.state.Load(); got != slotDone {
		t.Fatalf("the announced slot reads state %d after the window, want slotDone (%d)", got, slotDone)
	}
	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	rec, _, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	checkAccount(t, rec)
	rd := Open[string](rec, Direct)
	defer rd.Close()
	if v, ok := rd.Get("k"); !ok || v != 6 {
		t.Fatalf("recovered k = (%d,%v), want 6: the acknowledged Add was not durable", v, ok)
	}
}

// TestCombinedCoalescingElidesPWBs is the VSA property at unit scale: a
// window of self-cancelling adds on one hot key persists far fewer lines
// coalesced by a Combined session than executed one by one in a Batched
// session's window.
func TestCombinedCoalescingElidesPWBs(t *testing.T) {
	run := func(mode SessionMode) uint64 {
		st := newTestStore(t, Options{})
		s := Open[string](st, mode)
		defer s.Close()
		s.Put("hot", addBase)
		s.Commit()
		const n = 256
		ops := make([]Op[string], n)
		for i := range ops {
			d := uint64(1)
			if i%2 == 1 {
				d = ^uint64(0)
			}
			ops[i] = Op[string]{Kind: OpAdd, Key: "hot", Val: d}
		}
		res := make([]Result, n)
		st.Mem().ResetStats()
		s.Apply(ops, res)
		s.Commit()
		return st.Mem().TotalStats().PWBs
	}
	plain := run(Batched)
	coalesced := run(Combined)
	t.Logf("%d PWBs uncoalesced, %d coalesced", plain, coalesced)
	if coalesced*10 > plain {
		t.Fatalf("coalesced window used %d PWBs vs %d uncoalesced; want ≥10x reduction", coalesced, plain)
	}
	s := Open[string](newTestStore(t, Options{}), Direct)
	defer s.Close()
	if v, ok := s.Get("absent"); ok || v != 0 {
		t.Fatal("sanity: absent key visible")
	}
}
