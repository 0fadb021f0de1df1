package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
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
	st, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSessModesAgainstModel drives every session mode through a random
// single-op workload against a map model. Combined Add is blind, so the
// model only checks Get/Contains results (which settle pending deltas).
func TestSessModesAgainstModel(t *testing.T) {
	for _, mode := range SessionModes {
		t.Run(mode.String(), func(t *testing.T) {
			st := newTestStore(t, Options{})
			s := Open[string](st, mode)
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

// TestCombinedCoalescingElidesPWBs is the VSA property at unit scale: a
// window of self-cancelling adds on one hot key persists far fewer lines
// coalesced by a Combined session than executed one by one in a Batched
// session's window.
func TestCombinedCoalescingElidesPWBs(t *testing.T) {
	run := func(mode SessionMode) uint64 {
		st := newTestStore(t, Options{})
		s := Open[string](st, mode)
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
	if v, ok := Open[string](newTestStore(t, Options{}), Direct).Get("absent"); ok || v != 0 {
		t.Fatal("sanity: absent key visible")
	}
}
