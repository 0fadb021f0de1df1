package store

import (
	"fmt"
	"math/rand"
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

func testOptions(shards int, policy string) Options {
	return Options{
		Shards:       shards,
		ExpectedKeys: 1 << 12,
		Policy:       policy,
		HTBytes:      1 << 14,
	}
}

func mustNew(t *testing.T, o Options) *Store {
	t.Helper()
	st, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHashKeyStaysInWindow(t *testing.T) {
	for i := 0; i < 10_000; i++ {
		h := HashKey(fmt.Sprintf("key-%d", i))
		if h >= dstruct.KeyMax {
			t.Fatalf("HashKey escaped the 48-bit window: %#x", h)
		}
	}
	if HashKey("alpha") != HashKey("alpha") {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey("alpha") == HashKey("beta") {
		t.Fatal("suspicious collision on trivial keys")
	}
}

func TestHashKeyBytesMatchesString(t *testing.T) {
	for _, k := range []string{"", "a", "alpha", "user0000000000000042", "key-9999"} {
		if HashKeyBytes([]byte(k)) != HashKey(k) {
			t.Fatalf("HashKeyBytes(%q) != HashKey(%q)", k, k)
		}
	}
}

// TestShardIdxMatchesMod: the one routing helper is h mod n for every shard
// count a store can have — placement is persisted, so the mask it takes for
// a power-of-two count may never disagree with the divide.
func TestShardIdxMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	hs := []uint64{0, KeyMask}
	for len(hs) < 10_002 {
		hs = append(hs, rng.Uint64()&KeyMask)
	}
	for n := 1; n <= MaxShards; n++ {
		for _, h := range hs {
			if got, want := shardIdx(h, n), int(h%uint64(n)); got != want {
				t.Fatalf("shardIdx(%#x, %d) = %d, want %d", h, n, got, want)
			}
		}
	}
}

// TestByteSessionMatchesString: byte-keyed and string-keyed sessions
// hit the same hashed keyspace.
func TestByteSessionMatchesString(t *testing.T) {
	st := mustNew(t, Options{Shards: 4, ExpectedKeys: 1 << 10})
	bs := Open[[]byte](st, Direct)
	ss := Open[string](st, Direct)
	if !bs.Put([]byte("k1"), 7) {
		t.Fatal("byte Put of a fresh key reported overwrite")
	}
	if v, ok := ss.Get("k1"); !ok || v != 7 {
		t.Fatalf("string Get after byte Put = (%d,%v), want (7,true)", v, ok)
	}
	ss.Put("k2", 9)
	if v, ok := bs.Get([]byte("k2")); !ok || v != 9 {
		t.Fatalf("byte Get after string Put = (%d,%v), want (9,true)", v, ok)
	}
	if !bs.Contains([]byte("k1")) || bs.Contains([]byte("nope")) {
		t.Fatal("byte Contains disagrees with contents")
	}
	if !bs.Delete([]byte("k1")) || ss.Contains("k1") {
		t.Fatal("byte Delete did not remove the key")
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, policy := range []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyLAP} {
		for _, shards := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				st := mustNew(t, testOptions(shards, policy))
				sess := Open[string](st, Direct)
				model := make(map[string]uint64)
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 3000; i++ {
					key := fmt.Sprintf("user%04d", rng.Intn(400))
					switch rng.Intn(4) {
					case 0, 1:
						v := uint64(i + 1)
						_, in := model[key]
						if inserted := sess.Put(key, v); inserted != !in {
							t.Fatalf("op %d: Put(%s) inserted=%v, model present=%v", i, key, inserted, in)
						}
						model[key] = v
					case 2:
						_, in := model[key]
						if got := sess.Delete(key); got != in {
							t.Fatalf("op %d: Delete(%s) = %v, model %v", i, key, got, in)
						}
						delete(model, key)
					default:
						v, ok := sess.Get(key)
						mv, in := model[key]
						if ok != in || (ok && v != mv) {
							t.Fatalf("op %d: Get(%s) = (%d,%v), model (%d,%v)", i, key, v, ok, mv, in)
						}
					}
				}
				snap := st.Snapshot()
				if len(snap) != len(model) {
					t.Fatalf("snapshot size %d, model %d", len(snap), len(model))
				}
				for k, v := range model {
					if snap[HashKey(k)] != v {
						t.Fatalf("snapshot[%s] = %d, want %d", k, snap[HashKey(k)], v)
					}
				}
			})
		}
	}
}

func TestPutOverwritesDurably(t *testing.T) {
	st := mustNew(t, testOptions(4, core.PolicyHT))
	sess := Open[string](st, Direct)
	if !sess.Put("k", 1) {
		t.Fatal("first Put should insert")
	}
	if sess.Put("k", 2) {
		t.Fatal("second Put should overwrite, not insert")
	}
	if v, ok := sess.Get("k"); !ok || v != 2 {
		t.Fatalf("Get = (%d,%v), want (2,true)", v, ok)
	}

	wm := st.Heap().Watermark()
	img := st.Mem().CrashImage(pmem.DropUnfenced, 5)
	st2, _, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), wm, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := Open[string](st2, Direct).Get("k"); !ok || v != 2 {
		t.Fatalf("recovered Get = (%d,%v), want (2,true): overwrite was not durable", v, ok)
	}
}

// TestUpsertValueDurability crashes Put's in-place overwrite at every
// instruction boundary: a crashed overwrite must recover to the old or
// the new value (never torn or absent), and a completed overwrite must
// recover to the new value — the guarantee hist-based checkers cannot
// see, since they track membership only.
func TestUpsertValueDurability(t *testing.T) {
	for _, policy := range []string{core.PolicyHT, core.PolicyPlain} {
		for _, mode := range dstruct.Modes {
			t.Run(fmt.Sprintf("%s/%s", policy, mode), func(t *testing.T) {
				const v1, v2 = 111, 222
				for countdown := int64(1); countdown < 40; countdown++ {
					o := testOptions(4, policy)
					o.Mode = mode
					st := mustNew(t, o)
					sess := Open[string](st, Direct)
					sess.Put("k", v1)

					sess.Thread().SetCrashAfter(countdown)
					completed := !pmem.RunToCrash(func() { sess.Put("k", v2) })
					sess.Thread().SetCrashAfter(-1)

					wm := st.Heap().Watermark()
					img := st.Mem().CrashImage(pmem.DropUnfenced, countdown)
					st2, _, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), wm, o)
					if err != nil {
						t.Fatal(err)
					}
					got, ok := Open[string](st2, Direct).Get("k")
					if !ok {
						t.Fatalf("countdown %d: key vanished across the overwrite crash", countdown)
					}
					if completed && got != v2 {
						t.Fatalf("countdown %d: completed overwrite recovered stale value %d", countdown, got)
					}
					if got != v1 && got != v2 {
						t.Fatalf("countdown %d: torn value %d (want %d or %d)", countdown, got, v1, v2)
					}
				}
			})
		}
	}
}

func TestConcurrentSessions(t *testing.T) {
	st := mustNew(t, testOptions(8, core.PolicyHT))
	const workers = 4
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			sess := Open[string](st, Direct)
			ins := 0
			rng := rand.New(rand.NewSource(int64(w + 100)))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("w%d-%d", w, rng.Intn(500))
				switch rng.Intn(3) {
				case 0:
					if sess.Put(key, uint64(i)) {
						ins++
					}
				case 1:
					if sess.Delete(key) {
						ins--
					}
				default:
					sess.Get(key)
				}
			}
			done <- ins
		}(w)
	}
	want := 0
	for w := 0; w < workers; w++ {
		want += <-done
	}
	if got := len(st.Snapshot()); got != want {
		t.Fatalf("store holds %d keys, want %d", got, want)
	}
}

func TestParallelRecovery(t *testing.T) {
	for _, policy := range []string{core.PolicyHT, core.PolicyPlain} {
		t.Run(policy, func(t *testing.T) {
			o := testOptions(8, policy)
			st := mustNew(t, o)
			sess := Open[string](st, Direct)
			model := make(map[uint64]uint64)
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("user%05d", i)
				sess.Put(key, uint64(i))
				model[HashKey(key)] = uint64(i)
			}
			for i := 0; i < 2000; i += 3 {
				key := fmt.Sprintf("user%05d", i)
				sess.Delete(key)
				delete(model, HashKey(key))
			}

			wm := st.Heap().Watermark()
			img := st.Mem().CrashImage(pmem.DropUnfenced, 42)
			st2, rs, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), wm, o)
			if err != nil {
				t.Fatal(err)
			}
			if st2.NumShards() != 8 || len(rs.Shards) != 8 {
				t.Fatalf("recovered %d shards, stats for %d, want 8", st2.NumShards(), len(rs.Shards))
			}
			if rs.Keys != len(model) {
				t.Fatalf("RecoveryStats.Keys = %d, want %d", rs.Keys, len(model))
			}
			snap := st2.Snapshot()
			if len(snap) != len(model) {
				t.Fatalf("recovered %d keys, want %d", len(snap), len(model))
			}
			for k, v := range model {
				if snap[k] != v {
					t.Fatalf("recovered[%d] = %d, want %d", k, snap[k], v)
				}
			}
			// The recovered store must be fully operational.
			s2 := Open[string](st2, Direct)
			if !s2.Put("post-recovery", 7) || !s2.Contains("post-recovery") || !s2.Delete("post-recovery") {
				t.Fatal("recovered store not operational")
			}
		})
	}
}

func TestRecoverWithoutSuperblockFails(t *testing.T) {
	mem := pmem.New(pmem.DefaultConfig(1 << 16))
	if _, _, err := Recover(mem, 0, Options{Policy: core.PolicyHT}); err == nil {
		t.Fatal("Recover accepted memory with no superblock")
	}
}

func TestSuperblockSurvivesImmediateCrash(t *testing.T) {
	o := testOptions(4, core.PolicyHT)
	st := mustNew(t, o)
	// Crash before any operation: the superblock and empty shards must
	// recover to an empty, operational store.
	wm := st.Heap().Watermark()
	img := st.Mem().CrashImage(pmem.DropUnfenced, 9)
	st2, rs, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), wm, o)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Keys != 0 {
		t.Fatalf("empty store recovered %d keys", rs.Keys)
	}
	if !Open[string](st2, Direct).Put("a", 1) {
		t.Fatal("recovered empty store rejected an insert")
	}
}

func TestSessionsShareOneThread(t *testing.T) {
	st := mustNew(t, testOptions(8, core.PolicyHT))
	before := len(st.Mem().Threads())
	sess := Open[string](st, Direct)
	if got := len(st.Mem().Threads()) - before; got != 1 {
		t.Fatalf("one session registered %d pmem threads, want 1 (shared across shards)", got)
	}
	// Ops on different shards land on the same thread's stats.
	for i := 0; i < 64; i++ {
		sess.Put(fmt.Sprintf("k%d", i), uint64(i))
	}
	if sess.Thread().Stats.Stores == 0 && sess.Thread().Stats.RMWs == 0 {
		t.Fatal("session thread recorded no instructions")
	}
}

func TestRootRegionScalesWithShards(t *testing.T) {
	st := mustNew(t, testOptions(32, core.PolicyHT))
	if st.Heap().NumRootSlots() != 33 {
		t.Fatalf("heap has %d root slots, want 33", st.Heap().NumRootSlots())
	}
	// Root addresses must not collide with the default-layout heap base.
	h := st.Heap()
	seen := map[pmem.Addr]bool{}
	for i := 0; i < 33; i++ {
		a := h.Root(i)
		if seen[a] {
			t.Fatalf("duplicate root address %d", a)
		}
		seen[a] = true
	}
	_ = pheap.NumRoots // the default layout still exists for everyone else
}
