package store_test

import (
	"fmt"
	"testing"

	"flit/internal/core"
	"flit/internal/pmem"
	"flit/internal/store"
)

// recoverAcked crashes st's memory (DropUnfenced: only fenced write-backs
// survive), recovers it, and checks that every key of want holds its
// value and every key of gone is absent; it returns the recovered store's
// key count.
func recoverAcked(t *testing.T, st *store.Store, want map[string]uint64, gone []string) int {
	t.Helper()
	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	rec, stats, err := store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	store.CheckAccount(t, rec)
	rs := store.Open[string](rec, store.Direct)
	defer rs.Close()
	for k, v := range want {
		if got, ok := rs.Get(k); !ok || got != v {
			t.Errorf("recovered %s = %d,%v, want the acknowledged %d", k, got, ok, v)
		}
	}
	for _, k := range gone {
		if _, ok := rs.Get(k); ok {
			t.Errorf("recovered %s, whose acknowledged Delete it must not outlive", k)
		}
	}
	if n := len(rec.Snapshot()); n != stats.Keys {
		t.Errorf("recovery counted %d keys but serves %d", stats.Keys, n)
	}
	return stats.Keys
}

// TestWindowPublishingCounts pins the fences of a window of k publishing
// writes in both group-commit modes, on one shard so that one window
// holds them all. The window defers every RMW's trailing fence to its
// commit, so k fresh Puts cost k+1 fences: each link CAS's leading fence
// drains its node and the previous link, and the commit drains the last
// link (2k while the RMWs fenced themselves). k Deletes cost k: each
// mark CAS's leading fence drains the previous Delete's mark and unlink
// (all but the first, the one elided fence), and the commit the last
// pair. An unlink skips its own leading fence, which would drain only its
// mark (2k while it did): the store runs Automatic here, so the way into
// the unlinked node's predecessor is durable (dstruct.Ctx.UnlinkOwn).
// After each window a DropUnfenced crash and recovery must show every
// acknowledged write.
func TestWindowPublishingCounts(t *testing.T) {
	const k = 8
	keys := make([]string, k)
	want := make(map[string]uint64, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%d", i)
		want[keys[i]] = uint64(i + 1)
	}
	type counts struct{ fences, elided uint64 }
	for _, mode := range []store.SessionMode{store.Batched, store.Combined} {
		t.Run(mode.String(), func(t *testing.T) {
			st, err := store.New(store.Options{
				Shards: 1, ExpectedKeys: 1 << 8, Policy: core.PolicyHT,
				HTBytes: 1 << 14, VirtualClock: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			store.CheckAccount(t, st)
			sess := store.Open[string](st, mode)
			defer sess.Close()
			window := func(name string, kind store.OpKind, c counts) {
				t.Helper()
				ops := make([]store.Op[string], k)
				for i, key := range keys {
					ops[i] = store.Op[string]{Kind: kind, Key: key, Val: want[key]}
				}
				before := st.Mem().TotalStats()
				sess.Apply(ops, make([]store.Result, k))
				sess.Commit()
				after := st.Mem().TotalStats()
				got := counts{after.PFences - before.PFences, after.ElidedFences - before.ElidedFences}
				if got != c {
					t.Errorf("%d %s in one window: fences/elided = %d/%d, want %d/%d",
						k, name, got.fences, got.elided, c.fences, c.elided)
				}
			}
			window("fresh Puts", store.OpPut, counts{k + 1, 0})
			recoverAcked(t, st, want, nil)
			window("Deletes", store.OpDelete, counts{k, 1})
			recoverAcked(t, st, nil, keys)
		})
	}
}

// TestCrashedWindowFreesNothing: a window retires the nodes its unlinks
// removed only at its commit, so a window a crash kills frees nothing. A
// Batched session unlinks a key, then dies pinned in its next op, before
// its commit. Other sessions then adopt its reclamation handle and advance
// the epoch past any grace period (each Close tries two advances and
// frees the orphans whose grace has run), and Closing the dead session
// runs its quiet commit: the unlinked node must never reach a free list
// (freed blocks are poisoned, and no word is). Fresh keys written after
// that, which would reuse a freed node, and the dead window's own Delete
// then go through a full crash: recovery must serve every acknowledged
// key once and count what it serves, whichever way the unacknowledged
// Delete fell.
func TestCrashedWindowFreesNothing(t *testing.T) {
	const poison = 0x0BADC0DE
	st, err := store.New(store.Options{
		Shards: 1, ExpectedKeys: 1 << 8, Policy: core.PolicyHT,
		HTBytes: 1 << 14, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	store.CheckAccount(t, st)
	want := map[string]uint64{}
	load := store.Open[string](st, store.Direct)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("c%d", i)
		load.Put(key, uint64(i+1))
		want[key] = uint64(i + 1)
	}
	load.Close()
	st.Heap().SetFreePoison(poison, true)
	defer st.Heap().SetFreePoison(0, false)

	dead := store.Open[string](st, store.Batched)
	if !dead.Delete("c0") {
		t.Fatal("Delete of a loaded key found nothing")
	}
	delete(want, "c0")
	dead.Thread().SetCrashAfter(0)
	func() {
		defer func() {
			if r := recover(); r != pmem.ErrCrashed {
				t.Fatalf("the dead session's Get ended with %v, want a crash", r)
			}
		}()
		dead.Get("c1")
	}()
	for i := 0; i < 3; i++ {
		store.Open[string](st, store.Batched).Close()
	}
	dead.Close()
	for a := pmem.Addr(0); a < pmem.Addr(st.Heap().Watermark()); a++ {
		if st.Mem().VolatileWord(a) == poison {
			t.Fatalf("word %d was freed: a crashed window handed its retirees over", a)
		}
	}

	fresh := store.Open[string](st, store.Direct)
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("f%d", i)
		fresh.Put(key, uint64(100+i))
		want[key] = uint64(100 + i)
	}
	fresh.Close()
	if n := recoverAcked(t, st, want, nil); n != len(want) && n != len(want)+1 {
		t.Fatalf("recovered %d keys, want %d acknowledged plus at most the unacknowledged Delete's key", n, len(want))
	}
}
