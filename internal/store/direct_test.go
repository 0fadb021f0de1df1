package store_test

import (
	"fmt"
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/store"
)

// TestDirectOpCounts pins the persistence instructions of one Direct op
// per op shape under flit-ht, in every durability mode: a Direct op is a
// commit window of one, so its deferred p-stores ride the one completion
// fence it always issues, and so do its RMWs. A fresh key's field
// p-stores flush their shared line once and drain at the link CAS's
// leading fence, and the link drains at the completion fence; an in-place
// Put or an Add is one pwb and the completion fence. A Delete's mark and
// its unlink drain together at the completion fence when the unlinked
// node hangs off its bucket's head, in every mode. Behind a node they do
// so in Automatic only; under NVTraverse and Manual the unlink fences the
// mark ahead of itself (dstruct.Ctx.UnlinkOwn). After every shape a
// DropUnfenced crash and recovery must still show what the op
// acknowledged.
func TestDirectOpCounts(t *testing.T) {
	type counts struct{ pwbs, fences, elided uint64 }
	type want struct {
		val uint64
		ok  bool
	}
	shapes := []struct {
		name  string
		setup func(s *store.Sess[string], ahead string) // unmeasured
		op    func(s *store.Sess[string]) bool          // reports the answer the shape expects
		c     map[dstruct.Mode]counts
		k     want // the key's state the op acknowledged
	}{
		{"fresh Put", nil, func(s *store.Sess[string]) bool { return s.Put("k", 1) }, allModes(counts{2, 2, 0}), want{1, true}},
		{"in-place Put", nil, func(s *store.Sess[string]) bool { return !s.Put("k", 2) }, allModes(counts{1, 1, 0}), want{2, true}},
		{"Get", nil, func(s *store.Sess[string]) bool { v, ok := s.Get("k"); return ok && v == 2 }, allModes(counts{0, 1, 0}), want{2, true}},
		{"absent Get", nil, func(s *store.Sess[string]) bool { _, ok := s.Get("x"); return !ok }, allModes(counts{0, 1, 0}), want{2, true}},
		{"Add", nil, func(s *store.Sess[string]) bool { v, ok := s.Add("k", 5); return ok && v == 7 }, allModes(counts{1, 1, 1}), want{7, true}},
		{"Delete", nil, func(s *store.Sess[string]) bool { return s.Delete("k") }, allModes(counts{2, 1, 1}), want{0, false}},
		{"absent Delete", nil, func(s *store.Sess[string]) bool { return !s.Delete("k") }, allModes(counts{0, 1, 0}), want{0, false}},
		{"Delete behind a node",
			func(s *store.Sess[string], ahead string) { s.Put(ahead, 9); s.Put("k", 3) },
			func(s *store.Sess[string]) bool { return s.Delete("k") },
			map[dstruct.Mode]counts{dstruct.Automatic: {2, 1, 1}, dstruct.NVTraverse: {2, 2, 1}, dstruct.Manual: {2, 2, 1}},
			want{0, false}},
	}
	for _, mode := range dstruct.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			st, err := store.New(store.Options{
				Shards: 2, ExpectedKeys: 1 << 8, Policy: core.PolicyHT,
				HTBytes: 1 << 14, Mode: mode, VirtualClock: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			store.CheckAccount(t, st)
			ahead := keyAhead(t, st, "k")
			sess := store.Open[string](st, store.Direct)
			defer sess.Close()
			acked := map[string]uint64{}
			for _, sh := range shapes {
				if sh.setup != nil {
					sh.setup(sess, ahead)
					acked[ahead] = 9
				}
				before := sess.Thread().Stats
				if !sh.op(sess) {
					t.Fatalf("%s: wrong answer", sh.name)
				}
				after := sess.Thread().Stats
				got := counts{after.PWBs - before.PWBs, after.PFences - before.PFences, after.ElidedFences - before.ElidedFences}
				if c := sh.c[mode]; got != c {
					t.Errorf("%s: pwbs/fences/elided = %d/%d/%d, want %d/%d/%d",
						sh.name, got.pwbs, got.fences, got.elided, c.pwbs, c.fences, c.elided)
				}
				delete(acked, "k")
				var gone []string
				if sh.k.ok {
					acked["k"] = sh.k.val
				} else {
					gone = []string{"k"}
				}
				recoverAcked(t, st, acked, gone)
			}
		})
	}
}

// allModes is c in every durability mode.
func allModes[C any](c C) map[dstruct.Mode]C {
	m := make(map[dstruct.Mode]C, len(dstruct.Modes))
	for _, mode := range dstruct.Modes {
		m[mode] = c
	}
	return m
}

// keyAhead returns a key that st places in key's bucket, ahead of key in
// the bucket's chain.
func keyAhead(t *testing.T, st *store.Store, key string) string {
	t.Helper()
	shard, bucket := st.Bucket(key)
	for i := 0; i < 1<<16; i++ {
		k := fmt.Sprintf("a%d", i)
		if sh, b := st.Bucket(k); sh == shard && b == bucket && store.HashKey(k) < store.HashKey(key) {
			return k
		}
	}
	t.Fatalf("no key shares %q's bucket ahead of it", key)
	return ""
}
