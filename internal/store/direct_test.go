package store_test

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/store"
)

// TestDirectOpCounts pins the persistence instructions of one Direct op
// per op shape under flit-ht, in every durability mode: a Direct op is a
// commit window of one, so its deferred p-stores ride the one completion
// fence it always issues, and so do its RMWs. A fresh key's field
// p-stores flush their shared line once and drain at the link CAS's
// leading fence, and the link drains at the completion fence; an in-place
// Put or an Add is one pwb and the completion fence; a Delete's unlink
// fences its mark ahead of itself (its only leading fence that has
// something to drain) and drains at the completion fence. After every
// shape a DropUnfenced crash and recovery must still show what the op
// acknowledged.
func TestDirectOpCounts(t *testing.T) {
	type counts struct{ pwbs, fences, elided uint64 }
	type want struct {
		val uint64
		ok  bool
	}
	shapes := []struct {
		name string
		op   func(s *store.Sess[string]) bool // reports the answer the shape expects
		c    counts
		k    want // the key's state the op acknowledged
	}{
		{"fresh Put", func(s *store.Sess[string]) bool { return s.Put("k", 1) }, counts{2, 2, 0}, want{1, true}},
		{"in-place Put", func(s *store.Sess[string]) bool { return !s.Put("k", 2) }, counts{1, 1, 0}, want{2, true}},
		{"Get", func(s *store.Sess[string]) bool { v, ok := s.Get("k"); return ok && v == 2 }, counts{0, 1, 0}, want{2, true}},
		{"absent Get", func(s *store.Sess[string]) bool { _, ok := s.Get("x"); return !ok }, counts{0, 1, 0}, want{2, true}},
		{"Add", func(s *store.Sess[string]) bool { v, ok := s.Add("k", 5); return ok && v == 7 }, counts{1, 1, 1}, want{7, true}},
		{"Delete", func(s *store.Sess[string]) bool { return s.Delete("k") }, counts{2, 2, 1}, want{0, false}},
		{"absent Delete", func(s *store.Sess[string]) bool { return !s.Delete("k") }, counts{0, 1, 0}, want{0, false}},
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
			sess := store.Open[string](st, store.Direct)
			defer sess.Close()
			for _, sh := range shapes {
				before := sess.Thread().Stats
				if !sh.op(sess) {
					t.Fatalf("%s: wrong answer", sh.name)
				}
				after := sess.Thread().Stats
				got := counts{after.PWBs - before.PWBs, after.PFences - before.PFences, after.ElidedFences - before.ElidedFences}
				if got != sh.c {
					t.Errorf("%s: pwbs/fences/elided = %d/%d/%d, want %d/%d/%d",
						sh.name, got.pwbs, got.fences, got.elided, sh.c.pwbs, sh.c.fences, sh.c.elided)
				}
				img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
				rec, _, err := store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
				if err != nil {
					t.Fatalf("%s: recover: %v", sh.name, err)
				}
				rs := store.Open[string](rec, store.Direct)
				if v, ok := rs.Get("k"); ok != sh.k.ok || v != sh.k.val {
					t.Errorf("%s: recovered k = %d,%v, want the acknowledged %d,%v", sh.name, v, ok, sh.k.val, sh.k.ok)
				}
				rs.Close()
			}
		})
	}
}
