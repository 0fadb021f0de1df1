package store

import (
	"fmt"
	"slices"
	"testing"

	"flit/internal/core"
	"flit/internal/pmem"
)

// TestRecoverWithStaleWatermark recovers an image that a recovery itself
// produced, with the watermark of the image before it: the state a process
// that died mid-recovery resumes from, before it could carry the newer
// watermark forward. Two bugs live there, and this is the deterministic
// test of both:
//
//   - gather and rebuild interleaved per bucket: rebuilding bucket 0
//     clobbered the not-yet-gathered chains of every later bucket and
//     silently dropped their keys. Two-phase recovery (gather everything,
//     then rebuild) fixes it.
//   - a clean chain kept where it lies above the stale watermark: the
//     rebuild of a dirty bucket, and every allocation after recovery, land
//     on it unless the gather → rebuild barrier raises the watermark past
//     every kept node.
//
// The first recovery starts from an image with a planted mark in every
// bucket, so every chain is rebuilt above the stale watermark. The second
// runs at the stale watermark with one more planted mark, in the last
// bucket — its rebuild starts where the first recovery put bucket 0 — and
// fresh Puts follow. One shard fixes the layout (the multi-shard version
// of the same race is schedule-dependent; this one is not).
func TestRecoverWithStaleWatermark(t *testing.T) {
	st := newTestStore(t, Options{Shards: 1, ExpectedKeys: 1 << 10, Buckets: 16, HTBytes: 1 << 14})
	const records, fresh = 500, 200
	sess := Open[string](st, Direct)
	for i := 0; i < records; i++ {
		sess.Put(fmt.Sprintf("wm-key-%d", i), uint64(i))
	}
	sess.Close()
	staleWM := st.Heap().Watermark()

	// First crash + recovery: every chain is dirty, so all are rebuilt
	// above staleWM.
	img1 := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	marked := plantMarks(img1, st, func(int, int) bool { return true })
	st1, _, err := Recover(pmem.NewFromImage(img1, st.Mem().Config()), staleWM, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	want := st1.Snapshot()
	if len(want) != records-marked || st1.Heap().Watermark() <= staleWM {
		t.Fatalf("first recovery kept %d keys and left the watermark at %d, want %d keys rebuilt above %d",
			len(want), st1.Heap().Watermark(), records-marked, staleWM)
	}

	// Crash again before anything new happens, mark the first node of the
	// last non-empty bucket, and recover with the STALE watermark.
	img2 := st1.Mem().CrashImage(pmem.DropUnfenced, 2)
	r := imageOf(img2, st1)
	_, hdrs := r.tables()
	chains := r.chains(hdrs[0])
	last := len(chains) - 1
	for len(chains[last]) == 0 {
		last--
	}
	delete(want, chains[last][0].key)
	plantMarks(img2, st1, func(_, b int) bool { return b == last })
	st2, rstats, err := Recover(pmem.NewFromImage(img2, st1.Mem().Config()), staleWM, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Keys != len(want) {
		t.Fatalf("stale-watermark recovery reported %d keys, want %d", rstats.Keys, len(want))
	}
	// Checked before the Puts too: a Put into a clobbered chain can loop.
	check := func(when string, extra int) {
		t.Helper()
		got := st2.Snapshot()
		lost := 0
		for k, v := range want {
			if w, ok := got[k]; !ok || w != v {
				lost++
			}
		}
		if lost > 0 || len(got) != len(want)+extra {
			t.Fatalf("%s: %d of %d kept keys lost their value, and the store holds %d keys, want %d",
				when, lost, len(want), len(got), len(want)+extra)
		}
	}
	check("after the stale-watermark recovery", 0)
	sess2 := Open[string](st2, Direct)
	for i := records; i < records+fresh; i++ {
		sess2.Put(fmt.Sprintf("wm-key-%d", i), uint64(i))
	}
	sess2.Close()
	check(fmt.Sprintf("after %d fresh Puts", fresh), fresh)
}

// TestCleanImageRecoversInPlace: in the image of a quiescent store every
// Delete has unlinked what it marked, so every chain is clean, and its
// recovery issues no PWB and no PFence and leaves the watermark where it
// was carried. Under flit-adjacent a live store's last flushes catch
// counters mid-operation, so its image starts from a recovered store,
// whose rebuilt nodes carry zero counters; one non-zero counter word then
// makes exactly its own chain dirty.
func TestCleanImageRecoversInPlace(t *testing.T) {
	for _, policy := range []string{core.PolicyHT, core.PolicyAdjacent} {
		t.Run(policy, func(t *testing.T) {
			st := newTestStore(t, Options{Shards: 4, Buckets: 16, Policy: policy})
			sess := Open[string](st, Direct)
			for k := 0; k < 300; k++ {
				sess.Put(fmt.Sprintf("ci-%d", k), uint64(k))
			}
			for k := 0; k < 300; k += 5 {
				sess.Delete(fmt.Sprintf("ci-%d", k))
			}
			sess.Close()
			img, cfg, wm := imageOfStore(st)
			if policy == core.PolicyAdjacent {
				st1, _, err := Recover(pmem.NewFromImage(img, cfg), wm, st.Opts())
				if err != nil {
					t.Fatal(err)
				}
				img, cfg, wm = imageOfStore(st1)
			}
			recoverCounted := func(img []uint64) (*Store, RecoveryStats, pmem.Stats) {
				t.Helper()
				mem := pmem.NewFromImage(img, cfg)
				st2, rs, err := Recover(mem, wm, st.Opts())
				if err != nil {
					t.Fatal(err)
				}
				checkRecovered(t, imageOf(img, st), st2, rs, wm)
				return st2, rs, mem.TotalStats()
			}
			st2, rs, s := recoverCounted(img)
			if s.PWBs != 0 || s.PFences != 0 || st2.Heap().Watermark() != wm || rs.Keys != 240 {
				t.Fatalf("a clean image recovered %d keys with %d PWBs and %d PFences, watermark %d → %d; want 240 keys, none, unchanged",
					rs.Keys, s.PWBs, s.PFences, wm, st2.Heap().Watermark())
			}
			if policy != core.PolicyAdjacent {
				return
			}
			r := imageOf(img, st)
			_, hdrs := r.tables()
			b := slices.IndexFunc(r.chains(hdrs[2]), func(c []rawNode) bool { return len(c) > 0 })
			dirty := slices.Clone(img)
			dirty[r.chains(hdrs[2])[b][0].addr+1] = 1 // the key word's counter
			if ok, _ := imageOf(dirty, st).clean(hdrs[2], b); ok {
				t.Fatal("the image model calls a chain with a non-zero counter word clean")
			}
			if _, _, s := recoverCounted(dirty); s.PWBs == 0 || s.PFences != 2 {
				t.Fatalf("one non-zero counter word: recovery issued %d PWBs and %d PFences, want its chain rebuilt under the two fences", s.PWBs, s.PFences)
			}
		})
	}
}
