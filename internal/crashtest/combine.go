package crashtest

import (
	"fmt"
	"math/rand"
	"sync"

	"flit/internal/pmem"
	"flit/internal/store"
)

// The net-delta battery of the embedded flat-combining path checks a
// different contract from RunStore's set membership — counter intervals
// at window granularity — so it keeps its own driver. As in every Combined
// round, countdowns arm on the combiner threads (store.CombinerThreads),
// and a firing one kills the whole simulated process (sticky Store crash
// flag), freezing every in-flight window as pending.

// combineAddBase offsets the counter keys of the net-delta battery so
// signed ±1 churn never drives a stored value negative.
const combineAddBase = uint64(1) << 20

// AddsVerdict is the outcome of one net-delta crash round.
type AddsVerdict struct {
	// Violation is nil when every recovered counter is explainable by
	// the acknowledged deltas plus a subset of the pending ones.
	Violation error
	// Store is the recovered instance.
	Store *store.Store
	// Recovery reports the shard-parallel rebuild.
	Recovery store.RecoveryStats
	// AckedWindows counts Apply calls that returned before the crash;
	// Crashed counts workers the crash interrupted.
	AckedWindows int
	Crashed      int
}

// RunStoreCombinedAdds is the net-delta crash battery: the checker the
// VSA-style coalescing optimization answers to. Workers drive windows
// of OpAdd deltas over a few hot counter keys through Combined
// sessions; the combiner folds each window's deltas into one net store
// per key and fences once, so a crash must respect counter semantics at
// window granularity:
//
//   - every acknowledged window's net delta is durable (its Apply
//     returned only after the fence), and
//   - the crash-interrupted windows are pending: each may contribute
//     any subset of its deltas, so the recovered value must lie within
//     [acked + pendingNeg, acked + pendingPos].
//
// Coalescing makes the elision total for self-cancelling traffic — a
// net-zero window writes nothing — which is precisely why this battery
// exists: an unsound elision (skipping a non-zero net, or acking before
// the fence) shows up here as a counter outside the interval. biased
// selects all-+1 deltas instead of ±1, giving the no-persist tooth a
// drift the pending interval cannot absorb.
func RunStoreCombinedAdds(st *store.Store, opts StoreOptions, window, hotKeys int, biased bool) (AddsVerdict, error) {
	opts = opts.normalized()
	if window <= 0 {
		window = 16
	}
	if hotKeys <= 0 {
		hotKeys = 4
	}

	// Seed every counter through a Direct session — fenced per op —
	// before any countdown is armed: the bases must survive every crash.
	seed := store.Open[string](st, store.Direct)
	keys := make([]string, hotKeys)
	for i := range keys {
		keys[i] = opts.KeyOf(uint64(i))
		seed.Put(keys[i], combineAddBase)
	}
	seed.Close()

	rng := rand.New(rand.NewSource(opts.Seed))
	sessions := make([]*store.Sess[string], opts.Workers)
	seeds := make([]int64, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		sessions[w] = store.Open[string](st, store.Combined)
		seeds[w] = rng.Int63()
	}
	for _, ct := range st.CombinerThreads() {
		ct.SetCrashAfter(opts.countdown(rng))
	}

	// Per-worker, per-key ledgers: acknowledged net deltas, and the
	// positive/negative delta sums of the window in flight at the crash.
	acked := make([][]int64, opts.Workers)
	pendPos := make([][]int64, opts.Workers)
	pendNeg := make([][]int64, opts.Workers)
	for w := range acked {
		acked[w] = make([]int64, hotKeys)
		pendPos[w] = make([]int64, hotKeys)
		pendNeg[w] = make([]int64, hotKeys)
	}

	var crashed, ackedWindows int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := sessions[w]
			wrng := rand.New(rand.NewSource(seeds[w]))
			ops := make([]store.Op[string], window)
			res := make([]store.Result, window)
			cur := make([]int64, hotKeys)    // in-flight window net per key
			curPos := make([]int64, hotKeys) // in-flight positive sum per key
			curNeg := make([]int64, hotKeys) // in-flight negative sum per key
			windows := opts.OpsPerWorker / window
			if windows < 1 {
				windows = 1
			}
			var acks int64
			c := pmem.RunToCrash(func() {
				for b := 0; b < windows; b++ {
					for k := 0; k < hotKeys; k++ {
						cur[k], curPos[k], curNeg[k] = 0, 0, 0
					}
					for i := 0; i < window; i++ {
						k := wrng.Intn(hotKeys)
						var d int64 = 1
						if !biased && wrng.Intn(2) == 0 {
							d = -1
						}
						ops[i] = store.Op[string]{Kind: store.OpAdd, Key: keys[k], Val: uint64(d)}
						cur[k] += d
						if d > 0 {
							curPos[k] += d
						} else {
							curNeg[k] += d
						}
					}
					// Apply returns only after every touched shard's window
					// fence — the acknowledgment the ledger records.
					sess.Apply(ops, res)
					for k := 0; k < hotKeys; k++ {
						acked[w][k] += cur[k]
					}
					acks++
				}
			})
			mu.Lock()
			ackedWindows += acks
			if c {
				crashed++
				// The interrupted window is pending: any subset of its
				// deltas may have reached the image, so its contribution
				// is bounded by the per-key signed sums.
				for k := 0; k < hotKeys; k++ {
					pendPos[w][k] = curPos[k]
					pendNeg[w][k] = curNeg[k]
				}
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	img := st.Mem().CrashImage(opts.CrashMode, opts.Seed^crashSeed)
	st2, rstats, _, err := recoverKeySet(st, img, nil, 0)
	if err != nil {
		return AddsVerdict{}, err
	}
	v := AddsVerdict{
		Store:        st2,
		Recovery:     rstats,
		AckedWindows: int(ackedWindows),
		Crashed:      int(crashed),
	}
	// Read the counters through a session, not the raw snapshot: policies
	// that keep metadata in the value word (link-and-persist's dirty bit)
	// strip it on the logical load path.
	chk := store.Open[string](st2, store.Direct)
	defer chk.Close()
	for k := 0; k < hotKeys; k++ {
		val, ok := chk.Get(keys[k])
		if !ok {
			v.Violation = fmt.Errorf("counter %q lost: seeded before the round, absent after recovery", keys[k])
			return v, nil
		}
		var ack, lo, hi int64
		for w := 0; w < opts.Workers; w++ {
			ack += acked[w][k]
			lo += pendNeg[w][k]
			hi += pendPos[w][k]
		}
		got := int64(val) - int64(combineAddBase)
		if got < ack+lo || got > ack+hi {
			v.Violation = fmt.Errorf("counter %q recovered at net %d, outside [%d, %d] (acked %d, pending [%d, %d])",
				keys[k], got, ack+lo, ack+hi, ack, lo, hi)
			return v, nil
		}
	}
	return v, nil
}
