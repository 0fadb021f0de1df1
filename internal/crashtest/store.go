package crashtest

import (
	"fmt"
	"math/rand"
	"sync"

	"flit/internal/dlcheck"
	"flit/internal/hist"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

// The three session modes are one contract — a result is externalized
// only after the fence that persists it — so they share one randomized
// round (RunStore), one enumeration (RunStoreDL, dl.go) and one recovery
// helper. What differs per mode is confined to an executor: how an op
// vector reaches the store, and where a crash countdown arms.

// executor is one worker's handle on the store under some session mode.
type executor interface {
	// exec runs the op vector and fills res[i] with ops[i]'s outcome;
	// when it returns, every result is durable.
	exec(ops []store.Op[string], res []store.Result)
	// thread is the pmem thread exec's instrumented instructions run on —
	// where a crash countdown arms. nil means none of its own: a Combined
	// session executes nothing itself, so its countdowns arm on the
	// store's combiner threads (Store.CombinerThreads).
	thread() *pmem.Thread
}

// sessExec drives a Direct session (each op runs to completion under its
// own fence) or a Combined one (the vector is announced to the per-shard
// combiners; Apply returns after their window fences).
type sessExec struct{ sess *store.Sess[string] }

func (e sessExec) exec(ops []store.Op[string], res []store.Result) { e.sess.Apply(ops, res) }
func (e sessExec) thread() *pmem.Thread                            { return e.sess.Thread() }

// batcherExec drives the network server's group-commit executor
// (server.Batcher over a Batched session) — the code the wire protocol
// runs, minus the sockets: pipeline-order execution, deferred persistence,
// one commit fence, then (and only then) responses.
type batcherExec struct {
	b     *server.Batcher
	reqs  []server.Request
	resps []server.Response
}

func (e *batcherExec) exec(ops []store.Op[string], res []store.Result) {
	e.reqs, e.resps = e.reqs[:0], e.resps[:0]
	for _, op := range ops {
		req, err := server.WireRequest(op)
		if err != nil {
			panic(err) // opFor spells no op without an opcode
		}
		e.reqs = append(e.reqs, req)
		e.resps = append(e.resps, server.Response{})
	}
	e.b.Exec(e.reqs, e.resps)
	for i := range e.resps {
		res[i] = server.WireResult(ops[i].Kind, &e.resps[i])
	}
}

func (e *batcherExec) thread() *pmem.Thread { return e.b.Session().Thread() }

// executors returns a factory of per-worker executors for mode; Batched
// ones share one in-process server capped at maxBatch ops per commit.
func executors(st *store.Store, mode store.SessionMode, maxBatch int) func() executor {
	if mode == store.Batched {
		srv := server.New(st, server.Options{MaxBatch: maxBatch})
		return func() executor { return &batcherExec{b: srv.NewBatcher()} }
	}
	return func() executor { return sessExec{store.Open[string](st, mode)} }
}

// opFor spells a checker operation as a store op (Put ≡ set-Insert:
// true iff the key was newly inserted).
func opFor(kind hist.Kind, key string, val uint64) store.Op[string] {
	switch kind {
	case hist.Insert:
		return store.Op[string]{Kind: store.OpPut, Key: key, Val: val}
	case hist.Delete:
		return store.Op[string]{Kind: store.OpDelete, Key: key}
	default:
		return store.Op[string]{Kind: store.OpContains, Key: key}
	}
}

// dlExec adapts an executor to the enumerator's uint64 key space.
type dlExec struct {
	executor
	ops []store.Op[string]
	res []store.Result
}

func (e *dlExec) ExecBatch(ops []dlcheck.BatchOp, results []bool) {
	e.ops, e.res = e.ops[:0], e.res[:0]
	for _, op := range ops {
		e.ops = append(e.ops, opFor(op.Kind, dlStoreKey(op.Key), op.Val))
		e.res = append(e.res, store.Result{})
	}
	e.exec(e.ops, e.res)
	for i := range e.res {
		results[i] = e.res[i].Ok
	}
}

// recoverKeySet rebuilds st from the crash image img — superblock probe
// plus shard-parallel recovery, under st's heap watermark as read now
// (after every allocation the crashed run made, so recovery can never
// allocate below anything it persisted) — and returns the recovered store
// with its key set. A non-nil back translates each recovered hash; a hash
// outside it is a key no recorded operation could have written (phantom).
// With reshardTo > 0 the image is recovered through store.Reshard to that
// shard count instead.
func recoverKeySet(st *store.Store, img []uint64, back map[uint64]uint64, reshardTo int) (*store.Store, store.RecoveryStats, map[uint64]bool, error) {
	mem2 := pmem.NewFromImage(img, st.Mem().Config())
	rebuild := store.Recover
	if reshardTo > 0 {
		rebuild = func(mem *pmem.Memory, wm uint64, o store.Options) (*store.Store, store.RecoveryStats, error) {
			return store.Reshard(mem, wm, o, reshardTo)
		}
	}
	st2, rstats, err := rebuild(mem2, st.Heap().Watermark(), st.Opts())
	if err != nil {
		return nil, rstats, nil, err
	}
	keys := make(map[uint64]bool)
	for h := range st2.Snapshot() {
		k := h
		if back != nil {
			var ok bool
			if k, ok = back[h]; !ok {
				return nil, rstats, nil, fmt.Errorf("recovered key hash %#x is outside the checker's namespace (phantom key)", h)
			}
		}
		keys[k] = true
	}
	return st2, rstats, keys, nil
}

// crashSeed decorrelates the crash image's RandomSubset draws from the
// round's workload seed.
const crashSeed = 0x5ca1ab1e

// StoreOptions parameterizes one whole-store crash round.
type StoreOptions struct {
	Workers int
	// OpsPerWorker is each worker's budget (workers usually crash first).
	OpsPerWorker int
	// MaxBatch bounds the (seeded, varying) ops a worker pipelines into
	// one executor call in the Batched and Combined modes (default 8).
	// Direct rounds always run one op per call.
	MaxBatch int
	// KeyRange draws key indices from [0, KeyRange); KeyOf renders them as
	// store keys. RunStore widens a too-small range so per-key histories
	// stay inside the checker's 64-op exact window.
	KeyRange uint64
	KeyOf    func(uint64) string
	// MinCrash/MaxCrash bound the instruction countdowns.
	MinCrash, MaxCrash int64
	CrashMode          pmem.CrashMode
	Seed               int64
}

// DefaultStoreOptions mirrors DefaultOptions at service granularity.
func DefaultStoreOptions(seed int64, mode pmem.CrashMode) StoreOptions {
	return StoreOptions{
		Workers: 4, OpsPerWorker: 96, KeyRange: 256,
		MinCrash: 200, MaxCrash: 6000,
		CrashMode: mode, Seed: seed,
	}
}

// normalized fills the defaults every store round shares.
func (o StoreOptions) normalized() StoreOptions {
	if o.KeyOf == nil {
		o.KeyOf = func(i uint64) string { return fmt.Sprintf("key-%d", i) }
	}
	// Keep expected per-key op counts ≤ ~4 so the exact checker's 64-op
	// cap holds with overwhelming probability even on the hottest key.
	if min := uint64(o.Workers*o.OpsPerWorker)/4 + 1; o.KeyRange < min {
		o.KeyRange = min
	}
	if o.MaxCrash < o.MinCrash {
		o.MaxCrash = o.MinCrash
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	return o
}

// countdown draws one seeded instruction countdown.
func (o StoreOptions) countdown(rng *rand.Rand) int64 {
	return o.MinCrash + rng.Int63n(o.MaxCrash-o.MinCrash+1)
}

// StoreVerdict is the outcome of one store crash round.
type StoreVerdict struct {
	// Violation is nil when the recovered state is durably linearizable.
	Violation *hist.Violation
	// Store is the recovered instance (usable for the next cycle).
	Store *store.Store
	// Recovery reports the shard-parallel rebuild.
	Recovery store.RecoveryStats
	// RecordedOps counts operations the workers invoked (completed or
	// pending at the crash); Crashed counts workers the crash interrupted.
	RecordedOps int
	Crashed     int
}

// RunStore executes one seeded crash-recovery round against a whole
// store under the given session mode: workers pipeline recorded
// Put/Delete/Contains vectors through their executors while seeded
// instruction countdowns run — on each worker's own thread (Direct,
// Batched) or on the per-shard combiner threads (Combined), where a firing
// countdown kills the whole simulated process. A crash inside an executor
// call leaves the whole vector unacknowledged: every op stays pending,
// free to survive or vanish. The image is then materialized, recovered
// shard-parallel, and its key set checked for durable linearizability
// against the recorded history. The pre-round snapshot is the initial
// state, so RunStore composes with unrecorded load/run phases before it.
func RunStore(st *store.Store, mode store.SessionMode, opts StoreOptions) (StoreVerdict, error) {
	opts = opts.normalized()
	maxBatch := opts.MaxBatch
	if mode == store.Direct {
		maxBatch = 1
	}

	initial := make(map[uint64]bool)
	for k := range st.Snapshot() {
		initial[k] = true
	}

	clock := &hist.Clock{}
	rng := rand.New(rand.NewSource(opts.Seed))
	newExec := executors(st, mode, maxBatch)
	recs := make([]*hist.Recorder, opts.Workers)
	execs := make([]executor, opts.Workers)
	seeds := make([]int64, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		recs[w] = hist.NewRecorder(clock)
		execs[w] = newExec()
		if th := execs[w].thread(); th != nil {
			th.SetCrashAfter(opts.countdown(rng))
		}
		seeds[w] = rng.Int63()
	}
	if mode == store.Combined {
		for _, ct := range st.CombinerThreads() {
			ct.SetCrashAfter(opts.countdown(rng))
		}
	}

	var crashed, recorded int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex, rec := execs[w], recs[w]
			wrng := rand.New(rand.NewSource(seeds[w]))
			n := 0
			ops := make([]store.Op[string], 0, maxBatch)
			res := make([]store.Result, maxBatch)
			toks := make([]int, 0, maxBatch)
			c := pmem.RunToCrash(func() {
				for n < opts.OpsPerWorker {
					depth := 1
					if maxBatch > 1 {
						depth += wrng.Intn(maxBatch)
					}
					if depth > opts.OpsPerWorker-n {
						depth = opts.OpsPerWorker - n
					}
					ops, toks = ops[:0], toks[:0]
					for i := 0; i < depth; i++ {
						key := opts.KeyOf(uint64(wrng.Int63()) % opts.KeyRange)
						kind := hist.Kind(wrng.Intn(3))
						ops = append(ops, opFor(kind, key, uint64(n+i)))
						toks = append(toks, rec.Begin(kind, store.HashKey(key)))
					}
					n += depth
					ex.exec(ops, res[:depth])
					for i := 0; i < depth; i++ {
						rec.Finish(toks[i], res[i].Ok)
					}
				}
			})
			mu.Lock()
			recorded += int64(n)
			if c {
				crashed++
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	img := st.Mem().CrashImage(opts.CrashMode, opts.Seed^crashSeed)
	st2, rstats, final, err := recoverKeySet(st, img, nil, 0)
	if err != nil {
		return StoreVerdict{}, err
	}
	return StoreVerdict{
		Violation:   hist.Check(recs, initial, final),
		Store:       st2,
		Recovery:    rstats,
		RecordedOps: int(recorded),
		Crashed:     int(crashed),
	}, nil
}
