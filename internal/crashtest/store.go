package crashtest

import (
	"fmt"

	"flit/internal/dlcheck"
	"flit/internal/hist"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

// The three session modes are one contract — a result is externalized
// only after the fence that persists it — so they share one enumeration
// (RunStoreDL, dl.go) and one recovery helper. What differs per mode is
// confined to an executor: how an op vector reaches the store.

// executor is one worker's handle on the store under some session mode.
type executor interface {
	// exec runs the op vector and fills res[i] with ops[i]'s outcome;
	// when it returns, every result is durable.
	exec(ops []store.Op[string], res []store.Result)
}

// sessExec drives a Direct session (each op runs to completion under its
// own fence) or a Combined one (the vector is announced to the per-shard
// combiners; Apply returns after their window fences).
type sessExec struct{ sess *store.Sess[string] }

func (e sessExec) exec(ops []store.Op[string], res []store.Result) { e.sess.Apply(ops, res) }

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

// storeKinds is the operation alphabet the checker records on a store
// path: Put, Get, Delete and Add — but no Add through the server, whose
// wire has no ADD opcode.
func storeKinds(mode store.SessionMode) []hist.Kind {
	kinds := []hist.Kind{hist.Put, hist.Get, hist.Delete, hist.Add}
	if mode == store.Batched {
		return kinds[:3]
	}
	return kinds
}

// executors returns a factory of per-worker executors for mode; Batched
// ones share one in-process server capped at maxBatch ops per commit.
func executors(st *store.Store, mode store.SessionMode, maxBatch int) func() *dlExec {
	if mode == store.Batched {
		srv := server.New(st, server.Options{MaxBatch: maxBatch})
		return func() *dlExec { return &dlExec{executor: &batcherExec{b: srv.NewBatcher()}} }
	}
	return func() *dlExec {
		return &dlExec{executor: sessExec{store.Open[string](st, mode)}, blindAdds: mode == store.Combined}
	}
}

// storeOps spells the checker's store kinds as store ops.
var storeOps = map[hist.Kind]store.OpKind{hist.Put: store.OpPut, hist.Get: store.OpGet, hist.Delete: store.OpDelete, hist.Add: store.OpAdd}

// opFor spells a checker operation of a store alphabet as a store op.
func opFor(kind hist.Kind, key string, val uint64) store.Op[string] {
	op, ok := storeOps[kind]
	if !ok {
		panic(fmt.Sprintf("crashtest: the store has no %v", kind))
	}
	return store.Op[string]{Kind: op, Key: key, Val: val}
}

// dlExec adapts an executor to the enumerator's uint64 key space.
type dlExec struct {
	executor
	// blindAdds: the session coalesces Adds and answers none (Combined).
	blindAdds bool
	ops       []store.Op[string]
	res       []store.Result
}

func (e *dlExec) ExecBatch(ops []dlcheck.BatchOp, results []hist.Answer) {
	e.ops, e.res = e.ops[:0], e.res[:0]
	for _, op := range ops {
		e.ops = append(e.ops, opFor(op.Kind, dlStoreKey(op.Key), op.Val))
		e.res = append(e.res, store.Result{})
	}
	e.exec(e.ops, e.res)
	for i, r := range e.res {
		results[i] = hist.Answer{Ok: r.Ok, Out: r.Val, Blind: e.blindAdds && ops[i].Kind == hist.Add}
	}
}

// recoverContents rebuilds st from the crash image img — superblock probe
// plus shard-parallel recovery, under st's heap watermark as read now
// (after every allocation the crashed run made, so recovery can never
// allocate below anything it persisted) — and returns the recovered store
// with its contents, key → value. A non-nil back translates each
// recovered hash; a hash outside it is a key no recorded operation could
// have written (phantom). The checker reads the values as payloads
// (hist.ValueMask ≡ store.ValueMask: LAP's dirty bit drops out). With
// reshardTo > 0 the image is recovered through store.Reshard instead.
func recoverContents(st *store.Store, img []uint64, back map[uint64]uint64, reshardTo int) (*store.Store, store.RecoveryStats, map[uint64]uint64, error) {
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
	contents := st2.Snapshot()
	if back == nil {
		return st2, rstats, contents, nil
	}
	keys := make(map[uint64]uint64, len(contents))
	for h, v := range contents {
		k, ok := back[h]
		if !ok {
			return nil, rstats, nil, fmt.Errorf("recovered key hash %#x is outside the checker's namespace (phantom key)", h)
		}
		keys[k] = v
	}
	return st2, rstats, keys, nil
}
