package crashtest

import (
	"fmt"

	"flit/internal/dlcheck"
	"flit/internal/hist"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

// The three session modes are one contract — a result is externalized
// only after the fence that persists it — so they share one enumeration
// (RunStoreDL, dl.go), one executor and one recovery helper. What
// differs per mode is the session store.Open returns: how a window of
// store ops reaches the store.

// storeKinds is the operation alphabet the checker records on a store
// path, in every session mode.
var storeKinds = []hist.Kind{hist.Put, hist.Get, hist.Delete, hist.Add}

// executors returns a factory of per-worker checker sessions of mode: a
// vector Apply, then Commit (workload.SessExec).
func executors(st *store.Store, mode store.SessionMode) func() *dlExec {
	return func() *dlExec {
		return &dlExec{ex: workload.SessExec{S: store.Open[[]byte](st, mode)}, blindAdds: mode == store.Combined}
	}
}

// storeOps spells the checker's store kinds as store ops.
var storeOps = map[hist.Kind]store.OpKind{hist.Put: store.OpPut, hist.Get: store.OpGet, hist.Delete: store.OpDelete, hist.Add: store.OpAdd}

// opFor spells a checker operation of a store alphabet as a store op.
func opFor(kind hist.Kind, key []byte, val uint64) store.Op[[]byte] {
	op, ok := storeOps[kind]
	if !ok {
		panic(fmt.Sprintf("crashtest: the store has no %v", kind))
	}
	return store.Op[[]byte]{Kind: op, Key: key, Val: val}
}

// dlExec adapts a store session's workload.SessExec to the enumerator's
// alphabet (dlcheck.BatchExecutor) and uint64 key space.
type dlExec struct {
	ex workload.SessExec
	// blindAdds: the session coalesces Adds and answers none (Combined).
	blindAdds bool
	ops       []store.Op[[]byte]
	res       []store.Result
	shed      []bool
}

// close closes the executor's session.
func (e *dlExec) close() { e.ex.S.Close() }

func (e *dlExec) ExecBatch(ops []dlcheck.BatchOp, results []hist.Answer) {
	e.ops, e.res, e.shed = e.ops[:0], e.res[:0], e.shed[:0]
	for _, op := range ops {
		e.ops = append(e.ops, opFor(op.Kind, []byte(dlStoreKey(op.Key)), op.Val))
		e.res, e.shed = append(e.res, store.Result{}), append(e.shed, false)
	}
	if n, err := e.ex.ExecBatch(e.ops, e.res, e.shed); n != len(ops) || err != nil {
		panic(fmt.Sprintf("crashtest: an in-process executor answered %d of %d ops: %v", n, len(ops), err))
	}
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
