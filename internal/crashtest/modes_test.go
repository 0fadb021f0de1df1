package crashtest

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"flit/internal/client"
	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// TestStoreModesOneContract is the differential statement of "the modes
// are one contract": the same seeded op vectors (Get/Put/Delete/Contains,
// depths 1–8, repeated keys inside a vector included) through a Direct,
// a Batched and a Combined session and the wire (the server's Batcher) must
// return result vectors identical to a Go-map oracle applying each vector
// in order, and a DropUnfenced crash image taken afterwards must recover
// to the oracle's key→value map in all four — every returned result was
// durable, whichever path returned it. store.TestSessModesAgainstModel
// remains the single-op / Add case.
func TestStoreModesOneContract(t *testing.T) {
	const keys, vectors = 48, 400
	paths := []struct {
		name string
		open func(st *store.Store) workload.Executor
	}{
		{"direct", func(st *store.Store) workload.Executor { return executors(st, store.Direct)().ex }},
		{"batched", func(st *store.Store) workload.Executor { return executors(st, store.Batched)().ex }},
		{"combined", func(st *store.Store) workload.Executor { return executors(st, store.Combined)().ex }},
		// The fourth way to reach the store: a real client.Conn pipelining
		// the vector over a net.Pipe into the server's ServeConn — framing,
		// window detection and response ordering included.
		{"wire", func(st *store.Store) workload.Executor {
			srv := server.New(st, server.Options{MaxBatch: 8})
			cc, sc := net.Pipe()
			go srv.ServeConn(sc)
			c := client.New(cc)
			t.Cleanup(func() { c.Close(); srv.Close() })
			return client.ConnExec{C: c}
		}},
	}
	for _, policy := range []string{core.PolicyHT, core.PolicyLAP} {
		t.Run(policy, func(t *testing.T) {
			var recovered []map[string]uint64
			for _, path := range paths {
				st, err := NewDLStore(policy, dstruct.Automatic)
				if err != nil {
					t.Fatal(err)
				}
				ex := path.open(st)
				oracle := make(map[string]uint64)
				rng := rand.New(rand.NewSource(11))
				ops := make([]store.Op[[]byte], 0, 8)
				want := make([]store.Result, 0, 8)
				got, shed := make([]store.Result, 8), make([]bool, 8)
				for v := 0; v < vectors; v++ {
					ops, want = ops[:0], want[:0]
					for depth := 1 + rng.Intn(8); depth > 0; depth-- {
						key := fmt.Appendf(nil, "k%d", rng.Intn(keys))
						old, present := oracle[string(key)]
						switch store.OpKind(rng.Intn(4)) {
						case store.OpGet:
							ops = append(ops, store.Op[[]byte]{Kind: store.OpGet, Key: key})
							want = append(want, store.Result{Val: old, Ok: present})
						case store.OpPut:
							val := uint64(rng.Intn(1 << 16))
							ops = append(ops, store.Op[[]byte]{Kind: store.OpPut, Key: key, Val: val})
							want = append(want, store.Result{Ok: !present})
							oracle[string(key)] = val
						case store.OpDelete:
							ops = append(ops, store.Op[[]byte]{Kind: store.OpDelete, Key: key})
							want = append(want, store.Result{Ok: present})
							delete(oracle, string(key))
						case store.OpContains:
							ops = append(ops, store.Op[[]byte]{Kind: store.OpContains, Key: key})
							want = append(want, store.Result{Ok: present})
						}
					}
					if n, err := ex.ExecBatch(ops, got[:len(ops)], shed[:len(ops)]); n != len(ops) || err != nil {
						t.Fatalf("%s: vector %d: %d of %d ops answered: %v", path.name, v, n, len(ops), err)
					}
					if !reflect.DeepEqual(got[:len(ops)], want) {
						t.Fatalf("%s: vector %d %+v\nreturned %+v\noracle   %+v", path.name, v, ops, got[:len(ops)], want)
					}
				}

				// No session is closed and nothing more is fenced: the image
				// holds exactly what the returned results made durable.
				st2, _, _, err := recoverContents(st, st.Mem().CrashImage(pmem.DropUnfenced, 0), nil, 0)
				if err != nil {
					t.Fatalf("%s: recover: %v", path.name, err)
				}
				// Read through a session, not the raw snapshot: policies that
				// keep metadata in the value word strip it on the load path.
				chk := store.Open[string](st2, store.Direct)
				snap := make(map[string]uint64)
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("k%d", k)
					if val, ok := chk.Get(key); ok {
						snap[key] = val
					}
				}
				chk.Close()
				if len(snap) != len(st2.Snapshot()) {
					t.Fatalf("%s: recovered %d keys, %d inside the test's namespace", path.name, len(st2.Snapshot()), len(snap))
				}
				if !reflect.DeepEqual(snap, oracle) {
					t.Fatalf("%s: recovered %v\noracle %v", path.name, snap, oracle)
				}
				recovered = append(recovered, snap)
			}
			for i := 1; i < len(recovered); i++ {
				if !reflect.DeepEqual(recovered[i], recovered[0]) {
					t.Fatalf("%s and %s recovered different stores", paths[i].name, paths[0].name)
				}
			}
		})
	}
}

// TestExecutorsOpenTheirMode: a checker executor is a session of the mode
// its column names — only a Combined one registers a combiner slot, and
// its thread, arena and handle are the combiner's.
func TestExecutorsOpenTheirMode(t *testing.T) {
	for _, mode := range store.SessionModes {
		st := newDLStore(t, core.PolicyHT, dstruct.Automatic)
		e := executors(st, mode)()
		want := combinerOnly // a Direct or Batched session's own, or the combiner's
		if mode == store.Combined {
			want.CombinedSessions = 1
		}
		if r := st.Resources(); r != want {
			t.Errorf("a %v executor holds %+v, want %+v", mode, r, want)
		}
		e.close()
	}
}
