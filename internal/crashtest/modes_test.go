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
)

// wireExec is the fourth way to reach the store: a real client.Conn
// pipelining the vector over a net.Pipe into the server's ServeConn —
// framing, window detection and response ordering included.
type wireExec struct{ c *client.Conn }

func (e wireExec) thread() *pmem.Thread { return nil }

func (e wireExec) exec(ops []store.Op[string], res []store.Result) {
	for _, op := range ops {
		req, err := server.WireRequest(op)
		if err != nil {
			panic(err)
		}
		e.c.Send(&req)
	}
	if err := e.c.Flush(); err != nil {
		panic(err)
	}
	for i := range ops {
		resp, err := e.c.Recv()
		if err != nil {
			panic(err)
		}
		res[i] = server.WireResult(ops[i].Kind, resp)
	}
}

// TestStoreModesOneContract is the differential statement of "the modes
// are one contract": the same seeded op vectors (Get/Put/Delete/Contains,
// depths 1–8, repeated keys inside a vector included) through a Direct
// session, the server's Batcher, a Combined session and the wire must
// return result vectors identical to a Go-map oracle applying each vector
// in order, and a DropUnfenced crash image taken afterwards must recover
// to the oracle's key→value map in all four — every returned result was
// durable, whichever path returned it. store.TestSessModesAgainstModel
// remains the single-op / Add case.
func TestStoreModesOneContract(t *testing.T) {
	const keys, vectors = 48, 400
	paths := []struct {
		name string
		open func(st *store.Store) executor
	}{
		{"direct", func(st *store.Store) executor { return executors(st, store.Direct, 1)() }},
		{"batcher", func(st *store.Store) executor { return executors(st, store.Batched, 8)() }},
		{"combined", func(st *store.Store) executor { return executors(st, store.Combined, 8)() }},
		{"wire", func(st *store.Store) executor {
			srv := server.New(st, server.Options{MaxBatch: 8})
			cc, sc := net.Pipe()
			go srv.ServeConn(sc)
			c := client.New(cc)
			t.Cleanup(func() { c.Close(); srv.Close() })
			return wireExec{c}
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
				ops := make([]store.Op[string], 0, 8)
				want := make([]store.Result, 0, 8)
				got := make([]store.Result, 8)
				for v := 0; v < vectors; v++ {
					ops, want = ops[:0], want[:0]
					for depth := 1 + rng.Intn(8); depth > 0; depth-- {
						key := fmt.Sprintf("k%d", rng.Intn(keys))
						old, present := oracle[key]
						switch store.OpKind(rng.Intn(4)) {
						case store.OpGet:
							ops = append(ops, store.Op[string]{Kind: store.OpGet, Key: key})
							want = append(want, store.Result{Val: old, Ok: present})
						case store.OpPut:
							val := uint64(rng.Intn(1 << 16))
							ops = append(ops, store.Op[string]{Kind: store.OpPut, Key: key, Val: val})
							want = append(want, store.Result{Ok: !present})
							oracle[key] = val
						case store.OpDelete:
							ops = append(ops, store.Op[string]{Kind: store.OpDelete, Key: key})
							want = append(want, store.Result{Ok: present})
							delete(oracle, key)
						case store.OpContains:
							ops = append(ops, store.Op[string]{Kind: store.OpContains, Key: key})
							want = append(want, store.Result{Ok: present})
						}
					}
					ex.exec(ops, got[:len(ops)])
					if !reflect.DeepEqual(got[:len(ops)], want) {
						t.Fatalf("%s: vector %d %+v\nreturned %+v\noracle   %+v", path.name, v, ops, got[:len(ops)], want)
					}
				}

				// No session is closed and nothing more is fenced: the image
				// holds exactly what the returned results made durable.
				st2, _, _, err := recoverKeySet(st, st.Mem().CrashImage(pmem.DropUnfenced, 0), nil, 0)
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
