package server

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"flit/internal/pmem"
	"flit/internal/store"
)

// TestServeConnPanicIsolation: a panic in a connection's window has two
// blast radii. A pmem crash is the simulated process's: no connection is
// acknowledged after it, every handler exits, Shutdown returns in time,
// and the crash image holds every op acknowledged before it. Any other
// panic, here a full heap, belongs to the connection whose op raised it:
// that connection dies, counted under cause=panic, and the rest serve on.
func TestServeConnPanicIsolation(t *testing.T) {
	t.Run("crash", func(t *testing.T) {
		st := newLifecycleStore(t)
		s := New(st, Options{})
		const conns = 4
		ccs := make([]net.Conn, conns)
		for i := range ccs {
			ccs[i], _ = serveOne(s)
			defer ccs[i].Close()
		}
		acked := map[string]uint64{}
		for i, cc := range ccs {
			for j := 0; j < 8; j++ {
				key := string([]byte{'a', byte(i), byte(j)})
				if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte(key), Val: uint64(8*i + j)}); err != nil || resp.Status != StatusOK {
					t.Fatalf("put before the crash = %+v, %v", resp, err)
				}
				acked[key] = uint64(8*i + j)
			}
		}
		for _, th := range st.Mem().Threads() { // the combiner's
			th.SetCrashAfter(5)
		}
		var wg sync.WaitGroup
		for i, cc := range ccs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 8; j++ {
					key := []byte{'b', byte(i), byte(j)}
					if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: key, Val: 1}); err == nil {
						t.Errorf("connection %d: a put after the crash was answered: %+v", i, resp)
					} else {
						return
					}
				}
			}()
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown after the crash: %v (a handler outlived the process)", err)
		}
		if got := s.connErrs[causePanic].Load(); got != conns {
			t.Fatalf("connErrs[panic] = %d, want %d", got, conns)
		}
		// The crashed combiner never releases its lock; Stats still reads
		// its account, which holds every window acknowledged before.
		if st := s.Stats(); st.Batches < conns*8 {
			t.Fatalf("Stats after the crash: %d windows, want at least the %d acknowledged before it", st.Batches, conns*8)
		}
		img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
		st2, _, err := store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
		if err != nil {
			t.Fatal(err)
		}
		checkAccount(t, st2)
		sess := store.Open[string](st2, store.Direct)
		defer sess.Close()
		for k, want := range acked {
			if v, ok := sess.Get(k); !ok || v != want {
				t.Fatalf("acked key %q lost across the crash: (%d,%v), want %d", k, v, ok, want)
			}
		}
	})
	t.Run("full-heap", func(t *testing.T) {
		st := newFullableStore(t)
		s := New(st, Options{})
		bystander, _ := serveOne(s)
		defer bystander.Close()
		if _, err := lifecycleRoundTrip(bystander, &Request{Op: OpPut, Key: []byte("kept"), Val: 3}); err != nil {
			t.Fatal(err)
		}
		cc, done := serveOne(s)
		if n := fillHeap(t, cc); n == 0 {
			t.Fatal("the heap was full before the first Put")
		}
		cc.Close()
		<-done
		if got := s.connErrs[causePanic].Load(); got != 1 {
			t.Fatalf("connErrs[panic] = %d, want 1", got)
		}
		// The connection open beside it, and a fresh one, still serve.
		if resp, err := lifecycleRoundTrip(bystander, &Request{Op: OpGet, Key: []byte("kept")}); err != nil || resp.Val != 3 {
			t.Fatalf("bystander get = %+v, %v; want 3", resp, err)
		}
		fresh, _ := serveOne(s)
		defer fresh.Close()
		if resp, err := lifecycleRoundTrip(fresh, &Request{Op: OpPut, Key: []byte("kept"), Val: 4}); err != nil || resp.Status != StatusOK {
			t.Fatalf("fresh in-place put = %+v, %v; want StatusOK", resp, err)
		}
	})
}
