package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"flit/internal/client"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// world is one complete set-up: a loaded store and, for a net workload, the
// server, its unix socket and the one client connection.
type world struct {
	opts store.Options
	st   *store.Store

	srv    *server.Server
	served chan error // Serve's return value
	sock   string
	conn   *client.Conn
}

// load inserts key indices [0, records) with value index+1 through one Direct
// session. One loader, not one per core: node addresses, and with them the
// heap watermark and every count downstream, are then the same in every run.
func load(st *store.Store, records int) {
	sess := store.Open[[]byte](st, store.Direct)
	defer sess.Close()
	key := make([]byte, 0, keyLen)
	for i := 0; i < records; i++ {
		key = workload.AppendKey(key[:0], uint64(i))
		sess.Put(key, uint64(i)+1)
	}
}

// buildWorld is the set-up a user pays before the first request: store.New,
// the load, and for a net workload listen, serve and dial. wrap, when non-nil,
// puts the counting transport on both ends (traced runs only).
func buildWorld(sp *spec, sc scale, policy, tmpDir string, wrap *transportCounts) (*world, error) {
	w := &world{opts: storeOptions(sc, policy)}
	st, err := store.New(w.opts)
	if err != nil {
		return nil, err
	}
	w.st = st
	load(st, sc.records)
	if !sp.net {
		return w, nil
	}

	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(tmpDir, "s*.sock")
	if err != nil {
		return nil, err
	}
	w.sock = f.Name()
	f.Close()
	os.Remove(w.sock)
	ln, err := net.Listen("unix", w.sock)
	if err != nil {
		return nil, fmt.Errorf("listen (socket paths are short: run from the checkout root): %w", err)
	}
	if wrap != nil {
		ln = &countingListener{Listener: ln, counts: wrap}
	}
	w.srv = server.New(st, server.Options{Metrics: true}) // the flitstored default
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()

	c, err := net.Dial("unix", w.sock)
	if err != nil {
		w.close()
		return nil, err
	}
	if wrap != nil {
		c = &countingConn{Conn: c, counts: wrap}
	}
	w.conn = client.New(c)
	if err := w.conn.Ping(); err != nil {
		w.close()
		return nil, fmt.Errorf("ping: %w", err)
	}
	return w, nil
}

// close ends the network side: it closes the client connection and waits for
// the server's handler and accept goroutines, so the instruction counters can
// be read and a crash image taken with no thread running. The store stays
// usable. It is a no-op on an embedded world and idempotent.
func (w *world) close() error {
	if w.srv == nil {
		return nil
	}
	if w.conn != nil {
		w.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, server.ErrClosed) && err == nil {
		err = serr
	}
	os.Remove(w.sock)
	w.srv = nil
	return err
}

// timedBuild is one complete set-up, runtime.GC() first, and its wall time in
// seconds. The trials' worlds are the only garbage a run makes; collected
// before each trial, a set-up's memory is the memory the last one gave back.
// Left to the pacer, every other set-up pays the kernel for fresh pages, and
// the fastest take 3.4 ms where these take 2.6.
func timedBuild(sp *spec, sc scale, policy, tmpDir string, wrap *transportCounts) (*world, float64, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := buildWorld(sp, sc, policy, tmpDir, wrap)
	return w, time.Since(t0).Seconds(), err
}

// timedRecover is one store.Recover on a fresh copy of a crash image,
// runtime.GC() first, and its wall time in seconds.
func timedRecover(img []uint64, watermark uint64, cfg pmem.Config, opts store.Options) (*store.Store, store.RecoveryStats, float64, error) {
	runtime.GC()
	m := pmem.NewFromImage(img, cfg)
	t0 := time.Now()
	st, stats, err := store.Recover(m, watermark, opts)
	if err != nil {
		return nil, stats, 0, fmt.Errorf("recover: %w", err)
	}
	return st, stats, time.Since(t0).Seconds(), nil
}

// recovered is the outcome of the post-run durability check.
type recovered struct {
	keys     int    // keys present after recovery
	words    uint64 // heap watermark after recovery
	checked  int
	mismatch int
}

// crashAndRecover cuts the power after the last round: it takes the crash
// image that keeps only fenced write-backs, recovers it, and compares the
// recovered store with the oracle. Every acknowledged write must be there
// with its last acknowledged value and every acknowledged delete must be
// absent.
func (w *world) crashAndRecover(seed int64, or *oracle) (recovered, error) {
	var rec recovered
	mem := w.st.Mem()
	img := mem.CrashImage(pmem.DropUnfenced, seed)
	st, stats, _, err := timedRecover(img, w.st.Heap().Watermark(), mem.Config(), w.opts)
	if err != nil {
		return rec, err
	}
	rec.keys, rec.words = stats.Keys, st.Heap().Watermark()

	sess := store.Open[[]byte](st, store.Direct)
	defer sess.Close()
	key := make([]byte, 0, keyLen)
	or.each(func(idx, want uint64) {
		key = workload.AppendKey(key[:0], idx)
		got, ok := sess.Get(key)
		rec.checked++
		if ok != (want != 0) || got != want {
			rec.mismatch++
		}
	})
	if rec.keys != or.live() {
		rec.mismatch++
	}
	return rec, nil
}
