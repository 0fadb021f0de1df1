package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"time"

	"flit/internal/client"
	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// The layer ladder replays the workload's key stream through each layer's
// public functions, one rung at a time, on state loaded the same way as the
// workload's: raw pmem instructions, policy p-instructions, the heap, one hash
// table, store sessions, the batcher, the codec, and the client over a pipe
// and over the unix socket. The whole ladder is climbed sc.ladderPasses times,
// a few segments per rung each time, so that every rung is sampled over the
// same several seconds and none of them inside one spell of the box. A rung's
// time is the mean of its 3 fastest segments over all passes; adjacent rungs'
// differences are the layer taxes.

// ladderOps is the per-segment operation count of each kind of rung, sized so
// a segment lasts 0.2-0.9 ms on the reference box, like the workloads' own.
const (
	opsRaw    = 50000 // single pmem or policy instructions
	opsTable  = 4000  // hashtable and Direct-session calls
	opsBatch  = 4096  // ops executed in groups of 32
	opsExec1  = 1024  // one-op batches
	opsSocket = 256   // depth-1 round trips
)

// scratchWords sizes the memory the pmem and core rungs work on: inside the
// first-level cache. A workload operation touches a line or two and then
// issues a dozen instructions on them, so what an instruction costs it is the
// cost on a cached line; the misses show in the rungs of the structures.
const scratchWords = 1 << 12

type ladder struct {
	sc    scale
	tr    *tracer
	root  int
	str   *stream
	seg   *segment
	times map[string][]float64 // rung -> ns per operation of every segment so far
	ns    map[string]float64   // counts and differences that are not rung times
	sink  uint64               // keeps results live
	err   error                // the first rung failure; later rungs are skipped
}

// rung times body over sc.ladder segments of n operations each (n shrinks
// with the scale) and adds their times per operation to the rung's.
// With keys set, the next n operations of the key stream are generated into
// the segment first; prep, when non-nil, runs after that, still untimed.
// After a failure (kept in l.err) every later rung is a no-op.
func (l *ladder) rung(name string, n int, keys bool, prep func(*segment), body func(*segment) error) {
	if l.err != nil {
		return
	}
	n = max(n/l.sc.ladderDiv, 64)
	seg := l.seg.view(n)
	parent := l.tr.begin(name, l.root)
	for i := 0; i < l.sc.ladder; i++ {
		if keys {
			l.str.fill(seg)
		}
		if prep != nil {
			prep(seg)
		}
		sp := l.tr.begin(name, parent)
		t0 := time.Now()
		err := body(seg)
		d := time.Since(t0)
		l.tr.end(sp)
		if err != nil {
			l.err = fmt.Errorf("ladder rung %s: %w", name, err)
			return
		}
		l.times[name] = append(l.times[name], float64(d)/float64(n))
	}
	l.tr.end(parent)
}

func scratchMemory(words int) *pmem.Memory {
	cfg := pmem.DefaultConfig(words)
	cfg.VirtualClock = true
	return pmem.New(cfg)
}

// runLadder measures every rung. sp supplies the key distribution and seed
// the stream, so the rungs see the keys the workload sees.
func runLadder(sp *spec, sc scale, seed int64, tmpDir string, tr *tracer) (map[string]float64, error) {
	keySpec := *sp
	keySpec.mix = mixRead // keys only: each rung decides what to do with them
	str, err := newStream(&keySpec, sc.records, seed)
	if err != nil {
		return nil, err
	}
	l := &ladder{sc: sc, tr: tr, str: str, seg: newSegment(opsRaw), times: map[string][]float64{}, ns: map[string]float64{}}
	l.root = tr.begin("ladder", -1)
	defer tr.end(l.root)
	for i := 0; i < sc.ladderPasses; i++ {
		if err := l.pass(&keySpec, tmpDir); err != nil {
			return nil, err
		}
	}
	for name, times := range l.times {
		l.ns[name] = quietest(times)
	}
	l.ns["metrics.tax_ns_per_op"] = l.ns["server.exec32_ns_per_op"] - l.ns["exec32_nometrics"]
	delete(l.ns, "exec32_nometrics")
	return l.ns, nil
}

// pass climbs the ladder once, on structures built and loaded for this pass.
func (l *ladder) pass(keySpec *spec, tmpDir string) error {
	sc := l.sc
	l.rung("workload.gen_ns_per_op", opsTable, false, nil, func(s *segment) error {
		l.str.fill(s)
		return nil
	})
	if err := l.rawRungs(); err != nil {
		return err
	}
	if err := l.tableRungs(); err != nil {
		return err
	}

	netSpec := *keySpec
	netSpec.net = true
	w, err := buildWorld(&netSpec, sc, policy, tmpDir, nil)
	if err != nil {
		return err
	}
	defer w.close()
	l.storeRungs(w)
	l.serverRungs(w)
	l.clientRungs(w)
	l.storeChurnRung(w)
	return l.err
}

// rawRungs: single instructions of pmem.Thread and of the flit-ht policy
// with the pflag on, and the heap's alloc/free pair. Addresses walk a
// full-period permutation of the scratch memory.
//
//flit:rawpersist the pmem rungs time the raw instructions themselves, on a scratch memory that holds no structure
func (l *ladder) rawRungs() error {
	pm := scratchMemory(scratchWords + pmem.WordsPerLine)
	t := pm.RegisterThread()
	defer t.Release()
	pos := uint64(0)
	next := func() pmem.Addr {
		pos++
		return pmem.Addr(1 + (pos*0x9E3779B1)&(scratchWords-1))
	}
	pol, err := core.NewPolicyByName(policy, pm.Words(), 0)
	if err != nil {
		return err
	}

	// The store rung runs first: it touches every page, so the others do
	// not time the kernel zeroing memory.
	l.rung("pmem.store_ns", opsRaw, false, nil, func(s *segment) error {
		for i := range s.kinds {
			t.Store(next(), uint64(i))
		}
		return nil
	})
	l.rung("pmem.load_ns", opsRaw, false, nil, func(s *segment) error {
		for range s.kinds {
			l.sink += t.Load(next())
		}
		return nil
	})
	l.rung("pmem.pwb_pfence_ns", opsRaw/4, false, nil, func(s *segment) error {
		for range s.kinds {
			t.PWB(next())
			t.PFence()
		}
		return nil
	})
	l.rung("core.pload_ns", opsRaw, false, nil, func(s *segment) error {
		for range s.kinds {
			l.sink += pol.Load(t, next(), core.P)
		}
		return nil
	})
	stores, pwbs := uint64(0), t.Stats.PWBs
	l.rung("core.pstore_ns", opsRaw/4, false, nil, func(s *segment) error {
		for i := range s.kinds {
			pol.Store(t, next(), uint64(i), core.P)
		}
		stores += uint64(len(s.kinds))
		return nil
	})
	l.ns["core.pwbs_per_pstore"] = float64(t.Stats.PWBs-pwbs) / float64(stores)
	// A CAS needs the expected value, so this rung is "load it, then
	// p-CAS it", which is how the structures use CAS too.
	l.rung("core.pcas_ns", opsRaw/4, false, nil, func(s *segment) error {
		for range s.kinds {
			a := next()
			old := t.Load(a)
			if !pol.CAS(t, a, old, (old+1)&core.PayloadMask, core.P) {
				return fmt.Errorf("uncontended CAS failed")
			}
		}
		return nil
	})

	hm := scratchMemory(1 << 20)
	ar := pheap.New(hm).NewArena()
	defer ar.Release()
	nodeWords := list.NumFields * dstruct.StrideFor(pol)
	l.rung("pheap.alloc_free_ns", opsRaw, false, nil, func(s *segment) error {
		for range s.kinds {
			p := ar.Alloc(nodeWords)
			ar.Free(p, nodeWords)
		}
		return nil
	})
	return nil
}

// churn is the sliding key window of the insert/delete rungs: insert the next
// fresh index, delete the oldest live one, as emb_write does. Each structure
// has its own, and its rung runs last on that structure because it moves the
// live keys away from [0, records).
type churn struct{ ins, del uint64 }

// fill overwrites seg with alternating Put-fresh / Delete-oldest operations.
func (c *churn) fill(seg *segment) {
	seg.keys = seg.keys[:0]
	for i := range seg.kinds {
		if i%2 == 0 {
			seg.kinds[i], seg.idx[i] = opPut, c.ins
			c.ins++
		} else {
			seg.kinds[i], seg.idx[i] = opDelete, c.del
			c.del++
		}
		seg.vals[i] = seg.idx[i] + 1
		seg.keys = workload.AppendKey(seg.keys, seg.idx[i])
	}
}

// tableRungs: one hash table holding every record at the store's load factor,
// keyed by the store's own key hash.
func (l *ladder) tableRungs() error {
	records := l.sc.records
	hm := scratchMemory(16*records + 1<<20)
	pol, err := core.NewPolicyByName(policy, hm.Words(), 0)
	if err != nil {
		return err
	}
	cfg := dstruct.Config{Heap: pheap.New(hm), Policy: pol, Mode: dstruct.Automatic, Stride: dstruct.StrideFor(pol)}
	th := hashtable.New(cfg, records).Open(dstruct.ThreadOpts{})
	defer th.Close()
	key := make([]byte, 0, keyLen)
	for i := 0; i < records; i++ {
		key = workload.AppendKey(key[:0], uint64(i))
		th.Insert(store.HashKeyBytes(key), uint64(i)+1)
	}

	hk := make([]uint64, opsTable)
	hash := func(s *segment) {
		for i := range s.kinds {
			hk[i] = store.HashKeyBytes(s.key(i))
		}
	}
	l.rung("hashtable.get_ns", opsTable, true, hash, func(s *segment) error {
		for i := range s.kinds {
			v, ok := th.Get(hk[i])
			if !ok {
				return fmt.Errorf("loaded key %d missing", s.idx[i])
			}
			l.sink += v
		}
		return nil
	})
	l.rung("hashtable.put_ns", opsTable, true, hash, func(s *segment) error {
		for i := range s.kinds {
			if th.Put(hk[i], uint64(i)+1) {
				return fmt.Errorf("loaded key %d missing", s.idx[i])
			}
		}
		return nil
	})
	c := churn{ins: uint64(records)}
	l.rung("hashtable.insdel_ns", opsTable, false, func(s *segment) { c.fill(s); hash(s) }, func(s *segment) error {
		for i, kind := range s.kinds {
			ok := false
			if kind == opPut {
				ok = th.Insert(hk[i], s.vals[i])
			} else {
				ok = th.Delete(hk[i])
			}
			if !ok {
				return fmt.Errorf("churn op on key %d failed", s.idx[i])
			}
		}
		return nil
	})
	return nil
}

// storeRungs: the key hash, Direct-session calls, and 32-op vectors through
// a Batched session (Apply + Commit) and a Combined one.
func (l *ladder) storeRungs(w *world) {
	sess := store.Open[[]byte](w.st, store.Direct)
	defer sess.Close()
	l.rung("store.hash_ns", opsTable, true, nil, func(s *segment) error {
		for i := range s.kinds {
			l.sink += store.HashKeyBytes(s.key(i))
		}
		return nil
	})
	l.rung("store.get_ns", opsTable, true, nil, func(s *segment) error {
		for i := range s.kinds {
			v, ok := sess.Get(s.key(i))
			if !ok {
				return fmt.Errorf("loaded key %d missing", s.idx[i])
			}
			l.sink += v
		}
		return nil
	})
	l.rung("store.put_ns", opsTable, true, nil, func(s *segment) error {
		for i := range s.kinds {
			if sess.Put(s.key(i), uint64(i)+1) {
				return fmt.Errorf("loaded key %d missing", s.idx[i])
			}
		}
		return nil
	})

	ops := make([]store.Op[[]byte], 32)
	res := make([]store.Result, 32)
	vector := func(name string, mode store.SessionMode) {
		vs := store.Open[[]byte](w.st, mode)
		defer vs.Close()
		l.rung(name, opsBatch, true, nil, func(s *segment) error {
			for i := 0; i+32 <= len(s.kinds); i += 32 {
				for j := range ops {
					kind := store.OpPut
					if j%2 == 1 {
						kind = store.OpGet
					}
					ops[j] = store.Op[[]byte]{Kind: kind, Key: s.key(i + j), Val: uint64(j) + 1}
				}
				vs.Apply(ops, res)
				vs.Commit()
			}
			return nil
		})
	}
	vector("store.batched32_ns_per_op", store.Batched)
	vector("store.combined32_ns_per_op", store.Combined)
}

// storeChurnRung is the Direct-session insert/delete pair; see churn.
func (l *ladder) storeChurnRung(w *world) {
	sess := store.Open[[]byte](w.st, store.Direct)
	defer sess.Close()
	c := churn{ins: uint64(l.sc.records)}
	l.rung("store.insdel_ns", opsTable, false, c.fill, func(s *segment) error {
		for i, kind := range s.kinds {
			ok := false
			if kind == opPut {
				ok = sess.Put(s.key(i), s.vals[i])
			} else {
				ok = sess.Delete(s.key(i))
			}
			if !ok {
				return fmt.Errorf("churn op on key %d failed", s.idx[i])
			}
		}
		return nil
	})
}

// putGet fills reqs with the net workloads' alternating Put/Get over the
// segment's keys starting at i.
func putGet(reqs []server.Request, s *segment, i int) {
	for j := range reqs {
		op := server.OpPut
		if (i+j)%2 == 1 {
			op = server.OpGet
		}
		reqs[j] = server.Request{Op: op, Key: s.key(i + j), Val: uint64(j) + 1}
	}
}

// serverRungs: Batcher.Exec on one op and on 32, with the metrics bundle on
// (the world's server) and off, and the codec round trip through a buffer.
func (l *ladder) serverRungs(w *world) {
	reqs := make([]server.Request, 32)
	resps := make([]server.Response, 32)
	exec := func(name string, srv *server.Server, n, width int) {
		b := srv.NewBatcher()
		defer b.Close()
		l.rung(name, n, true, nil, func(s *segment) error {
			for i := 0; i+width <= len(s.kinds); i += width {
				putGet(reqs[:width], s, i)
				b.Exec(reqs[:width], resps[:width])
				if resps[0].Status != server.StatusOK {
					return fmt.Errorf("status %d", resps[0].Status)
				}
			}
			return nil
		})
	}
	exec("server.exec1_ns", w.srv, opsExec1, 1)
	exec("server.exec32_ns_per_op", w.srv, opsBatch, 32)
	bare := server.New(w.st, server.Options{})
	defer bare.Close()
	exec("exec32_nometrics", bare, opsBatch, 32)

	var wire []byte
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	var req server.Request
	var resp server.Response
	l.rung("server.codec_ns_per_op", opsTable, true, nil, func(s *segment) error {
		for i := range s.kinds {
			putGet(reqs[:1], s, i)
			wire = server.AppendRequest(wire[:0], &reqs[0])
			rd.Reset(wire)
			br.Reset(&rd)
			if err := server.ReadRequest(br, &req); err != nil {
				return err
			}
			resps[0] = server.Response{Status: server.StatusOK, Val: req.Val, Flag: true}
			wire = server.AppendResponse(wire[:0], req.Op, &resps[0])
			rd.Reset(wire)
			br.Reset(&rd)
			if err := server.ReadResponse(br, req.Op, &resp); err != nil {
				return err
			}
		}
		return nil
	})
}

// roundTrips runs the segment as depth-1 Put/Get round trips on c.
func roundTrips(c *client.Conn, s *segment) error {
	for i := range s.kinds {
		var err error
		if i%2 == 0 {
			_, err = c.Put(s.key(i), uint64(i)+1)
		} else {
			_, _, err = c.Get(s.key(i))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// clientRungs: the client against ServeConn over net.Pipe, then over the
// world's unix socket at depth 1 and at depth 32.
func (l *ladder) clientRungs(w *world) {
	c1, c2 := net.Pipe()
	done := make(chan struct{})
	go func() {
		w.srv.ServeConn(c2)
		close(done)
	}()
	pc := client.New(c1)
	l.rung("client.pipe_d1_ns", opsSocket, true, nil, func(s *segment) error { return roundTrips(pc, s) })
	pc.Close()
	<-done

	l.rung("client.unix_d1_ns", opsSocket, true, nil, func(s *segment) error { return roundTrips(w.conn, s) })
	reqs := make([]server.Request, 32)
	l.rung("client.unix_d32_ns_per_op", opsBatch, true, nil, func(s *segment) error {
		for i := 0; i+32 <= len(s.kinds); i += 32 {
			putGet(reqs, s, i)
			for j := range reqs {
				w.conn.Send(&reqs[j])
			}
			if err := w.conn.Flush(); err != nil {
				return err
			}
			for range reqs {
				resp, err := w.conn.Recv()
				if err != nil {
					return err
				}
				if resp.Status > server.StatusNotFound {
					return fmt.Errorf("status %d", resp.Status)
				}
			}
		}
		return nil
	})
}
