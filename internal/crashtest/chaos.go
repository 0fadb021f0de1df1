package crashtest

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flit/internal/client"
	"flit/internal/hist"
	"flit/internal/pmem"
	"flit/internal/resilience"
	"flit/internal/server"
	"flit/internal/store"
)

// This file is the chaos harness: it drives the REAL service path —
// client.Conn pipelines over net.Pipe transports into server.ServeConn —
// through injected transport faults (resilience.WrapConn) and resilience
// policies (admission control, deadlines, drain), records every
// operation's acknowledgement in the hist checker, then takes a
// DropUnfenced crash image and verifies the one invariant the whole
// stack exists to keep: an acknowledged operation survives the crash.
//
// Responses the fault schedule destroys — and operations the server
// sheds with BUSY/DRAINING — stay PENDING in the history: the checker
// accepts either outcome for them, exactly the uncertainty a real client
// is left with. Acknowledged operations are completed entries, and a
// completed-but-unpersisted effect is a violation.
//
// The image is taken after the scenario quiesces (all handlers exited,
// every honest batch already committed), so the capture itself is
// race-free; mid-execution crash points are the batched dlcheck
// batteries' job (RunStoreDL). What chaos adds is the service boundary:
// does the ack discipline survive resets, stalls, blackholes, overload
// and drain? The harness's must-fail tooth is a deliberately broken
// drain planted on the harness side of the wire (ackFirstProxy) — it
// acks without executing, which this battery has to catch.

// ChaosScenario describes one fault × policy × load cell.
type ChaosScenario struct {
	Name string
	// Faults is the per-connection client-side fault schedule; each dialed
	// connection bumps the seed so redials draw fresh but reproducible
	// faults.
	Faults resilience.Faults
	// Server carries the resilience policy under test (rate limit,
	// inflight caps, deadlines).
	Server server.Options
	// Conns workers each run OpsPerConn recorded operations, pipelining
	// up to Depth frames per flush.
	Conns, OpsPerConn, Depth int
	// KeyRange sizes the keyspace (widened when too hot for the exact
	// checker).
	KeyRange uint64
	// OpTimeout bounds every client flush/receive so blackholed or wedged
	// connections fail instead of hanging the battery (default 250ms).
	OpTimeout time.Duration
	// DrainMid triggers srv.Shutdown once the first worker passes half
	// its budget, while the others keep driving load.
	DrainMid bool
	// brokenDrain plants the must-fail bug (BrokenDrainScenario only):
	// every connection runs through an ackFirstProxy, and the drain
	// trigger flips the proxies to fabricating acks instead of shutting
	// the server down.
	brokenDrain bool
}

// ChaosVerdict is the outcome of one chaos round.
type ChaosVerdict struct {
	// Violation is nil when every acknowledged operation survived the
	// crash (durable linearizability of the acked history).
	Violation *hist.Violation
	// Acked counts definitively answered store ops; Shed counts
	// BUSY/DRAINING rejections (left pending); Lost counts ops whose
	// response the fault schedule destroyed (also pending).
	Acked, Shed, Lost int
	// Redials counts worker reconnects after transport loss.
	Redials int
	// ServerStats is the server's own post-run accounting, for
	// cross-checking client-observed sheds against server-counted ones.
	ServerStats server.Stats
	// Recovery reports the post-crash rebuild.
	Recovery store.RecoveryStats
}

// RunStoreChaos executes one seeded chaos round against a fresh store
// and reports the checker's verdict. st must have VirtualClock-style
// deterministic instrumentation like the other batteries, and must be
// freshly created (the pre-round snapshot is the initial state).
func RunStoreChaos(st *store.Store, sc ChaosScenario, seed int64) (ChaosVerdict, error) {
	if sc.Conns <= 0 {
		sc.Conns = 4
	}
	if sc.OpsPerConn <= 0 {
		sc.OpsPerConn = 96
	}
	if sc.Depth <= 0 {
		sc.Depth = 8
	}
	if sc.OpTimeout <= 0 {
		sc.OpTimeout = 250 * time.Millisecond
	}
	if min := uint64(sc.Conns*sc.OpsPerConn)/4 + 1; sc.KeyRange < min {
		sc.KeyRange = min
	}

	initial := st.Snapshot()

	wireKinds := storeKinds(store.Batched)
	srv := server.New(st, sc.Server)
	clock := &hist.Clock{}
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*hist.Recorder, sc.Conns)
	seeds := make([]int64, sc.Conns)
	for w := 0; w < sc.Conns; w++ {
		recs[w] = hist.NewRecorder(clock)
		seeds[w] = rng.Int63()
	}

	// The drain trigger waits for every worker to finish at least one
	// window: firing while a worker's handler is still registering would
	// reject that connection outright, flooding the history with pending
	// ops — pending deletes can then legally "explain" any missing key,
	// masking exactly the unfenced-ack bug the tooth must expose.
	var warmed atomic.Int32
	var drainOnce sync.Once
	var ackFirst atomic.Bool // the broken drain has begun (brokenDrain only)
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	shutdownDone := make(chan error, 1)
	triggerDrain := func() {
		drainOnce.Do(func() {
			if sc.brokenDrain {
				// The planted bug: "draining" keeps serving, and acks
				// without executing. The real server shuts down only once
				// the workers are done.
				ackFirst.Store(true)
				return
			}
			go func() { shutdownDone <- shutdown() }()
			// Shutdown raises the draining flag first thing. Wait for it:
			// a fast server otherwise lets every worker finish its budget
			// before this goroutine is scheduled, and the drain lands on
			// nothing.
			for !srv.Stats().Draining {
				runtime.Gosched()
			}
		})
	}

	var mu sync.Mutex
	var acked, shed, lost, redials int
	var wg sync.WaitGroup
	for w := 0; w < sc.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := recs[w]
			wrng := rand.New(rand.NewSource(seeds[w]))
			var aAck, aShed, aLost, aRedial int
			connSeq := int64(0)
			dial := func() *client.Conn {
				cc, scn := net.Pipe()
				go srv.ServeConn(scn)
				if sc.brokenDrain {
					up := cc
					var down net.Conn
					cc, down = net.Pipe()
					go ackFirstProxy(down, up, &ackFirst)
				}
				f := sc.Faults
				f.Seed = seeds[w] + connSeq
				connSeq++
				c := client.New(resilience.WrapConn(cc, f))
				c.SetOpTimeout(sc.OpTimeout)
				return c
			}
			c := dial()
			defer func() { c.Close() }()

			budget := sc.OpsPerConn
			toks := make([]int, 0, sc.Depth)
			opKinds := make([]store.OpKind, 0, sc.Depth)
			sawDraining := false
			firstWindow := true
			for budget > 0 && !sawDraining {
				// Any worker past half budget may pull the trigger once
				// every worker is warmed — scheduling decides which one
				// actually does, so the drain lands mid-load regardless
				// of how the runtime interleaves the workers.
				if sc.DrainMid && budget <= sc.OpsPerConn/2 &&
					warmed.Load() == int32(sc.Conns) {
					triggerDrain()
				}
				depth := 1 + wrng.Intn(sc.Depth)
				if depth > budget {
					depth = budget
				}
				budget -= depth
				toks, opKinds = toks[:0], opKinds[:0]
				for i := 0; i < depth; i++ {
					idx := uint64(wrng.Int63()) % sc.KeyRange
					key := fmt.Sprintf("chaos-%d", idx)
					hk := store.HashKey(key)
					kind := wireKinds[wrng.Intn(len(wireKinds))]
					op := opFor(kind, key, uint64(budget+i))
					toks, opKinds = append(toks, rec.Begin(kind, hk, op.Val)), append(opKinds, op.Kind)
					req, err := server.WireRequest(op)
					if err != nil {
						panic(err) // the wire alphabet has an opcode for every kind
					}
					c.Send(&req)
				}
				if err := c.Flush(); err != nil {
					// The whole window is in an unknown state: pending.
					aLost += depth
					c.Close()
					c = dial()
					aRedial++
					continue
				}
				broken := false
				for i := 0; i < depth; i++ {
					resp, err := c.Recv()
					if err != nil {
						aLost += depth - i
						broken = true
						break
					}
					switch resp.Status {
					case server.StatusBusy:
						aShed++ // pending: the server says "not executed"
					case server.StatusDraining:
						aShed++
						sawDraining = true
					default:
						r := server.WireResult(opKinds[i], resp)
						rec.Finish(toks[i], hist.Answer{Ok: r.Ok, Out: r.Val})
						aAck++
					}
				}
				if broken {
					c.Close()
					c = dial()
					aRedial++
				}
				if firstWindow {
					firstWindow = false
					warmed.Add(1)
				}
			}
			mu.Lock()
			acked += aAck
			shed += aShed
			lost += aLost
			redials += aRedial
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	// Quiesce: every worker's connections are closed; wait for (or force)
	// server teardown so no handler is mid-batch when the image is taken.
	if sc.DrainMid {
		triggerDrain() // in case worker 0 lost its connection before the trigger point
		if sc.brokenDrain {
			shutdownDone <- shutdown()
		}
		if err := <-shutdownDone; err != nil {
			return ChaosVerdict{}, fmt.Errorf("chaos %q: shutdown: %w", sc.Name, err)
		}
	} else {
		srv.Close()
	}
	stats := srv.Stats()

	img := st.Mem().CrashImage(pmem.DropUnfenced, 0)
	_, rstats, final, err := recoverContents(st, img, nil, 0)
	if err != nil {
		return ChaosVerdict{}, fmt.Errorf("chaos %q: recover: %w", sc.Name, err)
	}
	return ChaosVerdict{
		Violation:   hist.Check(recs, initial, final),
		Acked:       acked,
		Shed:        shed,
		Lost:        lost,
		Redials:     redials,
		ServerStats: stats,
		Recovery:    rstats,
	}, nil
}

// ChaosScenarios is the standard battery: one cell per fault family,
// each crossed with the resilience policy that answers it. Every cell
// must pass the acked⇒persisted check; the broken-drain tooth is NOT in
// this list — it is the battery's must-fail control, run separately (see
// BrokenDrainScenario).
func ChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{
			// Pure overload: a tight rate limit sheds most of the offered
			// load; everything acked anyway must persist.
			Name:   "overload-shed",
			Server: server.Options{MaxBatch: 8, RateLimit: 2000, RateBurst: 8, MaxInflight: 16},
			Conns:  4, OpsPerConn: 96, Depth: 8,
		},
		{
			// Connection resets mid-pipeline: responses vanish, workers
			// redial; every op that DID get an ack must persist.
			Name:   "reset-mid-pipeline",
			Faults: resilience.Faults{ResetAfterBytes: 1536},
			Server: server.Options{MaxBatch: 8},
			Conns:  4, OpsPerConn: 96, Depth: 8,
		},
		{
			// Pathological framing: every write split into 1..16-byte
			// chunks; the server must reassemble or classify, never
			// mis-execute.
			Name:   "partial-writes",
			Faults: resilience.Faults{PartialWrites: true},
			Server: server.Options{MaxBatch: 8},
			Conns:  4, OpsPerConn: 64, Depth: 8,
		},
		{
			// Stalled readers: the client dawdles on every read while the
			// server's write budget reaps it; acks that made it through
			// must persist.
			Name:   "slow-reader-reap",
			Faults: resilience.Faults{DelayEvery: 3, ReadDelay: 15 * time.Millisecond},
			Server: server.Options{MaxBatch: 8, WriteTimeout: 5 * time.Millisecond},
			Conns:  3, OpsPerConn: 48, Depth: 6,
		},
		{
			// Dead peer that never RSTs: traffic blackholes, client op
			// timeouts fire, ops stay pending.
			Name:   "blackhole",
			Faults: resilience.Faults{BlackholeAfterBytes: 1200},
			Server: server.Options{MaxBatch: 8, IdleTimeout: 50 * time.Millisecond},
			Conns:  3, OpsPerConn: 64, Depth: 6,
			OpTimeout: 60 * time.Millisecond,
		},
		{
			// Graceful drain under live traffic: batches in flight are
			// committed and acked, everything else is answered DRAINING —
			// and the acked prefix survives the crash.
			Name:   "drain-mid-run",
			Server: server.Options{MaxBatch: 8},
			Conns:  4, OpsPerConn: 96, Depth: 8,
			DrainMid: true,
		},
	}
}

// BrokenDrainScenario is the harness's tooth: a drain that keeps serving
// and acks WITHOUT executing, let alone fencing. Run through
// RunStoreChaos it MUST produce a violation — a battery that passes this
// cell has lost its teeth and cannot be trusted on the real ones.
func BrokenDrainScenario() ChaosScenario {
	return ChaosScenario{
		Name:   "broken-drain-tooth",
		Server: server.Options{MaxBatch: 8},
		Conns:  4, OpsPerConn: 96, Depth: 8,
		DrainMid:    true,
		brokenDrain: true,
	}
}

// ackFirstProxy is the planted bug: it sits between a client (down) and
// the real server (up), relaying each pipeline window and its responses
// faithfully until ackFirst is set — from then on it answers every store
// op (the chaos workers send nothing else) with a fabricated StatusOK
// frame instead of forwarding it, leaving the client confident acks a
// crash image will disprove. It lives in the
// harness so the production serve loop carries no test scaffolding. A
// window is forwarded whole before its responses are read, which cannot
// wedge the synchronous pipes while the server takes it as one batch (the
// tooth scenario's Depth equals its MaxBatch). It returns, closing both
// ends, at the first error on either side.
func ackFirstProxy(down, up net.Conn, ackFirst *atomic.Bool) {
	defer down.Close()
	defer up.Close()
	dr, ur := bufio.NewReader(down), bufio.NewReader(up)
	var reqs []server.Request
	var resp server.Response
	var out []byte
	for {
		// One pipeline window, delimited as the server does: block for
		// the head, then take whatever is already buffered.
		reqs = reqs[:0]
		for len(reqs) == 0 || dr.Buffered() > 0 {
			reqs = append(reqs, server.Request{})
			if server.ReadRequest(dr, &reqs[len(reqs)-1]) != nil {
				return
			}
		}
		fake := ackFirst.Load()
		if !fake {
			out = out[:0]
			for i := range reqs {
				out = server.AppendRequest(out, &reqs[i])
			}
			if _, err := up.Write(out); err != nil {
				return
			}
		}
		out = out[:0]
		for i := range reqs {
			if fake {
				resp = server.Response{Status: server.StatusOK, Flag: true}
			} else if server.ReadResponse(ur, reqs[i].Op, &resp) != nil {
				return
			}
			out = server.AppendResponse(out, reqs[i].Op, &resp)
		}
		if _, err := down.Write(out); err != nil {
			return
		}
	}
}
