package workload

import (
	"errors"
	"testing"
	"time"

	"flit/internal/metrics"
	"flit/internal/store"
)

// fakeExec is an executor that executes nothing: it counts the windows
// and slots it is handed, sheds every op of the windows shedWin picks,
// and returns stopErr from window stopAt on (0: never).
type fakeExec struct {
	windows, slots int
	shedWin        func(window int) bool
	stopAt         int
	stopErr        error
}

func (f *fakeExec) ExecBatch(ops []store.Op[[]byte], res []store.Result, shed []bool) (int, error) {
	f.windows++
	f.slots += len(ops)
	if f.shedWin != nil && f.shedWin(f.windows) {
		for i := range shed {
			shed[i] = true
		}
	}
	if f.stopAt > 0 && f.windows >= f.stopAt {
		return len(ops), f.stopErr
	}
	return len(ops), nil
}

// samples is the number of latency samples the workers recorded.
func samples(ws []*Worker) uint64 {
	var n uint64
	for _, w := range ws {
		var s metrics.HistSnapshot
		w.hist.Read(&s)
		n += s.Count
	}
	return n
}

// kindSum is every op the measurement counts by kind.
func kindSum(m Measured) uint64 {
	return m.Reads + m.Updates + m.Inserts + m.RMWs + m.Scans + m.Adds
}

// driveFake runs a one-worker spec of mix a (one slot per op) at Depth 8
// through f.
func driveFake(t *testing.T, d time.Duration, f *fakeExec) (Measured, *Worker, error) {
	t.Helper()
	var w0 *Worker
	m, err := Drive(Spec{Mix: "a", Records: 100, Depth: 8, Duration: d, Seed: 1}, func(w *Worker) error {
		w0 = w
		return w.Closed(f)
	})
	return m, w0, err
}

// TestDriveStopsAtDeadline: a worker whose executor never blocks runs
// until the deadline, and not long past it.
func TestDriveStopsAtDeadline(t *testing.T) {
	const d = 30 * time.Millisecond
	f := &fakeExec{}
	m, _, err := driveFake(t, d, f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Elapsed < d || m.Elapsed > d+time.Second {
		t.Fatalf("elapsed %v for a %v run", m.Elapsed, d)
	}
	if f.windows < 2 || m.Ops != uint64(f.slots) {
		t.Fatalf("%d windows, %d slots, %d ops", f.windows, f.slots, m.Ops)
	}
}

// TestEveryCompletedOpIsOneSample: in every session mode, at Depth 8
// over real sessions and with multi-slot ops (RMW pairs, scan bursts),
// each completed op adds exactly one latency sample — Result.Ops, the
// per-kind counts and the histogram agree, and all exceed the window
// count.
func TestEveryCompletedOpIsOneSample(t *testing.T) {
	for _, mode := range store.SessionModes {
		for _, mix := range []string{"e", "f", "g"} {
			st := newTestStore(t)
			Load(st, 300, 2)
			ws := make([]*Worker, 2)
			windows := make([]int, 2)
			m, err := Drive(Spec{Mix: mix, Records: 300, Workers: 2, Depth: 8, Duration: 20 * time.Millisecond, Seed: 5},
				func(w *Worker) error {
					ws[w.ID] = w
					sess := store.Open[[]byte](st, mode)
					defer sess.Close()
					return w.Closed(countExec{SessExec{sess}, &windows[w.ID]})
				})
			if err != nil {
				t.Fatalf("%v/%s: %v", mode, mix, err)
			}
			if n := samples(ws); n != m.Ops || kindSum(m) != m.Ops || m.Shed != 0 {
				t.Fatalf("%v/%s: %d samples, %d ops, %d by kind, %d shed", mode, mix, n, m.Ops, kindSum(m), m.Shed)
			}
			if w := uint64(windows[0] + windows[1]); m.Ops <= w {
				t.Fatalf("%v/%s: %d ops in %d windows of depth 8", mode, mix, m.Ops, w)
			}
		}
	}
}

// countExec counts the windows it passes on.
type countExec struct {
	Executor
	windows *int
}

func (c countExec) ExecBatch(ops []store.Op[[]byte], res []store.Result, shed []bool) (int, error) {
	*c.windows++
	return c.Executor.ExecBatch(ops, res, shed)
}

// TestShedOpsAreCountedApart: ops an executor sheds count as Shed, never
// as completed, and add no latency sample.
func TestShedOpsAreCountedApart(t *testing.T) {
	f := &fakeExec{shedWin: func(w int) bool { return w%2 == 0 }}
	m, w, err := driveFake(t, 20*time.Millisecond, f)
	if err != nil {
		t.Fatal(err)
	}
	shedSlots := uint64(f.windows/2) * 8
	if m.Shed != shedSlots || m.Ops != uint64(f.slots)-shedSlots {
		t.Fatalf("%d windows: %d shed (want %d), %d completed (want %d)", f.windows, m.Shed, shedSlots, m.Ops, uint64(f.slots)-shedSlots)
	}
	if n := samples([]*Worker{w}); n != m.Ops || kindSum(m) != m.Ops {
		t.Fatalf("%d samples, %d by kind, %d ops", n, kindSum(m), m.Ops)
	}
}

// TestDrainingEndsTheWorker: ErrDraining ends the worker after its
// window is counted, long before the deadline and without failing the
// run; any other executor error fails it.
func TestDrainingEndsTheWorker(t *testing.T) {
	f := &fakeExec{shedWin: func(w int) bool { return w == 3 }, stopAt: 3, stopErr: ErrDraining}
	m, _, err := driveFake(t, time.Minute, f)
	if err != nil {
		t.Fatal(err)
	}
	if f.windows != 3 || m.Ops != 16 || m.Shed != 8 || m.Elapsed > 10*time.Second {
		t.Fatalf("%d windows, %d ops, %d shed in %v", f.windows, m.Ops, m.Shed, m.Elapsed)
	}

	broken := errors.New("connection reset")
	if _, _, err := driveFake(t, time.Minute, &fakeExec{stopAt: 2, stopErr: broken}); !errors.Is(err, broken) {
		t.Fatalf("an executor error came back as %v", err)
	}
}
