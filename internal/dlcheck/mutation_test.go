package dlcheck_test

import (
	"strings"
	"testing"
	"time"

	"flit/internal/core"
	"flit/internal/crashtest"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/store"
)

// Mutation self-tests: deliberately broken policies must be *caught* by
// the enumerator — a checker that cannot reject a broken protocol proves
// nothing by accepting a correct one.

// windowFliT drives the mutation self-test. It reimplements the flit
// store protocol with the tag window held open between a successful p-CAS
// and its flush+fence (modeling a slow clwb/sfence: the schedule shape
// under which the pre-read flush and the dependency fence earn their
// keep), and plants one of two bugs in it:
//
//   - brokenLoad skips the pre-read flush: a p-load that observes a tagged
//     (pending, possibly unpersisted) value returns it without flushing,
//     and a failed p-CAS likewise drops its observed-value obligation. An
//     operation can then complete depending on a value a crash at the
//     right boundary loses.
//   - noDepFence skips the CAS's dependency fence *always*, where the
//     shipped policy skips it only on an empty write-back queue
//     (core's fenceDeps). A fresh node flushed by PersistObject is then
//     still in its inserter's queue while the link to it is visible and
//     tagged, so a reader flushes and fences the link first: a crash
//     there recovers a pointer to a node that never reached memory.
//
// The enumerator must find both; the un-broken variant under the same
// window — conditional dependency fence included — must sail through (no
// false positives from slow hardware).
type windowFliT struct {
	*core.FliT
	bug windowBug
}

type windowBug int

const (
	slowWindow windowBug = iota // the control: correct protocol, slow hardware
	brokenLoad
	noDepFence
)

func (p windowFliT) Name() string {
	return [...]string{"flit-slow-window", "flit-broken-load", "flit-no-dep-fence"}[p.bug]
}

func (p windowFliT) Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	v := t.Load(a)
	if p.bug != brokenLoad && pflag && p.C.Tagged(t, a) {
		t.PWB(a)
	}
	return v
}

func (p windowFliT) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	t.CheckCrash()
	if p.bug != noDepFence && t.Pending() != 0 {
		t.PFence() // the dependency fence, conditional as shipped
	}
	if !pflag {
		return t.CAS(a, old, new)
	}
	p.C.Inc(t, a)
	ok := t.CAS(a, old, new)
	if ok {
		holdWindow() // concurrent readers now see the tagged, unpersisted value
		t.PWB(a)
		t.PFence()
	}
	p.C.Dec(t, a)
	if !ok && p.bug != brokenLoad && p.C.Tagged(t, a) {
		t.PWB(a)
	}
	return ok
}

// holdWindow parks the writer long enough for concurrently running
// readers to complete whole operations inside the tag window.
func holdWindow() { time.Sleep(200 * time.Microsecond) }

func newDLStore(t *testing.T, policy string) *store.Store {
	t.Helper()
	st, err := crashtest.NewDLStore(policy, dstruct.Automatic)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mutationOpts is the shared shape of the window runs: contended keys,
// enough overlap, full enumeration (any occurrence in the recorded
// schedule must be found).
func mutationOpts(seed int64) dlcheck.Options {
	opts := dlcheck.DefaultOptions(seed)
	opts.Workers = 4
	opts.OpsPerWorker = 24
	opts.KeyRange = 6
	opts.Budget = 0
	return opts
}

// TestBrokenLoadPolicyIsCaught: the skipped pre-read flush must be
// detected on at least one structure. The tag window is held open by the
// policy (see windowFliT), so readers reliably complete inside it; a few
// seeds bound scheduler variance.
func TestBrokenLoadPolicyIsCaught(t *testing.T) {
	maxSeed := int64(10)
	targets := crashtest.Targets()
	caught := false
	var sample string
	for seed := int64(1); seed <= maxSeed && !caught; seed++ {
		for _, target := range targets[:2] { // list and hashtable: densest overlap
			pol := windowFliT{core.NewFliT(core.NewHashTable(1 << 14)), brokenLoad}
			rep := dlcheck.RunSet(dlcheck.NewConfig(pol, dstruct.Automatic), target.Target, mutationOpts(seed))
			if rep.Violation != nil {
				caught = true
				sample = rep.Violation.Error()
				break
			}
		}
	}
	if !caught {
		t.Fatal("broken-load policy passed the enumerator — dlcheck has no teeth")
	}
	t.Logf("caught as expected:\n%s", sample)
}

// TestSkippedDependencyFenceIsCaught: a p-CAS that never fences its
// dependencies must be detected wherever an NVTraverse insert runs the
// list protocol — PersistObject hands the fresh node to exactly that
// fence, then the linking CAS publishes it — both on the list itself and
// on the hashtable, whose buckets are the same code.
func TestSkippedDependencyFenceIsCaught(t *testing.T) {
	for _, target := range crashtest.Targets()[:2] {
		t.Run(target.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				pol := windowFliT{core.NewFliT(core.NewHashTable(1 << 14)), noDepFence}
				rep := dlcheck.RunSet(dlcheck.NewConfig(pol, dstruct.NVTraverse), target.Target, mutationOpts(seed))
				if rep.Violation != nil {
					t.Logf("caught as expected (seed %d):\n%s", seed, rep.Violation.Error())
					return
				}
			}
			t.Fatal("always-skipped dependency fence passed the enumerator — dlcheck has no teeth")
		})
	}
}

// TestSlowWindowPolicyPasses is the mutation tests' control: the same
// held-open tag window with the *correct* protocol — pre-read flush kept,
// dependency fence issued whenever the queue is non-empty — must produce
// zero violations on every structure under every durability mode: the
// enumerator's stamping discipline must not mistake slow persists for lost
// ones, and skipping an empty dependency fence must be safe.
//
// It is also the one test that reaches the v-load modes' interleavings at
// a useful rate: a held-open window is where an answer or a CAS resting on
// a word nobody flushed shows (the rule is dstruct.Ctx.Transition's).
// Without the incoming-link transition of an insert it flags
// list/nvtraverse about one run in ten and the skiplist one in fifteen;
// without the mark transition of a helped unlink, either about one run in
// three hundred on a loaded box. Their deterministic forms are
// crashtest's TestInsertBehindPendingPredecessor and
// TestHelpedUnlinkRestsOnTheMark.
func TestSlowWindowPolicyPasses(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, target := range crashtest.Targets() {
		for _, mode := range dstruct.Modes {
			for _, seed := range seeds {
				pol := windowFliT{core.NewFliT(core.NewHashTable(1 << 14)), slowWindow}
				rep := dlcheck.RunSet(dlcheck.NewConfig(pol, mode), target.Target, mutationOpts(seed))
				if rep.Violation != nil {
					t.Errorf("%s/%s seed %d: slow-but-correct window flagged: %v", target.Name, mode, seed, rep.Violation)
				}
			}
		}
	}
}

// linkFirstFliT is FliT whose shared p-CAS publishes without a fence of
// its own: the new value goes in with a raw CAS and is flushed onto the
// queue behind what the thread flushed before it — a fresh node's lines —
// and the operation's completion fence drains them all in that order. So
// every fenced prefix holds a node before the link to it, and only an
// image in which the draining fence's lines persist out of order can
// recover the link alone.
type linkFirstFliT struct{ *core.FliT }

func (p linkFirstFliT) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	if !pflag {
		return p.FliT.CAS(t, a, old, new, pflag)
	}
	t.CheckCrash()
	if !t.CAS(a, old, new) {
		return false
	}
	t.PWB(a)
	return true
}

// TestEvictionOnlyBugIsCaught: linkFirstFliT under NVTraverse, whose
// inserts flush their fresh node without fencing it, passes every fenced
// prefix of a one-worker run (no reader can observe the window), so only
// the eviction image can catch it — and must.
func TestEvictionOnlyBugIsCaught(t *testing.T) {
	pol := linkFirstFliT{core.NewFliT(core.NewHashTable(1 << 14))}
	opts := dlcheck.Options{Workers: 1, OpsPerWorker: 18, KeyRange: 8, Prefill: 4, Budget: 0, Seed: 1}
	rep := dlcheck.RunSet(dlcheck.NewConfig(pol, dstruct.NVTraverse), crashtest.Targets()[0].Target, opts)
	if rep.Violation == nil {
		t.Fatal("a link persisted ahead of its node passed the enumerator — the eviction image has no teeth")
	}
	if !strings.Contains(rep.Violation.Reason, "eviction") {
		t.Fatalf("caught by a fenced prefix, not the eviction image:\n%v", rep.Violation)
	}
	t.Logf("caught as expected:\n%s", rep.Violation.Error())
}

// TestNoPersistPolicyIsCaught: the non-persistent baseline must fail
// deterministically — its prefill never reaches the base image, so even
// the first boundary is unexplainable.
func TestNoPersistPolicyIsCaught(t *testing.T) {
	for _, target := range crashtest.Targets() {
		t.Run(target.Name, func(t *testing.T) {
			opts := dlcheck.DefaultOptions(1)
			rep := dlcheck.RunSet(dlcheck.NewConfig(core.NoPersist{}, dstruct.Automatic), target.Target, opts)
			if rep.Violation == nil {
				t.Fatal("no-persist policy passed the enumerator")
			}
			if rep.Violation.Reason == "" || rep.Violation.Diff == "" {
				t.Fatalf("violation lacks a repro trace: %+v", rep.Violation)
			}
		})
	}
}

// TestNoPersistStoreIsCaught: same teeth at service granularity.
func TestNoPersistStoreIsCaught(t *testing.T) {
	st := newDLStore(t, core.PolicyNoPersist)
	rep := crashtest.RunStoreDL(st, store.Direct, 0, dlcheck.DefaultOptions(1))
	if rep.Violation == nil {
		t.Fatal("no-persist store passed the enumerator")
	}
}

// TestViolationReproTrace: the repro trace must carry the boundary, the
// schedule and the state diff — debuggable from a CI artifact alone.
func TestViolationReproTrace(t *testing.T) {
	opts := dlcheck.DefaultOptions(3)
	rep := dlcheck.RunSet(dlcheck.NewConfig(core.NoPersist{}, dstruct.Automatic), crashtest.Targets()[0].Target, opts)
	if rep.Violation == nil {
		t.Fatal("expected a violation to format")
	}
	msg := rep.Violation.Error()
	for _, want := range []string{"durable-linearizability violation", "reason:", "state diff:"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("repro trace missing %q:\n%s", want, msg)
		}
	}
}

// TestRecoveredValuesAreChecked: a structure that recovers every key it
// should but with a wrong value must fail — the set batteries check the
// value each recovered key holds, not only its presence.
func TestRecoveredValuesAreChecked(t *testing.T) {
	tgt := crashtest.Targets()[0].Target // list
	recover := tgt.Recover
	tgt.Recover = func(cfg dstruct.Config) dlcheck.Instance {
		inst := recover(cfg)
		return dlcheck.Instance{Set: inst.Set, Snapshot: func() map[uint64]uint64 {
			snap := inst.Snapshot()
			for k := range snap {
				snap[k]++
			}
			return snap
		}}
	}
	rep := dlcheck.RunSet(dlcheck.NewConfig(core.NewFliT(core.NewHashTable(1<<14)), dstruct.Automatic), tgt, dlcheck.DefaultOptions(1))
	if rep.Violation == nil {
		t.Fatal("off-by-one recovered values passed the enumerator")
	}
	if msg := rep.Violation.Error(); !strings.Contains(msg, "recovered state") || !strings.Contains(msg, "insert(") {
		t.Fatalf("repro trace does not show values:\n%s", msg)
	}
}
