package crashtest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one named tooth of the crash batteries, kept as a source
// patch: the bug a past change fixed or a battery was built to catch,
// spelled as the exact snippet of today's code and what replaces it. The
// kill matrix (killmatrix_test.go, build tag killmatrix) applies each to
// a scratch copy of the tree and runs every battery against it.
type mutant struct {
	name   string
	origin string // the fix or tooth the mutant reverts
	file   string // relative to the module root
	// snippet must occur exactly once in file; replacement takes its place.
	snippet, replacement string
}

// pkg is the package the mutant patches, as a go command pattern.
func (m mutant) pkg() string { return "./" + filepath.Dir(m.file) }

// mutants is the kill matrix's row set.
var mutants = []mutant{
	{
		name:   "fence-deps-always-skipped",
		origin: "conditional dependency fence",
		file:   "internal/core/flit.go",
		snippet: `func fenceDeps(t *pmem.Thread) {
	if t.Pending() == 0 {
		t.Stats.ElidedFences++
		return
	}
	t.PFence()
}`,
		replacement: `func fenceDeps(t *pmem.Thread) {
	t.Stats.ElidedFences++
}`,
	},
	{
		name:   "group-commit-never-fences",
		origin: "conditional group-commit fence",
		file:   "internal/core/batch.go",
		snippet: `	if t.Pending() == 0 {
		t.Stats.ElidedFences++
	} else {
		n = t.Drain()
	}`,
		replacement: `	t.Stats.ElidedFences++`,
	},
	{
		// A Direct op's commit window releases its tags without the
		// completion fence, so its deferred value p-store is acked while
		// still on the write-back queue. A raw policy's Complete, which
		// commits through the same code, keeps its fence.
		name:   "direct-commit-skips-fence",
		origin: "a Direct op's completion fence",
		file:   "internal/core/batch.go",
		snippet: `	t.PFence() // the operation's completion fence: always issued
`,
		replacement: `	if !d.window {
		t.PFence()
	}
`,
	},
	{
		// A window's p-CAS releases its flit-tag as soon as it has
		// flushed, before the commit fence persists it: a reader that
		// sees the new link no longer sees a tag, so it neither flushes
		// the link nor waits for it, and acks what a crash then loses.
		// A raw policy's p-CAS, which shares the code, still commits at
		// once.
		name:   "window-rmw-untags-early",
		origin: "a window's RMW holds its tag until the commit",
		file:   "internal/core/batch.go",
		snippet: `	if t.CAS(a, old, new) {
		d.applied(t, a)
		return true
	}`,
		replacement: `	if t.CAS(a, old, new) {
		if !d.window {
			d.applied(t, a)
			return true
		}
		pwbOnce(t, a)
		d.c.Dec(t, a)
		return true
	}`,
	},
	{
		// A window hands an unlinked node to reclamation at once, before
		// its commit fence persists the unlink: the node can be reused
		// while a crash image still reaches it.
		name:   "window-retires-before-commit",
		origin: "a window retires at its commit",
		file:   "internal/dstruct/dstruct.go",
		snippet: `	if c.win != nil {
		c.win.Retire(c.H, p, n)
		return
	}
`,
		replacement: ``,
	},
	{
		// Pinned by TestInsertBehindPendingPredecessor.
		name:   "insert-ignores-incoming-link",
		origin: "traversal rule: an insert rests on its incoming link",
		file:   "internal/dstruct/list/list.go",
		snippet: `		// one that reached its predecessor (dstruct.Ctx.Transition).
		c.Transition(inLink, predLink)`,
		replacement: `		// one that reached its predecessor (dstruct.Ctx.Transition).
		_ = inLink
		c.Transition(predLink)`,
	},
	{
		// Pinned by skiplist's TestContainsThroughMarkedNode.
		name:   "contains-skips-mark-keeps-link",
		origin: "traversal rule: skiplist Contains past a mark",
		file:   "internal/dstruct/skiplist/skiplist.go",
		snippet: `					case k < key:
						link = t.nextField(curr, 0)
`,
		replacement: `					case k < key:
`,
	},
	{
		// Pinned by TestHelpedUnlinkRestsOnTheMark.
		name:   "helped-unlink-ignores-mark",
		origin: "traversal rule: a helped unlink rests on the mark",
		file:   "internal/dstruct/list/list.go",
		snippet: `			// the crash also loses the link into pred.
			c.Transition(c.Field(curr, fNext))
`,
		replacement: `			// the crash also loses the link into pred.
`,
	},
	{
		// Every windowed Delete's own unlink skips its leading fence, in
		// every mode: under NVTraverse and Manual an unlink behind a node
		// then persists ahead of its mark while the way into that node,
		// which the traversal v-loaded, may still be lost. Pinned by
		// TestOwnUnlinkRestsOnTheMark.
		name:        "own-unlink-always-unfenced",
		origin:      "a Delete's own unlink shares its mark's fence only where the way in is durable",
		file:        "internal/dstruct/dstruct.go",
		snippet:     `	if c.win != nil && (c.Mode == Automatic || predLink == head) {`,
		replacement: `	if c.win != nil {`,
	},
	{
		name:        "immediate-free",
		origin:      "epoch reclamation grace period",
		file:        "internal/reclaim/reclaim.go",
		snippet:     `	if h.unsafeImmediate {`,
		replacement: `	if true {`,
	},
	{
		// The chaos battery's planted tooth (BrokenDrainScenario), moved
		// into the server: a drain that acks what it never executed.
		name:   "drain-acks-unexecuted",
		origin: "graceful drain",
		file:   "internal/server/server.go",
		snippet: `		c.reject(n, StatusDraining, 0, &c.srv.shedDraining)
`,
		replacement: `		for i := range n {
			c.resps[i] = Response{Status: StatusOK, Flag: true}
		}
`,
	},
	{
		name:        "reshard-keeps-chains-in-place",
		origin:      "in-place recovery, except under a reshard",
		file:        "internal/store/store.go",
		snippet:     `recovering[i] = hashtable.BeginRecover(cfg, reshard)`,
		replacement: `recovering[i] = hashtable.BeginRecover(cfg, false)`,
	},
	{
		// Every policy name builds the no-persist baseline.
		name:   "no-persist",
		origin: "the persistence itself",
		file:   "internal/core/registry.go",
		snippet: `	switch name {
	case PolicyNoPersist:`,
		replacement: `	switch name = PolicyNoPersist; name {
	case PolicyNoPersist:`,
	},
	{
		// The lock map's insert stops fencing its fresh node before the
		// private p-store that links it, so one fence drains both — the
		// node's lines first, in queue order. The lock hides the link from
		// every reader until that fence returns and a countdown crash
		// cannot land inside it, so every fenced prefix holds the node
		// before the link; only an image in which the fence's pending
		// lines persist out of order — an eviction — holds the link alone.
		name:   "link-before-node-evictable",
		origin: "eviction-only control",
		file:   "internal/dstruct/lockmap/lockmap.go",
		snippet: `	pol.Complete(c.T) // node lines durable before the link can persist
	pol.StorePrivate(c.T, head, uint64(node), core.P)`,
		replacement: `	pol.StorePrivate(c.T, head, uint64(node), core.P)`,
	},
	{
		// Put's in-place overwrite of a present key stops persisting: the
		// key survives a crash with its old value.
		name:        "upsert-overwrite-volatile",
		origin:      "Upsert's in-place value p-store",
		file:        "internal/dstruct/list/list.go",
		snippet:     `pol.Store(c.T, c.Field(curr, fVal), val, core.P)`,
		replacement: `pol.Store(c.T, c.Field(curr, fVal), val, core.V)`,
	},
	{
		// Put's in-place overwrite of a present key bypasses the policy
		// with a raw pmem store: nothing flushes it, nothing tags it.
		name:        "upsert-overwrite-raw",
		origin:      "every pmem write goes through the policy",
		file:        "internal/dstruct/list/list.go",
		snippet:     `pol.Store(c.T, c.Field(curr, fVal), val, core.P)`,
		replacement: `c.T.Store(c.Field(curr, fVal), val)`,
	},
	{
		// Formatting a store leaks the pmem thread that wrote the
		// superblock: its slot is never returned.
		name:        "format-thread-leaks",
		origin:      "every acquired handle is released on every path",
		file:        "internal/store/store.go",
		snippet:     "\tt.PFence()\n\tar.Release()\n\tt.Release()\n}",
		replacement: "\tt.PFence()\n\tar.Release()\n}",
	},
	{
		// A reshard's activation keeps the arena it allocated the shard
		// directory from: the grown store holds one arena nobody owns.
		name:        "reshard-arena-leaks",
		origin:      "every acquired handle is released on every path",
		file:        "internal/store/reshard.go",
		snippet:     "\tar := s.heap.NewArena()\n\tdefer ar.Release()\n",
		replacement: "\tar := s.heap.NewArena()\n",
	},
	{
		// Closing a Direct or Batched session keeps its reclamation
		// handle registered: every closed session pins the domain.
		name:        "session-close-keeps-handle",
		origin:      "every acquired handle is released on every path",
		file:        "internal/store/session.go",
		snippet:     "\tc.h.Close()\n\tc.ar.Release()\n",
		replacement: "\tc.ar.Release()\n",
	},
	{
		// A connection whose window panicked returns without closing its
		// batcher: its combiner slot stays registered and every window
		// sweeps it.
		name:   "panicked-conn-keeps-session",
		origin: "every acquired handle is released on every path",
		file:   "internal/server/server.go",
		snippet: `		c.srv.connError(c.nc, causePanic, fmt.Errorf("handler panic: %v", r))
	}
	if c.b != nil {`,
		replacement: `		c.srv.connError(c.nc, causePanic, fmt.Errorf("handler panic: %v", r))
		return
	}
	if c.b != nil {`,
	},
	{
		// A Direct op boxes its key hash into a package-level interface:
		// one heap allocation per op on a //flit:hotpath function.
		name:   "hot-op-boxes",
		origin: "the Direct op path allocates nothing",
		file:   "internal/store/session.go",
		snippet: `//flit:hotpath
func (c *sessionCore) do1(kind OpKind, h, val uint64) Result {
	if c.mode == Combined {`,
		replacement: `var hotSink any

//flit:hotpath
func (c *sessionCore) do1(kind OpKind, h, val uint64) Result {
	hotSink = h
	if c.mode == Combined {`,
	},
	{
		// The combiner acknowledges a window before it applies the
		// window's coalesced Add deltas, so a crash after the ack loses
		// an acknowledged Add.
		name:   "window-acks-before-deltas",
		origin: "net deltas settle before the window's fence",
		file:   "internal/store/combine.go",
		snippet: `	c.flushDeltas()
	// THE fence: the commit drains each dirty line once and releases the
	// flit-tags (no fence if nothing is pending). Only now are results durable.
	c.account(c.x.commit())
	for _, sl := range c.served {
		if sl != c.own { // own's owner is the lock holder, already here
			sl.state.Store(slotDone)
		}
	}
`,
		replacement: `	c.account(c.x.commit())
	for _, sl := range c.served {
		if sl != c.own { // own's owner is the lock holder, already here
			sl.state.Store(slotDone)
		}
	}
	c.flushDeltas()
`,
	},
	{
		// The combiner acknowledges a window's announcers before its
		// commit fence: a crash at the fence loses acknowledged writes.
		name:   "window-acks-before-commit",
		origin: "a window acks after its commit fence",
		file:   "internal/store/combine.go",
		snippet: `	c.account(c.x.commit())
	for _, sl := range c.served {
		if sl != c.own { // own's owner is the lock holder, already here
			sl.state.Store(slotDone)
		}
	}
`,
		replacement: `	for _, sl := range c.served {
		if sl != c.own { // own's owner is the lock holder, already here
			sl.state.Store(slotDone)
		}
	}
	c.account(c.x.commit())
`,
	},
	{
		// Coalescing drops every net +1 delta after it leaves pending:
		// the window acknowledges an Add whose effect never reaches the
		// table.
		name:        "coalesce-drops-delta",
		origin:      "net-delta coalescing applies every non-zero delta",
		file:        "internal/store/combine.go",
		snippet:     `		if d == 0 && c.exec(OpContains, h, 0).Ok {`,
		replacement: `		if d == 1 || d == 0 && c.exec(OpContains, h, 0).Ok {`,
	},
}

// moduleRoot is the root of the tree this package was built from.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestMutantSnippetsCurrent keeps the mutant table aimed at today's code:
// every snippet occurs exactly once in its file, so a refactor that moves
// guarded code fails here instead of silently orphaning a tooth.
func TestMutantSnippetsCurrent(t *testing.T) {
	root := moduleRoot(t)
	seen := map[string]bool{}
	for _, m := range mutants {
		if seen[m.name] {
			t.Errorf("mutant %q is listed twice", m.name)
		}
		seen[m.name] = true
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Errorf("%s: %v", m.name, err)
			continue
		}
		if n := strings.Count(string(src), m.snippet); n != 1 {
			t.Errorf("%s (%s): snippet occurs %d times in %s, want exactly 1:\n%s", m.name, m.origin, n, m.file, m.snippet)
		}
		if m.snippet == m.replacement {
			t.Errorf("%s: replacement equals the snippet", m.name)
		}
	}
}
