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
		snippet: `		c.reject(n, StatusDraining, 0, &c.b.srv.shedDraining)
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
		// The combiner acknowledges a window before it applies the
		// window's coalesced Add deltas, so a crash after the ack loses
		// an acknowledged Add.
		name:   "window-acks-before-deltas",
		origin: "net deltas settle before the window's fence",
		file:   "internal/store/combine.go",
		snippet: `	c.flushDeltas()
	// THE fence: one Flush persists the whole window (each dirty line
	// drained once via the coalescing write-back queue) and releases the
	// deferred flit-tags; a window that left nothing pending needs none.
	// Only now are the window's results durable.
	c.d.Flush(c.t)
	for _, sl := range c.served {
		sl.state.Store(slotDone)
	}
`,
		replacement: `	c.d.Flush(c.t)
	for _, sl := range c.served {
		sl.state.Store(slotDone)
	}
	c.flushDeltas()
`,
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
