// Package crashtest wires the durable structures, the queue and the
// sharded store into the crash batteries: the registry of set targets,
// the store's executors and per-path alphabets (Put, Get, Delete, Add;
// a Combined session's Adds recorded blind) for the systematic
// enumerator (internal/dlcheck), and the chaos harness at the service
// boundary.
package crashtest

import (
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/dstruct/bst"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/dstruct/lockmap"
	"flit/internal/dstruct/skiplist"
)

// Instance couples a set with a quiescent snapshot function.
type Instance = dlcheck.Instance

// Target describes one data structure under crash test: the embedded
// dlcheck.Target is what the systematic enumerator (dlcheck.RunSet) runs.
type Target struct {
	dlcheck.Target
	// WithLAP reports whether link-and-persist applies (false for the BST).
	WithLAP bool
}

// targetOf builds a registry entry from a structure's constructor pair.
func targetOf[S interface {
	dstruct.Set
	Snapshot() map[uint64]uint64
}](name string, withLAP bool, create, recover func(dstruct.Config) S) Target {
	inst := func(f func(dstruct.Config) S) func(dstruct.Config) Instance {
		return func(cfg dstruct.Config) Instance {
			s := f(cfg)
			return Instance{Set: s, Snapshot: s.Snapshot}
		}
	}
	return Target{dlcheck.Target{Name: name, New: inst(create), Recover: inst(recover)}, withLAP}
}

// Targets enumerates the paper's four lock-free structures plus the
// lock-based map (§7's extension).
func Targets() []Target {
	return []Target{
		targetOf("list", true, list.New, list.Recover),
		targetOf("hashtable", true, func(cfg dstruct.Config) *hashtable.Table { return hashtable.New(cfg, 8) }, hashtable.Recover),
		targetOf("skiplist", true, skiplist.New, skiplist.Recover),
		targetOf("lockmap", true, func(cfg dstruct.Config) *lockmap.Map { return lockmap.New(cfg, 8) }, lockmap.Recover),
		targetOf("bst", false, bst.New, bst.Recover),
	}
}
