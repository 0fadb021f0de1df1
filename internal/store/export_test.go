package store

import (
	"testing"

	"flit/internal/pmem"
)

// CheckAccount is checkAccount, for the external tests.
func CheckAccount(tb testing.TB, st *Store) *Store { return checkAccount(tb, st) }

// Thread exposes the session's pmem thread to the tests (stats, crash
// injection). Combined sessions execute nothing themselves — their
// operations run on the thread of the store's combiner — so Thread
// returns nil.
func (s *Sess[K]) Thread() *pmem.Thread { return s.c.t }

// Pending reports the operations executed since the last Commit
// (Batched mode; Direct and Combined operations are already durable when
// they return, so it reads 0 between them).
func (s *Sess[K]) Pending() int { return s.c.pending }

// Add is one OpAdd: it adds delta to the value under key, inserting
// key→delta when absent, and returns the post-add value and whether the
// key was present ((0, false) in a Combined session, whose Add is blind).
func (s *Sess[K]) Add(key K, delta uint64) (uint64, bool) {
	r := s.c.do1(OpAdd, hashKey(key), delta)
	return r.Val, r.Ok
}

// Bucket returns the shard and the bucket of that shard's table that
// serve key.
func (s *Store) Bucket(key string) (shard, bucket int) {
	h := HashKey(key)
	shard = shardIdx(h, len(s.tables))
	return shard, s.tables[shard].BucketOf(h)
}

// Contains reports whether key is present.
func (s *Sess[K]) Contains(key K) bool {
	return s.c.do1(OpContains, hashKey(key), 0).Ok
}
