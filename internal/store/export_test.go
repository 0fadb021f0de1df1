package store

import "flit/internal/pmem"

// Thread exposes the session's pmem thread to the tests (stats, crash
// injection). Combined sessions execute nothing themselves — their
// operations run on the thread of the store's combiner — so Thread
// returns nil.
func (s *Sess[K]) Thread() *pmem.Thread { return s.c.t }

// Bucket returns the shard and the bucket of that shard's table that
// serve key.
func (s *Store) Bucket(key string) (shard, bucket int) {
	h := HashKey(key)
	shard = shardIdx(h, len(s.tables))
	return shard, s.tables[shard].BucketOf(h)
}
