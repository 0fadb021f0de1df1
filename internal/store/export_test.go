package store

import "flit/internal/pmem"

// Thread exposes the session's pmem thread to the tests (stats, crash
// injection). Combined sessions execute nothing themselves — their
// operations run on the thread of the store's combiner — so Thread
// returns nil.
func (s *Sess[K]) Thread() *pmem.Thread { return s.c.t }
