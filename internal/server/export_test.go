package server

import "flit/internal/store"

// Metrics returns the server's metric bundle, or nil when disabled: the
// external tests read the quiesced counters through it.
func (s *Server) Metrics() *Metrics { return s.metrics }

// OpCounts reads the acknowledged store ops by kind, indexed by
// store.OpKind.
func (s *Server) OpCounts() (n [numOpKinds]uint64) {
	for k := range s.ops {
		n[k] = s.ops[k].Load()
	}
	return n
}

// Store returns the served store.
func (s *Server) Store() *store.Store { return s.st }
