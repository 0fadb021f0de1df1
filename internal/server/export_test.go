package server

// Metrics returns the server's metric bundle, or nil when disabled: the
// external tests read the quiesced counters through it.
func (s *Server) Metrics() *Metrics { return s.metrics }

// OpsTotal sums the per-type op counters.
func (m *Metrics) OpsTotal() uint64 {
	var n uint64
	for i := range m.Ops {
		n += m.Ops[i].Load()
	}
	return n
}
