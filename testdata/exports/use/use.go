// Package use is the fixture's only non-test caller of package def.
package use

import "flit/testdata/exports/def"

// shape converts to def.Snapshot.
type shape struct {
	Values map[int]int
}

// Use reaches def through every form TestExportsGateHasTeeth must count.
func Use(h *def.Handle) (*def.Domain, def.Snapshot) {
	var r def.Runner = def.Job{}
	r.Run()

	var c def.Config
	c.Indexed[0] = 1
	copy(c.Copied[:], []int{1, 2})
	p := &c.Addr
	*p = 3
	c.Counters[1].Inc()
	_ = h
	return nil, def.Snapshot(shape{Values: map[int]int{1: c.TestOnly}})
}
