// Package reclaim is a fixture stub for handleclose.
package reclaim

type Domain struct{}

type Handle struct{}

func (d *Domain) NewHandleOwned() *Handle { return &Handle{} }
func (h *Handle) Close()                  {}
