// Package dstruct is a fixture stub for handleclose.
package dstruct

type Config struct{}

type Ctx struct{}

func (c Config) Open() Ctx { return Ctx{} }
func (c *Ctx) Close()      {}

type SetThread interface {
	Insert(key, val uint64) bool
	Close()
}

type Set interface{ NewThread() SetThread }
