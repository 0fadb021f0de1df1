// Package tooth is the hotpath mutation tooth: an annotated hot path
// that allocates. The analyzer MUST flag it.
package tooth

import "fmt"

// RecordSlow formats inside the record path — the exact regression the
// allocs-per-op pin tests catch at runtime.
//
//flit:hotpath
func RecordSlow(v uint64) string {
	return fmt.Sprintf("v=%d", v) // want "fmt.Sprintf allocates"
}

type epoch struct{ depth int }

func (e *epoch) enter() { e.depth++ }
func (e *epoch) exit()  { e.depth-- }

// GetSlow brackets a read with a deferred exit, the shape list.GetAt had:
// a hot function releases explicitly before each return.
//
//flit:hotpath
func GetSlow(e *epoch, v uint64) uint64 {
	e.enter()
	defer e.exit() // want "defer on a //flit:hotpath function"
	return v + 1
}
