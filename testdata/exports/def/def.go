// Package def declares what TestExportsGateHasTeeth resolves: package use
// reaches all of it but Handle.Domain, Stray.Run and Config.TestOnly.
package def

// Domain is a type that package use names.
type Domain struct{}

// Handle has a method named like the type Domain. A gate that matches
// names takes the type's uses for the method's; nothing calls the method.
type Handle struct{ d *Domain }

// Domain is not called outside tests: reported.
func (h *Handle) Domain() *Domain { return h.d }

// Runner is the interface package use calls Run through.
type Runner interface{ Run() }

// Job implements Runner.
type Job struct{}

// Run is reached only through Runner: not reported.
func (Job) Run() {}

// Stray has a Run of another signature, so it does not implement Runner.
type Stray struct{}

// Run shares its name with Runner's, but Runner's uses do not reach it:
// reported.
func (Stray) Run(n int) {}

// Box's pointer satisfies the constraint package use calls Size through.
type Box struct{ n int }

// Size is reached only through a type parameter: not reported.
func (b *Box) Size() int { return b.n }

// Counter has a pointer method.
type Counter struct{ n int }

// Inc increments c.
func (c *Counter) Inc() { c.n++ }

// Config's fields are each written one way, TestOnly only by a test.
type Config struct {
	TestOnly int // set in def_test.go alone: reported
	Indexed  [2]int
	Copied   [2]int
	Addr     int
	Counters [2]Counter
}

// Snapshot is written only by a conversion from a struct of its shape.
type Snapshot struct {
	Values map[int]int
}
