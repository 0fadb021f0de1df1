package resilience

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset is returned by a faultConn once its reset budget is
// exhausted: every subsequent Read/Write fails with it, mimicking a peer
// that sent RST. Callers match it with errors.Is.
var ErrInjectedReset = errors.New("resilience: injected connection reset")

// Faults configures a fault-injecting wrapper around a net.Conn. The zero
// value injects nothing. All byte/op counts are per connection, not global.
type Faults struct {
	// Seed drives the per-connection RNGs so a scenario replays exactly.
	Seed int64

	// DelayEvery injects ReadDelay before the Nth read/write call (1 =
	// every call) when that call is a read. 0 disables delays.
	DelayEvery int
	ReadDelay  time.Duration

	// PartialWrites splits each Write into random 1..16 byte chunks,
	// exercising short-write handling and frame reassembly on the peer.
	PartialWrites bool

	// ResetAfterBytes hard-fails the connection (ErrInjectedReset) once
	// this many total bytes have crossed it in either direction. 0 disables.
	ResetAfterBytes int64

	// BlackholeAfterBytes silently swallows all traffic after this many
	// bytes: writes "succeed" without delivering, reads block until the
	// deadline (or forever). Models a dead peer that never RSTs. 0 disables.
	BlackholeAfterBytes int64
}

// enabled reports whether the config injects anything at all.
func (f Faults) enabled() bool {
	return f.DelayEvery > 0 || f.PartialWrites || f.ResetAfterBytes > 0 || f.BlackholeAfterBytes > 0
}

// WrapConn wraps c with fault injection. A zero Faults returns c unchanged.
func WrapConn(c net.Conn, f Faults) net.Conn {
	if !f.enabled() {
		return c
	}
	return &faultConn{Conn: c, f: f, rng: rand.New(rand.NewSource(f.Seed))}
}

// faultConn injects the configured faults around an underlying net.Conn.
// A single mutex serializes the fault bookkeeping; the underlying Read and
// Write are called outside the lock so a delayed reader cannot block a
// concurrent writer.
type faultConn struct {
	net.Conn
	f   Faults
	rng *rand.Rand

	mu     sync.Mutex
	bytes  int64 // total bytes in both directions
	calls  int   // read+write calls, for DelayEvery
	reset  bool
	silent bool // blackholed
}

// before runs the pre-I/O fault decisions and returns the delay to apply
// plus terminal states. It never sleeps while holding the lock.
func (c *faultConn) before(isWrite bool) (delay time.Duration, reset, silent bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return 0, true, false
	}
	if c.silent {
		return 0, false, true
	}
	c.calls++
	if !isWrite && c.f.DelayEvery > 0 && c.calls%c.f.DelayEvery == 0 {
		delay = c.f.ReadDelay
	}
	return delay, false, false
}

// account adds n transferred bytes and trips the reset/blackhole budgets.
func (c *faultConn) account(n int) error {
	if n <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += int64(n)
	if c.f.ResetAfterBytes > 0 && c.bytes >= c.f.ResetAfterBytes && !c.reset {
		c.reset = true
		return ErrInjectedReset
	}
	if c.f.BlackholeAfterBytes > 0 && c.bytes >= c.f.BlackholeAfterBytes {
		c.silent = true
	}
	return nil
}

func (c *faultConn) Read(p []byte) (int, error) {
	delay, reset, silent := c.before(false)
	if reset {
		return 0, ErrInjectedReset
	}
	if silent {
		return c.blackholeRead()
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	n, err := c.Conn.Read(p)
	if aerr := c.account(n); aerr != nil {
		// Deliver the bytes that made it, fail the next call.
		if err == nil {
			return n, nil
		}
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	delay, reset, silent := c.before(true)
	if reset {
		return 0, ErrInjectedReset
	}
	if silent {
		return len(p), nil // swallowed
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if !c.f.PartialWrites {
		n, err := c.Conn.Write(p)
		c.account(n)
		return n, err
	}
	written := 0
	for written < len(p) {
		c.mu.Lock()
		if c.reset {
			c.mu.Unlock()
			return written, ErrInjectedReset
		}
		if c.silent {
			c.mu.Unlock()
			return len(p), nil
		}
		chunk := 1 + c.rng.Intn(16)
		c.mu.Unlock()
		if written+chunk > len(p) {
			chunk = len(p) - written
		}
		n, err := c.Conn.Write(p[written : written+chunk])
		written += n
		c.account(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// blackholeRead blocks until the read deadline fires (the underlying conn
// enforces it) without ever delivering bytes. It reads into a throwaway
// buffer on a conn we never write to... simplest portable approach: just
// sleep in small steps until the underlying read fails with a timeout.
func (c *faultConn) blackholeRead() (int, error) {
	// Delegate to the underlying conn with a drained buffer: the peer's
	// bytes may arrive but we discard them and report nothing. Blocking on
	// the real Read keeps deadline semantics (SetReadDeadline) intact.
	var scratch [256]byte
	for {
		n, err := c.Conn.Read(scratch[:])
		if err != nil {
			return 0, err
		}
		_ = n // discard silently
	}
}
