// Package resilience holds the server/client hardening primitives for the
// networked FliT store: a lock-free rate limiter (admission control) and a
// fault-injecting net.Conn wrapper (chaos harness).
//
// Everything in this package is dependency-free and safe for concurrent use
// unless noted otherwise.
package resilience

import (
	"sync/atomic"
	"time"
)

// Limiter is a lock-free token-bucket rate limiter implemented as GCRA
// (generic cell rate algorithm). The whole state is a single int64 — the
// theoretical arrival time (TAT) in nanoseconds — advanced with a CAS loop,
// so admission checks cost one atomic RMW on the hot path and never block.
//
// A Limiter with rate 0 admits everything (nil Limiters do too), which lets
// callers keep a single code path whether or not limiting is configured.
type Limiter struct {
	// tat is the theoretical arrival time of the next conforming request,
	// in nanoseconds on the same clock as the now argument to Allow.
	tat atomic.Int64

	interval int64 // emission interval per token, ns
	burst    int64 // burst allowance, ns (tau in GCRA terms)
}

// NewLimiter builds a limiter admitting ratePerSec tokens per second with
// the given burst capacity (tokens that may be consumed instantaneously).
// ratePerSec <= 0 returns nil: an unlimited limiter.
// burst is clamped to at least 1.
func NewLimiter(ratePerSec float64, burst int) *Limiter {
	if ratePerSec <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	interval := int64(float64(time.Second) / ratePerSec)
	if interval < 1 {
		interval = 1
	}
	return &Limiter{
		interval: interval,
		burst:    int64(burst) * interval,
	}
}

// Allow asks for n tokens at time now (nanoseconds, any monotonic origin).
// It returns ok=true if the request conforms; otherwise ok=false and a
// suggested wait before retrying. n larger than the burst capacity is
// clamped to the burst so oversized batches can still (eventually) pass
// rather than being unservable forever.
func (l *Limiter) Allow(now int64, n int) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	need := int64(n) * l.interval
	if need > l.burst {
		need = l.burst
	}
	for {
		old := l.tat.Load()
		tat := old
		if tat < now {
			tat = now
		}
		newTAT := tat + need
		// Conforms if the new TAT stays within the burst window of now.
		if newTAT-now > l.burst {
			return false, time.Duration(newTAT - now - l.burst)
		}
		if l.tat.CompareAndSwap(old, newTAT) {
			return true, 0
		}
	}
}
