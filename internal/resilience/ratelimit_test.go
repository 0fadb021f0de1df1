package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLimiterNilAndZeroRateAdmitEverything(t *testing.T) {
	var l *Limiter
	for i := 0; i < 1000; i++ {
		if ok, _ := l.Allow(int64(i), 100); !ok {
			t.Fatal("nil limiter rejected")
		}
	}
	if NewLimiter(0, 10) != nil {
		t.Fatal("rate 0 should build a nil (unlimited) limiter")
	}
	if NewLimiter(-5, 10) != nil {
		t.Fatal("negative rate should build a nil limiter")
	}
}

func TestLimiterBurstThenRefill(t *testing.T) {
	// 1000 ops/s, burst 10: at t=0 exactly 10 single-token requests pass.
	l := NewLimiter(1000, 10)
	now := int64(0)
	admitted := 0
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow(now, 1); ok {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("admitted %d at t=0, want burst of 10", admitted)
	}
	// After one emission interval (1ms) exactly one more token exists.
	now += int64(time.Millisecond)
	if ok, _ := l.Allow(now, 1); !ok {
		t.Fatal("token should have refilled after one interval")
	}
	if ok, retry := l.Allow(now, 1); ok {
		t.Fatal("second token should not exist yet")
	} else if retry <= 0 {
		t.Fatalf("retryAfter = %v, want positive hint", retry)
	}
}

func TestLimiterRetryAfterIsHonest(t *testing.T) {
	l := NewLimiter(1000, 1)
	now := int64(0)
	if ok, _ := l.Allow(now, 1); !ok {
		t.Fatal("first token must pass")
	}
	_, retry := l.Allow(now, 1)
	if retry <= 0 {
		t.Fatal("expected a retry hint")
	}
	// Waiting the hinted duration must make the next request conform.
	now += int64(retry)
	if ok, _ := l.Allow(now, 1); !ok {
		t.Fatal("request after hinted wait still rejected")
	}
}

func TestLimiterOversizedBatchClampsToBurst(t *testing.T) {
	l := NewLimiter(1000, 4)
	// A request for 100 tokens exceeds the burst of 4; it must still be
	// admissible (clamped), not unservable forever.
	if ok, _ := l.Allow(0, 100); !ok {
		t.Fatal("oversized batch must clamp to burst and pass on a full bucket")
	}
}

func TestLimiterConcurrentAdmissionBounded(t *testing.T) {
	// With a frozen clock, concurrent Allow calls must admit exactly the
	// burst, never more — the CAS loop cannot double-spend tokens.
	l := NewLimiter(100000, 64)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if ok, _ := l.Allow(0, 1); ok {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 64 {
		t.Fatalf("admitted %d under contention, want exactly 64", got)
	}
}
